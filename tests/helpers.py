"""Shared oracle helpers for the test suite.

The oracles are deliberately independent of the package's own arithmetic:
mpmath for transcendental references, Akiyama-Tanigawa for Bernoulli numbers,
``math.comb``/``Fraction`` for exact values.  Slow routes that the package
replaced live here too, so a test can check that the fast path agrees with
them: :func:`reference_mul` and :func:`reference_div`, the general
sign-case interval product and quotient (R. E. Moore, *Interval Analysis*,
1966) that ``IntervalReal``'s one-formula positive ones replaced, on a
signed :func:`_div` of dyadics, :func:`midpoint_exp`, the ``interval.exp``
that took one argument reduction from the interval's midpoint and powered
exp(1/2) in interval arithmetic (the exp(1/2) cache and
:func:`_round_to_int` are its own: ``interval.exp`` halves and squares),
:func:`reference_exp`, which runs that reduction with its Taylor sums in
interval arithmetic on the reference product and quotient and on
:func:`_add`, :func:`reference_round_significant`,
which rounds to significant digits with exact ``Fraction``s,
:func:`reference_alternation`, which decides the alternation check on whole
bounds, :func:`direct_alternation`, which decides every order of it at every
n on its own, from the policy's first precision,
:func:`reference_general_exponent`, the ``Fraction`` sum that the
integer exponent pair replaced, :func:`reference_central_ratio`, the
composed interval route that ``central_ratio``'s Dyadic steps replaced,
:func:`reference_scaled_width`, which normalises the widths it compares,
:func:`tightness_gap`, the ``Fraction`` exponent gap that ``dominance_sweep``
decides as an integer test, :func:`hutton_pi`, a second arctan series
for pi to check ``interval.pi`` against, and
:func:`reference_atan_inv_scaled`, the arctan sum that divided 2**q by the
whole (2i+1) x^(2i+1) for each term, where ``interval`` now divides a
running quotient by small integers.

The interval inspections only tests use are plain functions here:
:func:`as_fraction` of a ``Dyadic``, and :func:`width`, :func:`rel_width`,
:func:`contains` and :func:`is_exact` of an ``IntervalReal``.
"""

import math
from fractions import Fraction
from functools import cache, lru_cache

import mpmath

from binomcert import bounds
from binomcert import interval as ivl
from binomcert.combinatorics import bernoulli, central_binomial, central_binomials
from binomcert.interval import (
    Dyadic,
    IntervalReal,
    _atan_inv_scaled,
    _cmp,
    _dyadic_ratio,
    _exp_endpoint,
    _mul,
    _round,
    _sub,
    dyadic,
    exact_pow2,
    from_int,
    pi,
    sqrt,
)
from binomcert.sweeps import _decide_less

ORACLE_BITS = 400

mpmath.mp.prec = ORACLE_BITS + 60


def mpf_to_fraction(x: "mpmath.mpf") -> Fraction:
    """Exact rational value of an mpf (mpf values are dyadic)."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def oracle_bracket(x: "mpmath.mpf", bits: int = ORACLE_BITS) -> tuple[Fraction, Fraction]:
    """Rational bracket [lo, hi] around a high-precision oracle value."""
    lo = mpf_to_fraction(mpmath.mpf(x))
    eps = Fraction(1, 2**bits) * (abs(lo) + 1)
    return lo - eps, lo + eps


def assert_encloses(iv, x: "mpmath.mpf") -> None:
    """The interval must contain the oracle value (up to oracle quantization)."""
    lo, hi = oracle_bracket(x)
    assert as_fraction(iv.lo) <= hi, f"{iv} entirely above oracle {x}"
    assert lo <= as_fraction(iv.hi), f"{iv} entirely below oracle {x}"


# -- interval inspection ---------------------------------------------------------


def as_fraction(d: Dyadic) -> Fraction:
    """Exact rational value of a dyadic."""
    if d.exp >= 0:
        return Fraction(d.man << d.exp)
    return Fraction(d.man, 1 << -d.exp)


def contains(iv: IntervalReal, q: Fraction | int) -> bool:
    q = Fraction(q)
    return as_fraction(iv.lo) <= q <= as_fraction(iv.hi)


def is_exact(iv: IntervalReal) -> bool:
    return iv.lo == iv.hi


def width(iv: IntervalReal) -> Dyadic:
    """hi - lo, exactly."""
    return dyadic(*_sub(iv.hi, iv.lo))


def rel_width(iv: IntervalReal) -> float:
    """Width divided by the smaller endpoint magnitude, as a float.

    Computed from mantissa ratio and exponent difference so it stays
    finite even when the endpoints themselves overflow floats.
    """
    a = Dyadic(abs(iv.lo.man), iv.lo.exp)
    b = Dyadic(abs(iv.hi.man), iv.hi.exp)
    return _dyadic_ratio(width(iv), a if _cmp(a, b) <= 0 else b)


def bernoulli_akiyama_tanigawa(n: int) -> list[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa triangle (B_1 = +1/2 convention;
    even-index values coincide with the generating-function convention)."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


# -- reference product and quotient: every sign case -----------------------------


def _add(a: Dyadic, b: Dyadic) -> tuple[int, int]:
    """Exact sum of two dyadics as (mantissa, exponent)."""
    e = min(a.exp, b.exp)
    return (a.man << (a.exp - e)) + (b.man << (b.exp - e)), e


def _div(a: Dyadic, b: Dyadic, p: int, up: bool) -> Dyadic:
    """Dyadic <= a/b, or >= a/b when ``up``, with about p significant bits,
    for a divisor of either sign (b != 0)."""
    shift = p + 2 + max(0, b.man.bit_length() - a.man.bit_length() + 1)
    num, den = a.man << shift, b.man
    if den < 0:
        num, den = -num, -den
    return dyadic(-((-num) // den) if up else num // den, a.exp - b.exp - shift)


def reference_mul(a: IntervalReal, b: IntervalReal) -> IntervalReal:
    """``IntervalReal.__mul__`` before the positive-operand contract: the
    exact-one and exact-scalar shortcuts, then the min and max of the four
    endpoint products, for operands of any sign."""
    p = max(a.prec, b.prec)
    one = Dyadic(1, 0)
    if b.lo == b.hi == one:
        return a if a.prec == p else IntervalReal(a.lo, a.hi, p)
    if a.lo == a.hi == one:
        return b if b.prec == p else IntervalReal(b.lo, b.hi, p)
    if b.lo == b.hi:
        lo = dyadic(*_mul(a.lo, b.lo))
        hi = dyadic(*_mul(a.hi, b.lo))
        if _cmp(lo, hi) > 0:
            lo, hi = hi, lo
        return IntervalReal(_round(*lo, p, False), _round(*hi, p, True), p)
    if a.lo == a.hi:
        return reference_mul(b, a)
    cands = [dyadic(*_mul(x, y)) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    lo = hi = cands[0]
    for c in cands[1:]:
        if _cmp(c, lo) < 0:
            lo = c
        if _cmp(c, hi) > 0:
            hi = c
    return IntervalReal(_round(*lo, p, False), _round(*hi, p, True), p)


def reference_div(a: IntervalReal, b: IntervalReal) -> IntervalReal:
    """``IntervalReal.__truediv__`` before the positive-operand contract: an
    unrounded quotient by an exact divisor, else the min and max of the four
    endpoint quotients, for a divisor of either sign."""
    p = max(a.prec, b.prec)
    if b.lo.man <= 0 <= b.hi.man:
        raise ZeroDivisionError("interval division: divisor encloses zero")
    if b.lo == b.hi:
        lo, hi = a.lo, a.hi
        if b.lo.man < 0:
            lo, hi = hi, lo
        return IntervalReal(_div(lo, b.lo, p, False), _div(hi, b.lo, p, True), p)
    los = [_div(x, y, p, False) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    his = [_div(x, y, p, True) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    lo, hi = los[0], his[0]
    for c in los[1:]:
        if _cmp(c, lo) < 0:
            lo = c
    for c in his[1:]:
        if _cmp(c, hi) > 0:
            hi = c
    return IntervalReal(_round(*lo, p, False), _round(*hi, p, True), p)


def _reference_add(a: IntervalReal, b: IntervalReal) -> IntervalReal:
    p = max(a.prec, b.prec)
    return IntervalReal(_round(*_add(a.lo, b.lo), p, False), _round(*_add(a.hi, b.hi), p, True), p)


# -- midpoint exp: one reduction for the whole interval ---------------------------

_HALF = Dyadic(1, -1)


@lru_cache(maxsize=None)
def _exp_half(p: int, up: bool) -> Dyadic:
    return _exp_endpoint(_HALF, p, up)


def _round_to_int(d: Dyadic) -> int:
    """Nearest integer to a dyadic (ties toward +inf; any choice is sound here)."""
    if d.exp >= 0:
        return d.man << d.exp
    return (d.man + (1 << (-d.exp - 1))) >> -d.exp


def _pow_pos(base: IntervalReal, k: int, p: int) -> IntervalReal:
    """base**k for k >= 1 and base > 0, monotone so endpoints power separately."""
    out = base
    for bit in bin(k)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return IntervalReal(_round(*out.lo, p, False), _round(*out.hi, p, True), p)


def midpoint_exp(a: IntervalReal) -> IntervalReal:
    """``interval.exp`` before it took each endpoint on its own: one k, the
    integer nearest to a.lo + a.hi, reduces both endpoints, and exp(1/2)**|k|
    multiplies or divides the core enclosure in interval arithmetic.  An input
    too wide for that k takes exp of each endpoint as a point."""
    p = a.prec
    k = _round_to_int(dyadic(*_add(a.lo, a.hi)))  # nearest int to 2*mid
    half_k = Dyadic(k, -1)
    r_lo = _round(*_sub(a.lo, half_k), p + 16, False)
    r_hi = _round(*_sub(a.hi, half_k), p + 16, True)
    if _cmp(r_lo, Dyadic(-1, -1)) < 0 or _cmp(r_hi, _HALF) > 0:
        lo = midpoint_exp(IntervalReal(a.lo, a.lo, p)).lo
        return IntervalReal(lo, midpoint_exp(IntervalReal(a.hi, a.hi, p)).hi, p)
    scaled = IntervalReal(_exp_endpoint(r_lo, p + 8, False), _exp_endpoint(r_hi, p + 8, True), p + 8)
    if k:
        half = IntervalReal(_exp_half(p + 16, False), _exp_half(p + 16, True), p + 16)
        powed = _pow_pos(half, abs(k), p + 8)
        scaled = scaled * powed if k > 0 else scaled / powed
    return IntervalReal(_round(*scaled.lo, p, False), _round(*scaled.hi, p, True), p)


# -- reference exp: Taylor sums in interval arithmetic ---------------------------


def _pow2_ceil_log(d: Dyadic) -> int:
    """Smallest j with |d| <= 2**j (d != 0)."""
    m = abs(d.man)
    j = m.bit_length() + d.exp
    if m & (m - 1) == 0:  # exact power of two
        j -= 1
    return j


def _taylor_terms_needed(j: int, p: int) -> int:
    """Smallest N with 2 * (2**-j)^(N+1) / (N+1)! <= 2**-(p+4), for j >= 1."""
    fact = 1
    n = 0
    while True:
        n += 1
        fact *= n + 1  # (N+1)! with N = n
        need = p + 5 - j * (n + 1)
        if need <= 0 or fact >= (1 << need):
            return n


def _exp_taylor(r: IntervalReal, p: int) -> IntervalReal:
    """exp on a narrow interval with |r| <= 1/2, by Taylor plus tail bound.

    The partial sum is evaluated in interval arithmetic; the remainder after
    N terms is bounded by |r|^(N+1)/(N+1)! * 1/(1-|r|) <= 2*(2**-j)^(N+1)/(N+1)!
    once |r| <= 2**-j <= 1/2, and that bound is folded in as +-2**-(p+4).
    """
    wp = p + 16
    abs_lo = Dyadic(abs(r.lo.man), r.lo.exp)
    abs_hi = Dyadic(abs(r.hi.man), r.hi.exp)
    bigger = abs_lo if _cmp(abs_lo, abs_hi) > 0 else abs_hi
    if bigger.man == 0:
        one = Dyadic(1, 0)
        return IntervalReal(one, one, p)
    j = -_pow2_ceil_log(bigger)
    if j < 1:
        raise ValueError("_exp_taylor: argument not reduced below 1/2")
    n_terms = _taylor_terms_needed(j, p)
    one = from_int(1, wp)
    rr = IntervalReal(r.lo, r.hi, wp)
    term = one
    acc = one
    for k in range(1, n_terms + 1):
        term = reference_div(reference_mul(term, rr), from_int(k, wp))
        acc = _reference_add(acc, term)
    tail = Dyadic(1, -(p + 4))
    return IntervalReal(
        _round(*_sub(acc.lo, tail), p, False), _round(*_add(acc.hi, tail), p, True), p
    )


def reference_exp(a: IntervalReal) -> IntervalReal:
    """:func:`midpoint_exp` on a narrow input, with its core exp(r) and its
    exp(1/2) from :func:`_exp_taylor`: the same midpoint reduction and the
    same roundings, on the reference product and quotient."""
    p = a.prec
    k = _round_to_int(dyadic(*_add(a.lo, a.hi)))
    half_k = Dyadic(k, -1)
    r = IntervalReal(
        _round(*_sub(a.lo, half_k), p + 16, False),
        _round(*_sub(a.hi, half_k), p + 16, True),
        p + 16,
    )
    core = _exp_taylor(r, p + 8)
    if k == 0:
        scaled = core
    else:
        h = Dyadic(1, -1)
        half = _exp_taylor(IntervalReal(h, h, p + 16), p + 16)
        powed = _pow_pos(half, abs(k), p + 8)
        scaled = reference_mul(core, powed) if k > 0 else reference_div(core, powed)
    return IntervalReal(_round(*scaled.lo, p, False), _round(*scaled.hi, p, True), p)


# -- reference rendering: exact Fractions of the whole magnitude -----------------


def reference_round_significant(x: Fraction, digits: int) -> str:
    """Round-half-even rendering of a rational to ``digits`` significant
    digits, by exact ``Fraction`` arithmetic: the route the package's
    renderer took before its integer-only core (quadratic in the digit count
    of ``x``)."""
    if x == 0:
        return "0"
    if x < 0:
        return "-" + reference_round_significant(-x, digits)
    e = math.floor((x.numerator.bit_length() - x.denominator.bit_length()) * math.log10(2))
    while Fraction(10) ** e > x:
        e -= 1
    while x >= Fraction(10) ** (e + 1):
        e += 1
    q = x / Fraction(10) ** (e - digits + 1)
    n, r = divmod(q.numerator, q.denominator)
    if 2 * r > q.denominator or (2 * r == q.denominator and n % 2 == 1):
        n += 1
    if n == 10**digits:  # rounding carried into a new decade
        n //= 10
        e += 1
    s = str(n)
    if e >= digits - 1:
        return s + "0" * (e - digits + 1)
    if e >= 0:
        return s[: e + 1] + "." + s[e + 1 :]
    return "0." + "0" * (-e - 1) + s


# -- reference alternation: whole bounds against the exact binomial --------------


def reference_alternation(n_lo, n_hi, orders, policy):
    """``sweeps._alternation`` on the bound route it took before the ratio
    route: each decision builds the whole order-J bound 4^n/sqrt(pi n) *
    exp(D_J(n)) and compares it with C(2n, n).  Yields the same
    ``(n, (verdict, width), tag)`` decisions."""
    orders = sorted(set(orders))
    for n, b in central_binomials(n_lo, n_hi):
        for order in orders:
            if order % 2 == 1:
                pair = lambda p: (bounds.central_lower(n, order, p).value, from_int(b, p))
                yield n, _decide_less(pair, policy), f"lower({order}) !< exact"
            else:
                pair = lambda p: (from_int(b, p), bounds.central_upper(n, order, p).value)
                yield n, _decide_less(pair, policy), f"exact !< upper({order})"


def direct_alternation(n_lo, n_hi, orders, policy):
    """``sweeps._alternation`` before it decided only the top odd and even
    orders: every order gets its own exp(D_J(n)) against R(n) interval
    decision at every n, each escalating from ``policy.initial``.  Yields the
    same ``(n, (verdict, width, precision), tag)`` decisions."""
    orders = sorted(set(orders))
    for n, b in central_binomials(n_lo, n_hi):
        ratio = cache(lambda p, n=n, b=b: bounds.central_ratio(n, p, b))  # R(n) per precision
        for order in orders:
            exponent = bounds.exponent_pair(n, 2, order)
            if order % 2 == 1:
                pair = lambda p: (ivl.exp(ivl.from_rational(exponent, p)), ratio(p))
                yield n, _decide_less(pair, policy), f"lower({order}) !< exact"
            else:
                pair = lambda p: (ratio(p), ivl.exp(ivl.from_rational(exponent, p)))
                yield n, _decide_less(pair, policy), f"exact !< upper({order})"


# -- reference exponent, central ratio and scaled width -------------------------


def reference_general_exponent(s: int, r: int, order: int) -> Fraction:
    """``bounds.general_exponent`` before the integer pair: the ``Fraction``
    terms t_j(r) / s^(2j-1), each from its Bernoulli number, summed."""
    return sum(
        (
            bernoulli(2 * j)
            / (2 * j * (2 * j - 1))
            * (Fraction(1, r ** (2 * j - 1)) - 1 - Fraction(1, (r - 1) ** (2 * j - 1)))
            / s ** (2 * j - 1)
            for j in range(1, order + 1)
        ),
        Fraction(0),
    )


def reference_central_ratio(n: int, p: int, binom_value: int | None = None) -> IntervalReal:
    """``bounds.central_ratio`` before its Dyadic steps: the composed
    interval route C(2n, n) * sqrt(pi * n) * 2**(-2n)."""
    if binom_value is None:
        binom_value = central_binomial(n)
    root = sqrt(pi(p) * from_int(n, p))
    return from_int(binom_value, p) * root * exact_pow2(-2 * n, p)


def reference_scaled_width(a: IntervalReal, b: IntervalReal) -> float:
    """``interval.scaled_width`` before it skipped normalising: the wider of
    the two normalised widths over the largest endpoint magnitude."""
    wa, wb = width(a), width(b)
    w = wa if _cmp(wa, wb) >= 0 else wb
    m = Dyadic(0, 0)
    for d in (a.lo, a.hi, b.lo, b.hi):
        ad = Dyadic(abs(d.man), d.exp)
        if _cmp(ad, m) > 0:
            m = ad
    return _dyadic_ratio(w, m)


# -- reference tightness gap and a second pi series -------------------------------


def tightness_gap(x: Fraction) -> Fraction:
    """f(x) = 23/(36x) + 1/(8x) - 1/(192x^3) = 55/(72x) - 1/(192x^3): the
    Gaussian-form central exponent minus the order-2 series exponent.  The
    bounds share the prefactor 4^n/sqrt(pi n), so f(n) > 0 exactly when the
    series bound is the tighter one."""
    return Fraction(55, 72) / x - Fraction(1, 192) / x**3


def hutton_pi(p: int) -> IntervalReal:
    """Enclosure of pi from Hutton's pi/4 = 2 atan(1/3) + atan(1/7), summed
    like ``interval.pi``'s Machin series but from other arguments."""
    q = p + 16
    l3, h3 = _atan_inv_scaled(3, q)
    l7, h7 = _atan_inv_scaled(7, q)
    lo, hi = dyadic(4 * (2 * l3 + l7), -q), dyadic(4 * (2 * h3 + h7), -q)
    return IntervalReal(lo, hi, p)


def reference_atan_inv_scaled(x: int, q: int) -> tuple[int, int]:
    """``interval._atan_inv_scaled`` before its short divisions: each term
    floor(2**q / ((2i+1) x^(2i+1))) is one division of 2**q by the whole
    denominator, with the same slack of terms + tail + 1 units."""
    acc = 0
    pw = x  # x^(2i+1)
    i = 0
    while True:
        term = (1 << q) // ((2 * i + 1) * pw)
        if term == 0:
            break
        acc += -term if i & 1 else term
        pw *= x * x
        i += 1
    return acc - (i + 1), acc + (i + 1)
