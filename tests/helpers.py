"""Shared oracle helpers for the test suite.

The oracles are deliberately independent of the package's own arithmetic:
mpmath for transcendental references, Akiyama-Tanigawa for Bernoulli numbers,
``math.comb``/``Fraction`` for exact values.  Two slow routes that the
package replaced live here too, so a test can check that the fast path agrees
with them: :func:`reference_exp`, which runs ``interval.exp``'s Taylor sum in
the package's interval arithmetic, :func:`reference_round_significant`,
which rounds to significant digits with exact ``Fraction``s, and
:func:`reference_alternation`, which decides the alternation check on whole
bounds.
"""

import math
from fractions import Fraction

import mpmath

from binomcert import bounds
from binomcert.combinatorics import central_binomials
from binomcert.interval import (
    Dyadic,
    IntervalReal,
    _add,
    _cmp,
    _norm,
    _pow_pos,
    _round,
    _round_to_int,
    _sub,
    from_int,
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
    assert iv.lo.as_fraction() <= hi, f"{iv} entirely above oracle {x}"
    assert lo <= iv.hi.as_fraction(), f"{iv} entirely below oracle {x}"


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
        term = term * rr / from_int(k, wp)
        acc = acc + term
    tail = Dyadic(1, -(p + 4))
    return IntervalReal(
        _round(*_sub(acc.lo, tail), p, False), _round(*_add(acc.hi, tail), p, True), p
    )


def reference_exp(a: IntervalReal) -> IntervalReal:
    """``interval.exp`` on a narrow input, with its core exp(r) and its
    exp(1/2) from :func:`_exp_taylor`: the same argument reduction and the
    same roundings as the fast path."""
    p = a.prec
    k = _round_to_int(Dyadic(*_norm(*_add(a.lo, a.hi))))
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
        scaled = core * powed if k > 0 else core / powed
    return IntervalReal(_round(*scaled.lo, p, False), _round(*scaled.hi, p, True), p)


# -- reference rendering: exact Fractions of the whole magnitude -----------------


def reference_round_significant(x: Fraction, digits: int) -> str:
    """Round-half-even rendering of a rational to ``digits`` significant
    digits, by exact ``Fraction`` arithmetic: the route
    ``interval.round_significant`` took before its integer-only core
    (quadratic in the digit count of ``x``)."""
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
