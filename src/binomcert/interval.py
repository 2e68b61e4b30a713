"""Certified real arithmetic over dyadic-endpoint intervals.

An :class:`IntervalReal` is a pair of dyadic rationals (integer mantissa
times a power of two) with ``lo <= hi``.  Every operation returns an
interval guaranteed to contain the exact real result for any reals drawn
from the input intervals (containment soundness): endpoints are rounded
outward -- lo toward -inf, hi toward +inf -- to the working precision.
Dyadic endpoints keep outward rounding a pair of bit shifts, where rational
endpoints would pay a gcd normalization per operation.

Width contract: each primitive rounds each endpoint outward by at most one
unit in the last place, and sqrt/exp/pi carry explicit truncation bounds,
so for the compositions used in this package (a few multiplications, one
sqrt, one exp) the relative width at working precision p stays below
2**(-p + 8).  The test suite checks this slack empirically.

Shared state is limited to per-precision caches of pi and exp(1/2), whose
entries are immutable once stored.
"""

from __future__ import annotations

import math as _math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt
from typing import Iterator, NamedTuple

__all__ = [
    "Dyadic",
    "IntervalReal",
    "PrecisionPolicy",
    "TriState",
    "NeedsMorePrecision",
    "from_rational",
    "from_int",
    "sqrt",
    "exp",
    "pi",
    "certainly_less",
    "scaled_width",
    "render_significant",
    "render_escalating",
    "round_significant",
    "MAX_DIGITS",
    "UNDETERMINED",
]


class Dyadic(NamedTuple):
    """Value man * 2**exp; canonical form has odd man, and zero is (0, 0)."""

    man: int
    exp: int

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

    def to_float(self) -> float:
        """Nearest float, saturating to +-inf far outside float range."""
        m, e = self.man, self.exp
        if m == 0:
            return 0.0
        extra = m.bit_length() - 53
        if extra > 0:
            m >>= extra
            e += extra
        try:
            return float(m) * 2.0**e
        except OverflowError:
            return float("inf") if m > 0 else float("-inf")


def dyadic(man: int, exp: int = 0) -> Dyadic:
    return Dyadic(*_norm(man, exp))


def _norm(man: int, exp: int) -> tuple[int, int]:
    if man == 0:
        return 0, 0
    shift = (man & -man).bit_length() - 1
    if shift:
        return man >> shift, exp + shift
    return man, exp


def _cmp(a: Dyadic, b: Dyadic) -> int:
    """Exact three-way comparison of dyadic values."""
    if a.man == 0 or b.man == 0 or (a.man > 0) != (b.man > 0):
        d = (a.man > 0) - (a.man < 0) - ((b.man > 0) - (b.man < 0))
        return (d > 0) - (d < 0)
    shift = a.exp - b.exp
    am, bm = (a.man << shift, b.man) if shift >= 0 else (a.man, b.man << -shift)
    return (am > bm) - (am < bm)


def _add(a: Dyadic, b: Dyadic) -> tuple[int, int]:
    e = min(a.exp, b.exp)
    return (a.man << (a.exp - e)) + (b.man << (b.exp - e)), e


def _sub(a: Dyadic, b: Dyadic) -> tuple[int, int]:
    e = min(a.exp, b.exp)
    return (a.man << (a.exp - e)) - (b.man << (b.exp - e)), e


def _mul(a: Dyadic, b: Dyadic) -> tuple[int, int]:
    return a.man * b.man, a.exp + b.exp


def _round_down(man: int, exp: int, p: int) -> Dyadic:
    """Largest dyadic with <= p mantissa bits that is <= man * 2**exp."""
    drop = man.bit_length() - p
    if drop <= 0 or man == 0:
        return Dyadic(*_norm(man, exp))
    return Dyadic(*_norm(man >> drop, exp + drop))  # arithmetic shift floors


def _round_up(man: int, exp: int, p: int) -> Dyadic:
    drop = man.bit_length() - p
    if drop <= 0 or man == 0:
        return Dyadic(*_norm(man, exp))
    return Dyadic(*_norm(-((-man) >> drop), exp + drop))


def _div(a: Dyadic, b: Dyadic, p: int, up: bool) -> Dyadic:
    """Dyadic <= a/b, or >= a/b when ``up``, with about p significant bits (b != 0)."""
    shift = p + 2 + max(0, b.man.bit_length() - a.man.bit_length() + 1)
    num, den = a.man << shift, b.man
    if den < 0:
        num, den = -num, -den
    return Dyadic(*_norm(-((-num) // den) if up else num // den, a.exp - b.exp - shift))


class TriState(str, Enum):
    """Verdict of an interval comparison."""

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class NeedsMorePrecision(Exception):
    """The interval is too wide to pin the requested decimal digits."""


@dataclass(frozen=True)
class IntervalReal:
    """Certified enclosure [lo, hi] of a real number.

    ``prec`` is the working precision: the bit budget operations round their
    *results* to.  Endpoints themselves may carry more bits (exact integers
    are stored unrounded so comparisons against them stay exact).
    """

    lo: Dyadic
    hi: Dyadic
    prec: int

    def __post_init__(self) -> None:
        if _cmp(self.lo, self.hi) > 0:
            raise ValueError("IntervalReal: lo > hi")
        if self.prec < 2:
            raise ValueError("IntervalReal: precision must be >= 2")

    # -- inspection ---------------------------------------------------------

    def width(self) -> Dyadic:
        return Dyadic(*_norm(*_sub(self.hi, self.lo)))

    def rel_width(self) -> float:
        """Width divided by the smaller endpoint magnitude, as a float.

        Computed from mantissa ratio and exponent difference so it stays
        finite even when the endpoints themselves overflow floats.
        """
        a = Dyadic(abs(self.lo.man), self.lo.exp)
        b = Dyadic(abs(self.hi.man), self.hi.exp)
        return _dyadic_ratio(self.width(), a if _cmp(a, b) <= 0 else b)

    def contains(self, q: Fraction | int) -> bool:
        q = Fraction(q)
        return self.lo.as_fraction() <= q <= self.hi.as_fraction()

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __repr__(self) -> str:
        return f"IntervalReal[{self.lo.to_float()!r}, {self.hi.to_float()!r}; p={self.prec}]"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "IntervalReal") -> "IntervalReal":
        p = max(self.prec, other.prec)
        return IntervalReal(
            _round_down(*_add(self.lo, other.lo), p),
            _round_up(*_add(self.hi, other.hi), p),
            p,
        )

    def __sub__(self, other: "IntervalReal") -> "IntervalReal":
        p = max(self.prec, other.prec)
        return IntervalReal(
            _round_down(*_sub(self.lo, other.hi), p),
            _round_up(*_sub(self.hi, other.lo), p),
            p,
        )

    def __neg__(self) -> "IntervalReal":
        return IntervalReal(
            Dyadic(-self.hi.man, self.hi.exp), Dyadic(-self.lo.man, self.lo.exp), self.prec
        )

    def __mul__(self, other: "IntervalReal") -> "IntervalReal":
        p = max(self.prec, other.prec)
        _one = Dyadic(1, 0)
        if other.lo == other.hi == _one:  # exact multiplicative identity
            return self if self.prec == p else IntervalReal(self.lo, self.hi, p)
        if self.lo == self.hi == _one:
            return other if other.prec == p else IntervalReal(other.lo, other.hi, p)
        if other.lo == other.hi:  # exact scalar: two products suffice
            a = Dyadic(*_norm(*_mul(self.lo, other.lo)))
            b = Dyadic(*_norm(*_mul(self.hi, other.lo)))
            if _cmp(a, b) > 0:
                a, b = b, a
            return IntervalReal(_round_down(*a, p), _round_up(*b, p), p)
        if self.lo == self.hi:
            return other * self
        cands = [
            Dyadic(*_norm(*_mul(a, b)))
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        lo = hi = cands[0]
        for c in cands[1:]:
            if _cmp(c, lo) < 0:
                lo = c
            if _cmp(c, hi) > 0:
                hi = c
        return IntervalReal(_round_down(*lo, p), _round_up(*hi, p), p)

    def __truediv__(self, other: "IntervalReal") -> "IntervalReal":
        p = max(self.prec, other.prec)
        if other.lo.man <= 0 <= other.hi.man:
            raise ZeroDivisionError("interval division: divisor encloses zero")
        if other.lo == other.hi:  # exact divisor
            a, b = self.lo, self.hi
            if other.lo.man < 0:
                a, b = b, a
            return IntervalReal(_div(a, other.lo, p, False), _div(b, other.lo, p, True), p)
        los = [_div(a, b, p, False) for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        his = [_div(a, b, p, True) for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        lo, hi = los[0], his[0]
        for c in los[1:]:
            if _cmp(c, lo) < 0:
                lo = c
        for c in his[1:]:
            if _cmp(c, hi) > 0:
                hi = c
        return IntervalReal(_round_down(*lo, p), _round_up(*hi, p), p)

    # -- set operations -----------------------------------------------------

    def hull(self, other: "IntervalReal") -> "IntervalReal":
        lo = self.lo if _cmp(self.lo, other.lo) <= 0 else other.lo
        hi = self.hi if _cmp(self.hi, other.hi) >= 0 else other.hi
        return IntervalReal(lo, hi, max(self.prec, other.prec))


def _dyadic_ratio(num: Dyadic, den: Dyadic) -> float:
    """num/den as a saturating float, via mantissa ratio plus exponent."""
    if num.man == 0:
        return 0.0
    if den.man == 0:
        return float("inf")
    sn = max(0, num.man.bit_length() - 53)
    sd = max(0, den.man.bit_length() - 53)
    ratio = float(num.man >> sn) / float(den.man >> sd)
    try:
        return _math.ldexp(ratio, (num.exp + sn) - (den.exp + sd))
    except OverflowError:
        return float("inf")


def scaled_width(a: IntervalReal, b: IntervalReal) -> float:
    """Precision figure for a comparison of two enclosures: the wider of the
    two widths divided by the largest endpoint magnitude.  Unlike a relative
    width this stays finite when one operand brackets zero."""
    wa, wb = a.width(), b.width()
    w = wa if _cmp(wa, wb) >= 0 else wb
    m = Dyadic(0, 0)
    for d in (a.lo, a.hi, b.lo, b.hi):
        ad = Dyadic(abs(d.man), d.exp)
        if _cmp(ad, m) > 0:
            m = ad
    return _dyadic_ratio(w, m)


def from_int(i: int, p: int = 53) -> IntervalReal:
    """Zero-width interval holding an exact integer (kept unrounded)."""
    d = dyadic(i)
    return IntervalReal(d, d, p)


def exact_pow2(e: int, p: int = 53) -> IntervalReal:
    """Zero-width interval holding 2**e exactly, for any sign of e."""
    d = Dyadic(1, e)
    return IntervalReal(d, d, p)


def from_rational(q: Fraction, p: int) -> IntervalReal:
    """Tightest enclosure of q at precision p; exact when q is dyadic."""
    if p < 2:
        raise ValueError("from_rational: precision must be >= 2")
    num, den = q.numerator, q.denominator
    if den & (den - 1) == 0:  # power of two: exact
        d = dyadic(num, -(den.bit_length() - 1))
        return IntervalReal(d, d, p)
    shift = p + 2 + max(0, den.bit_length() - abs(num).bit_length() + 1)
    scaled = num << shift
    lo = _round_down(scaled // den, -shift, p)
    hi = _round_up(-((-scaled) // den), -shift, p)
    return IntervalReal(lo, hi, p)


def certainly_less(a: IntervalReal, b: IntervalReal) -> TriState:
    """YES iff every value of a is below every value of b; NO for the reverse."""
    if _cmp(a.hi, b.lo) < 0:
        return TriState.YES
    if _cmp(b.hi, a.lo) < 0:
        return TriState.NO
    return TriState.UNKNOWN


# -- square root -------------------------------------------------------------


def _sqrt(d: Dyadic, p: int, up: bool) -> Dyadic:
    """Dyadic <= sqrt(d), or >= sqrt(d) when ``up``, with about p + 2 bits."""
    if d.man == 0:
        return Dyadic(0, 0)
    f = (d.man.bit_length() + d.exp) // 2 - (p + 2)
    shift = d.exp - 2 * f
    if shift >= 0:
        n = d.man << shift
    else:
        n = -((-d.man) >> -shift) if up else d.man >> -shift  # ceil or floor
    r = isqrt(n)
    if up and r * r < n:
        r += 1
    return Dyadic(*_norm(r, f))


def sqrt(a: IntervalReal) -> IntervalReal:
    """Containment-sound square root via integer isqrt on shifted mantissas.

    Soundness: with n = floor(v * 4**-f), isqrt(n) * 2**f <= sqrt(v); the
    ceiling variant bounds from above.  Checked in tests by squaring the
    returned endpoints.
    """
    if a.lo.man < 0:
        raise ValueError("sqrt: interval extends below zero")
    p = a.prec
    # endpoints come back with ~p+2 mantissa bits; requantizing to p would
    # only widen, so keep them (prec still governs downstream rounding)
    return IntervalReal(_sqrt(a.lo, p, False), _sqrt(a.hi, p, True), p)


# -- pi ----------------------------------------------------------------------

# Arctangent decompositions of pi/4 as (coefficient, reciprocal-argument):
# the classic 4*atan(1/5) - atan(1/239) plus an independent cross-check form.
_MACHIN = ((4, 5), (-1, 239))
_HUTTON = ((2, 3), (1, 7))

_pi_cache: dict[tuple[int, tuple], IntervalReal] = {}


def _atan_inv_scaled(x: int, q: int) -> tuple[int, int, int]:
    """Bounds l <= atan(1/x) * 2**q <= h plus the number of terms used.

    Alternating series sum (-1)^i / ((2i+1) x^(2i+1)): the truncation error
    is bounded by the first omitted term, and every floor-divided term is off
    by less than one unit, so the total slack is terms + tail + 1 units.
    """
    acc = 0
    xx = x * x
    pw = x  # x^(2i+1)
    i = 0
    while True:
        term = (1 << q) // ((2 * i + 1) * pw)
        if term == 0:
            break
        acc += -term if i & 1 else term
        pw *= xx
        i += 1
    slack = i + 1  # i floor errors, tail < 1 unit
    return acc - slack, acc + slack, i


def _pi_from_formula(p: int, formula: tuple) -> IntervalReal:
    q = p + 16
    lo_units = hi_units = 0
    for coeff, x in formula:
        l, h, _ = _atan_inv_scaled(x, q)
        if coeff >= 0:
            lo_units += coeff * l
            hi_units += coeff * h
        else:
            lo_units += coeff * h
            hi_units += coeff * l
    # formula encodes pi/4; width stays ~2**(-p-8), far under the 2**(-p+2)
    # contract, so endpoints are kept unquantized
    return IntervalReal(
        Dyadic(*_norm(4 * lo_units, -q)), Dyadic(*_norm(4 * hi_units, -q)), p
    )


def pi(p: int, _formula: tuple = _MACHIN) -> IntervalReal:
    """Enclosure of pi of width <= 2**(-p+2), from a Machin-style arctan sum."""
    if p < 2:
        raise ValueError("pi: precision must be >= 2")
    key = (p, _formula)
    got = _pi_cache.get(key)
    if got is None:
        got = _pi_cache[key] = _pi_from_formula(p, _formula)
    return got


# -- exponential ---------------------------------------------------------------

_exp_half_cache: dict[int, IntervalReal] = {}


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
        _round_down(*_sub(acc.lo, tail), p), _round_up(*_add(acc.hi, tail), p), p
    )


def _exp_half(p: int) -> IntervalReal:
    got = _exp_half_cache.get(p)
    if got is None:
        h = Dyadic(1, -1)
        got = _exp_half_cache[p] = _exp_taylor(IntervalReal(h, h, p + 8), p + 8)
    return got


def _pow_pos(base: IntervalReal, k: int, p: int) -> IntervalReal:
    """base**k for k >= 1 and base > 0, monotone so endpoints power separately."""
    out = base
    for bit in bin(k)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return IntervalReal(_round_down(*out.lo, p), _round_up(*out.hi, p), p)


def _round_to_int(d: Dyadic) -> int:
    """Nearest integer to a dyadic (ties toward +inf; any choice is sound here)."""
    if d.exp >= 0:
        return d.man << d.exp
    return (d.man + (1 << (-d.exp - 1))) >> -d.exp


def exp(a: IntervalReal) -> IntervalReal:
    """Containment-sound exponential.

    Argument reduction writes a = k*(1/2) + r with |r| <= 1/4 against a cached
    enclosure of exp(1/2), avoiding any need for a certified log 2; exp(r)
    comes from the bounded Taylor sum.  Sound for |a| up to far beyond the
    |a| <= 64 this package ever evaluates.
    """
    p = a.prec
    k = _round_to_int(Dyadic(*_norm(*_add(a.lo, a.hi))))  # nearest int to 2*mid
    half_k = Dyadic(k, -1)
    r = IntervalReal(
        _round_down(*_sub(a.lo, half_k), p + 16),
        _round_up(*_sub(a.hi, half_k), p + 16),
        p + 16,
    )
    rmax = max(abs(r.lo.as_fraction()), abs(r.hi.as_fraction()))
    if rmax > Fraction(1, 2):
        # wide input: exp is monotone, take the hull of the endpoint images
        lo_iv = IntervalReal(a.lo, a.lo, p)
        hi_iv = IntervalReal(a.hi, a.hi, p)
        return exp(lo_iv).hull(exp(hi_iv))
    core = _exp_taylor(r, p + 8)
    if k == 0:
        scaled = core
    else:
        half = _exp_half(p + 8)
        powed = _pow_pos(half, abs(k), p + 8)
        if k > 0:
            scaled = core * powed
        else:
            scaled = core / powed
    return IntervalReal(_round_down(*scaled.lo, p), _round_up(*scaled.hi, p), p)


# -- precision policy ----------------------------------------------------------


@dataclass(frozen=True)
class PrecisionPolicy:
    """Escalation schedule: start at ``initial`` bits, double until
    ``maximum``; a comparison still undecided at ``maximum`` is reported as
    undecided, never guessed."""

    initial: int = 64
    maximum: int = 512

    def __post_init__(self) -> None:
        if self.initial < 2 or self.initial > self.maximum:
            raise ValueError("PrecisionPolicy: need 2 <= initial <= maximum")

    def precisions(self) -> Iterator[int]:
        p = self.initial
        while True:
            yield p
            if p >= self.maximum:
                return
            p = min(2 * p, self.maximum)


DEFAULT_POLICY = PrecisionPolicy()


# -- decimal rendering ---------------------------------------------------------


MAX_DIGITS = 4300  # Python's default int-to-str digit limit (sys.int_info)


def round_significant(x: Fraction, digits: int) -> str:
    """Exact round-half-even rendering of a rational to ``digits`` significant
    digits, e.g. 14 digits of 42.0000203957... -> '42.000020395749'.

    The result is the multiple of ``ulp = 10**(e - digits + 1)`` nearest to
    ``x``, where ``e`` is the decimal exponent of the leading digit of that
    result (a carry into a new decade raises ``e`` by one, as in 999.96 ->
    '1000' at 3 digits).  An integer rendering pads with zeros, so the string
    alone does not show its precision: '12300' is 12345 at 3 digits (ulp 100),
    and a reader must take the ulp from ``digits`` and ``e``, not from the
    trailing zeros.  Magnitudes beyond Python's int-to-str digit limit are
    fine: the exponent comes from ``bit_length``, and only the ``digits``
    leading digits are ever converted to a string, so ``digits`` itself may
    not exceed that limit, :data:`MAX_DIGITS`.
    """
    if digits < 1:
        raise ValueError("round_significant: digits must be >= 1")
    if digits > MAX_DIGITS:
        raise ValueError(
            f"round_significant: digits must be <= {MAX_DIGITS}, "
            "Python's int-to-str conversion limit"
        )
    if x == 0:
        return "0"
    if x < 0:
        return "-" + round_significant(-x, digits)
    # log10(2) * (bit-length difference) is within one of the true exponent;
    # the two loops below make it exact
    e = _math.floor((x.numerator.bit_length() - x.denominator.bit_length()) * _math.log10(2))
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


def render_significant(iv: IntervalReal, digits: int) -> str:
    """Print an interval to ``digits`` significant digits, round-half-even.

    Refuses with :class:`NeedsMorePrecision` unless both endpoints round to
    the same string ``s``.  That guarantees the contract the tables rest on:
    with ``v`` the value of ``s`` and ``ulp = 10**(e - digits + 1)``, ``e``
    the decimal exponent of the leading digit of ``v``, the slab
    ``[v - ulp/2, v + ulp/2]`` contains the whole interval.  The ulp must be
    taken from ``digits``: an integer rendering such as '12300' at 3 digits
    has ulp 100, which its trailing zeros do not tell (see
    :func:`round_significant`).
    """
    if iv.lo.man == 0 and iv.hi.man == 0:
        return "0"
    if iv.lo.man <= 0 <= iv.hi.man:
        raise NeedsMorePrecision("interval straddles zero; no leading digit")
    lo_s = round_significant(iv.lo.as_fraction(), digits)
    hi_s = round_significant(iv.hi.as_fraction(), digits)
    if lo_s != hi_s:
        raise NeedsMorePrecision(
            f"interval spans [{lo_s}, {hi_s}] at {digits} significant digits"
        )
    return lo_s


UNDETERMINED = "?"  # printed for a value no precision of the policy pins down


def render_escalating(make, digits: int, policy: PrecisionPolicy = DEFAULT_POLICY) -> str:
    """Render the interval ``make(p)`` at each precision ``p`` of ``policy``
    until its ``digits`` significant digits are proved (Ziv's strategy, ACM
    TOMS 17(3), 1991); :data:`UNDETERMINED` if the policy runs out first."""
    for p in policy.precisions():
        try:
            return render_significant(make(p), digits)
        except NeedsMorePrecision:
            continue
    return UNDETERMINED
