"""Certified real arithmetic over dyadic-endpoint intervals.

An :class:`IntervalReal` is a pair of dyadic rationals (integer mantissa
times a power of two) with ``lo <= hi``.  Every operation returns an
interval guaranteed to contain the exact real result for any reals drawn
from the input intervals (containment soundness): endpoints are rounded
outward -- lo toward -inf, hi toward +inf -- to the working precision.
Dyadic endpoints keep outward rounding a pair of bit shifts, where rational
endpoints would pay a gcd normalization per operation.

Operand contract: products and quotients take positive enclosures (lo > 0),
one outward-rounded formula each, and refuse others with ``ValueError``;
differences and comparisons take any sign.

Width contract: each primitive rounds each endpoint outward by at most one
unit in the last place, and sqrt, exp and pi carry explicit truncation
bounds (exp's is proved in its docstring).  Each endpoint of the integer
power b**e of :func:`power`, taken by :func:`_pow` at w = p + bits(e) + 8
bits, lies within a factor (1 + 2**(1-w))**(2e-2) < exp(2**(-p-6)) of b**e
(proved in :func:`_pow`'s docstring).  So for the compositions used in this
package (a few multiplications, one sqrt, one exp of an exact argument of
any size, one quotient of two powers) the relative width at working
precision p stays below 2**(-p + 8).  An argument x rounded to p bits
before exp, as a bound's exponent is, adds up to one p-bit ulp of x, a
relative 2**(1-p) |x|, so a bound's relative width stays below
2**(-p + 8) (1 + |x|).  The test suite checks this slack empirically.

Shared state is limited to a per-precision cache of pi and a small cache of
the powers of five that decimal rendering divides by, whose entries are
immutable once stored.
"""

from __future__ import annotations

import math as _math
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterator, NamedTuple

__all__ = [
    "Dyadic",
    "IntervalReal",
    "PrecisionPolicy",
    "TriState",
    "NeedsMorePrecision",
    "DomainError",
    "from_rational",
    "from_int",
    "sqrt",
    "exp",
    "pi",
    "power",
    "certainly_less",
    "scaled_width",
    "render_significant",
    "render_escalating",
    "refuse_unprintable",
    "MAX_DIGITS",
    "MAX_DECIMAL_EXPONENT",
    "MAX_PRECISION",
    "UNDETERMINED",
]


class Dyadic(NamedTuple):
    """Value man * 2**exp; canonical form has odd man, and zero is (0, 0)."""

    man: int
    exp: int


def dyadic(man: int, exp: int = 0) -> Dyadic:
    """The canonical :class:`Dyadic` of man * 2**exp."""
    if man == 0:
        return Dyadic(0, 0)
    shift = (man & -man).bit_length() - 1
    if shift:
        return Dyadic(man >> shift, exp + shift)
    return Dyadic(man, exp)


def _cmp(a: Dyadic, b: Dyadic) -> int:
    """Exact three-way comparison of dyadic values.

    Magnitudes of one sign are ordered by their leading-bit positions
    ``bit_length() + exp`` first; only a tie shifts a mantissa, by at most
    the longer one's length, so no integer as wide as the exponent gap is
    ever built."""
    am, bm = a.man, b.man
    if am == 0 or bm == 0 or (am > 0) != (bm > 0):
        d = (am > 0) - (am < 0) - ((bm > 0) - (bm < 0))
        return (d > 0) - (d < 0)
    shift = a.exp - b.exp
    lead = am.bit_length() - bm.bit_length() + shift
    if lead:
        return (1 if lead > 0 else -1) if am > 0 else (-1 if lead > 0 else 1)
    if shift >= 0:
        am <<= shift
    else:
        bm <<= -shift
    return (am > bm) - (am < bm)


def _sub(a: Dyadic, b: Dyadic) -> tuple[int, int]:
    e = min(a.exp, b.exp)
    return (a.man << (a.exp - e)) - (b.man << (b.exp - e)), e


def _near(a: Dyadic, b: Dyadic, bits: int) -> Dyadic:
    """b, or +-2**(t - 1) of b's sign when 0 < |b| < 2**t, t the lower of a's
    last bit and ``bits`` below a's leading bit.  a != 0 is a multiple of
    2**t, so a - b and a minus the stand-in lie strictly between the same
    multiples of 2**t, with no power of two between: they share the leading
    bit and the floor and ceiling on the grid of their ``bits`` - 1 leading
    bits, and no integer as wide as the exponent gap is built."""
    if a.exp - b.exp > bits and a.man and b.man:
        t = min(a.exp, a.man.bit_length() + a.exp - bits)
        if b.man.bit_length() + b.exp <= t:
            return Dyadic(1 if b.man > 0 else -1, t - 1)
    return b


def _mul(a: Dyadic, b: Dyadic) -> tuple[int, int]:
    return a.man * b.man, a.exp + b.exp


def _shift(man: int, k: int, up: bool) -> int:
    """floor(man / 2**k), or the ceiling when ``up``; exact, man << -k, when
    k <= 0.  The package's one directed shift."""
    if k <= 0:
        return man << -k
    return -(-man >> k) if up else man >> k  # arithmetic shift floors; negating around it ceils


def _round(man: int, exp: int, p: int, up: bool) -> Dyadic:
    """Largest dyadic with <= p mantissa bits that is <= man * 2**exp, or the
    smallest that is >= it when ``up``."""
    drop = max(0, man.bit_length() - p)
    return dyadic(_shift(man, drop, up), exp + drop)


def _quotient(num: int, den: int, p: int) -> tuple[int, int, int]:
    """q = floor(num * 2**-e / den) and the remainder r >= 0 of that division,
    its shift on the numerator, or on the divisor when negative.

    The shift p + 3 + bits(den) - bits(num) leaves q with p + 3 or p + 4 bits
    at any operand lengths (a floor below zero may carry one more), so the
    division costs about p times the divisor's length: a p-bit quotient needs
    only the leading bits of its operands (Brent & Zimmermann, *Modern
    Computer Arithmetic*, 2010, section 1.4).  Rounding q, or q + 1 when r > 0,
    to p bits gives the floor, or ceiling, of num/den on the p-bit grid."""
    shift = p + 3 + den.bit_length() - num.bit_length()
    if shift >= 0:
        q, r = divmod(num << shift, den)
    else:
        q, r = divmod(num, den << -shift)
    return q, r, -shift


def _div(a: Dyadic, b: Dyadic, p: int, up: bool) -> Dyadic:
    """a/b rounded down, or up when ``up``, to p significant bits (b > 0)."""
    q, r, e = _quotient(a.man, b.man, p)
    return _round(q + 1 if up and r else q, a.exp - b.exp + e, p, up)


class TriState(str, Enum):
    """Verdict of an interval comparison."""

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class NeedsMorePrecision(Exception):
    """The interval is too wide to pin the requested decimal digits."""


class DomainError(ValueError):
    """An argument outside what a function accepts, from a check that
    command-line input can reach; the command line exits 64 on it."""


class IntervalReal:
    """Certified enclosure [lo, hi] of a real number.

    ``prec`` is the working precision: the bit budget operations round their
    *results* to.  Endpoints themselves may carry more bits (exact integers
    are stored unrounded so comparisons against them stay exact).

    ``*`` and ``/`` need lo > 0 on both operands; ``-`` takes any sign.

    The constructor checks lo <= hi and prec >= 2; from_int, exact_pow2,
    from_rational, power and pi check prec >= 2 before any work.  Results
    ordered by construction (of ``-``, ``*``, ``/``, from_rational, from_int,
    exact_pow2, power, sqrt and exp) come from the private ``_ordered``,
    which checks neither: its caller guarantees both.

    An interval is immutable: setting or deleting a field raises
    ``AttributeError``.  Two intervals are equal, and hash equal, when their
    (lo, hi, prec) are; an interval equals nothing else, a tuple neither.
    """

    def __init__(self, lo: Dyadic, hi: Dyadic, prec: int) -> None:
        if _cmp(lo, hi) > 0:
            raise ValueError("IntervalReal: lo > hi")
        _check_precision(prec)
        self.__dict__.update(lo=lo, hi=hi, prec=prec)  # no __setattr__, as in _ordered

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"IntervalReal is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return type(other) is IntervalReal and self.__dict__ == other.__dict__  # lo, hi, prec

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.prec))

    # -- inspection ---------------------------------------------------------

    def __repr__(self) -> str:
        lo, hi = _dyadic_ratio(self.lo, _ONE), _dyadic_ratio(self.hi, _ONE)
        return f"IntervalReal[{lo!r}, {hi!r}; p={self.prec}]"

    # -- arithmetic ---------------------------------------------------------

    def __sub__(self, other: "IntervalReal") -> "IntervalReal":
        p = max(self.prec, other.prec)
        (lo, hi), (olo, ohi) = (self.lo, self.hi), (other.lo, other.hi)
        return _ordered(  # lo - ohi <= hi - olo, each rounded outward
            _round(*_sub(_near(ohi, lo, p + 2), _near(lo, ohi, p + 2)), p, False),
            _round(*_sub(_near(olo, hi, p + 2), _near(hi, olo, p + 2)), p, True),
            p,
        )

    def __mul__(self, other: "IntervalReal") -> "IntervalReal":
        _require_positive(self, other)
        p = max(self.prec, other.prec)
        if other.lo == other.hi == _ONE:  # exact identity keeps the other's unrounded endpoints
            return self if self.prec == p else _ordered(self.lo, self.hi, p)  # ordered already
        if self.lo == self.hi == _ONE:
            return other if other.prec == p else _ordered(other.lo, other.hi, p)
        return _ordered(  # lo * other.lo <= hi * other.hi on positive operands
            _round(*_mul(self.lo, other.lo), p, False), _round(*_mul(self.hi, other.hi), p, True), p
        )

    def __truediv__(self, other: "IntervalReal") -> "IntervalReal":
        _require_positive(self, other)
        p = max(self.prec, other.prec)
        return _ordered(  # lo / other.hi <= hi / other.lo on positive operands
            _div(self.lo, other.hi, p, False), _div(self.hi, other.lo, p, True), p
        )


_ONE = Dyadic(1, 0)


def _check_precision(p: int) -> None:
    """The one precision rule: every interval has p >= 2 bits."""
    if p < 2:
        raise ValueError("IntervalReal: precision must be >= 2")


def _ordered(lo: Dyadic, hi: Dyadic, p: int) -> IntervalReal:
    """``IntervalReal(lo, hi, p)`` without its checks (see its docstring)."""
    iv = object.__new__(IntervalReal)
    fields = iv.__dict__  # immutable: no __setattr__
    fields["lo"], fields["hi"], fields["prec"] = lo, hi, p
    return iv


def _require_positive(a: IntervalReal, b: IntervalReal) -> None:
    """The soundness condition of the one-formula product and quotient."""
    if a.lo.man <= 0 or b.lo.man <= 0:
        raise ValueError("interval product or quotient: operands must be positive")


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
        return float("inf") if num.man > 0 else float("-inf")


def _width(iv: IntervalReal) -> Dyadic:
    """hi - lo, to the 53 leading bits that :func:`_dyadic_ratio` reads: an
    endpoint far below the other is replaced by its stand-in from
    :func:`_near` at 64 bits, which keeps those bits and their floor."""
    lo, hi = iv.lo, iv.hi
    return Dyadic(*_sub(_near(lo, hi, 64), _near(hi, lo, 64)))


def scaled_width(a: IntervalReal, b: IntervalReal) -> float:
    """Precision figure for a comparison of two enclosures: the wider of the
    two widths divided by the largest endpoint magnitude.  Unlike a relative
    width this stays finite when one operand brackets zero.  The largest
    magnitude on [lo, hi] is the larger of hi and -lo."""
    wa, wb = _width(a), _width(b)
    m = a.hi
    for d in (Dyadic(-a.lo.man, a.lo.exp), b.hi, Dyadic(-b.lo.man, b.lo.exp)):
        if _cmp(d, m) > 0:
            m = d
    return _dyadic_ratio(wa if _cmp(wa, wb) >= 0 else wb, m)


def from_int(i: int, p: int) -> IntervalReal:
    """Zero-width interval holding an exact integer (kept unrounded)."""
    _check_precision(p)
    d = dyadic(i)
    return _ordered(d, d, p)  # zero width


def exact_pow2(e: int, p: int) -> IntervalReal:
    """Zero-width interval holding 2**e exactly, for any sign of e."""
    _check_precision(p)
    d = Dyadic(1, e)
    return _ordered(d, d, p)  # zero width


def from_rational(q: Fraction | tuple[int, int], p: int) -> IntervalReal:
    """Tightest enclosure of q, a ``Fraction`` or a pair (num, den > 0), at
    precision p: the floor and ceiling of q on the p-bit grid, exact when den
    is a power of two.  The quotient of :func:`_quotient` has p + 3 or p + 4
    bits at any operand lengths, so a numerator of millions of bits costs
    one division linear in its length.  A pair is taken without a gcd:
    nested floors and ceilings give the Dyadics of its reduced form, unless
    that is a dyadic of over p bits, which the reduced form keeps."""
    _check_precision(p)
    num, den = q if type(q) is tuple else (q.numerator, q.denominator)
    if den & (den - 1) == 0:  # power of two: exact
        d = dyadic(num, -(den.bit_length() - 1))
        return _ordered(d, d, p)  # zero width
    floor, rest, e = _quotient(num, den, p)
    lo = _round(floor, e, p, False)
    hi = _round(floor + 1 if rest else floor, e, p, True)
    return _ordered(lo, hi, p)  # floor <= ceiling, each rounded outward


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
    n = _shift(d.man, 2 * f - d.exp, up)  # d * 4**-f, floored or ceiled
    r = isqrt(n)
    if up and r * r < n:
        r += 1
    return dyadic(r, f)


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
    return _ordered(_sqrt(a.lo, p, False), _sqrt(a.hi, p, True), p)  # sqrt is monotone


# -- pi ----------------------------------------------------------------------


def _atan_inv_scaled(x: int, q: int) -> tuple[int, int]:
    """Bounds l <= atan(1/x) * 2**q <= h.

    Alternating series sum (-1)^i / ((2i+1) x^(2i+1)): the truncation error
    is bounded by the first omitted term, and every floor-divided term is off
    by less than one unit, so the total slack is terms + tail + 1 units.
    Each term is floor(floor(2**q / x^(2i+1)) / (2i+1)) = floor(2**q /
    ((2i+1) x^(2i+1))), the running quotient divided by x^2 once per term:
    short divisions, none by a power of x as long as 2**q.
    """
    acc = 0
    xx = x * x
    quot = (1 << q) // x  # floor(2**q / x^(2i+1))
    i = 0
    while True:
        term = quot // (2 * i + 1)
        if term == 0:
            break
        acc += -term if i & 1 else term
        quot //= xx
        i += 1
    slack = i + 1  # i floor errors, tail < 1 unit
    return acc - slack, acc + slack


@lru_cache(maxsize=None)
def pi(p: int) -> IntervalReal:
    """Enclosure of pi of width <= 2**(-p+2), from Machin's arctan sum
    pi/4 = 4 atan(1/5) - atan(1/239); cached per precision."""
    _check_precision(p)
    q = p + 16
    l5, h5 = _atan_inv_scaled(5, q)
    l239, h239 = _atan_inv_scaled(239, q)
    # width stays ~2**(-p-8), far under the 2**(-p+2) contract, so endpoints
    # are kept unquantized
    return IntervalReal(dyadic(4 * (4 * l5 - h239), -q), dyadic(4 * (4 * h5 - l239), -q), p)


# -- exponential ---------------------------------------------------------------

_EXP_GUARD_BITS = 30  # fixed-point bits beyond the precision asked of _exp_endpoint


def _exp_endpoint(x: Dyadic, p: int, up: bool) -> Dyadic:
    """Dyadic <= exp(x), or >= exp(x) when ``up``, with p bits, for |x| <= 1/2.

    One Taylor sum in plain integers, in units of 2**-(p + 30); the error
    bound is proved in :func:`exp`.
    """
    if x.man == 0:
        return Dyadic(1, 0)
    w = p + _EXP_GUARD_BITS
    big_x = _shift(x.man, -(w + x.exp), up)  # ceil or floor of x * 2**w
    acc = term = 1 << w
    k = 0
    while term:
        k += 1
        term = ((term * big_x) >> w) // k  # floor(term * X / (k * 2**w))
        acc += term
    slack = 2 * k + 2
    return _round(acc + slack if up else acc - slack, -w, p, up)


def _pow(b: Dyadic, e: int, w: int, up: bool) -> Dyadic:
    """Dyadic <= b**e, or >= b**e when ``up``, for b > 0 and e >= 1.

    Left-to-right binary powering: for each bit of e after the leading one,
    a square, then a product by b where the bit is set, each cut to w bits
    on the endpoint's side by :func:`_shift`.  The loop keeps a raw
    (mantissa, exponent) pair and normalises once at the end, to the Dyadic
    that :func:`_round` at each step gives: rounding to w bits depends only
    on the value.

    *Claim.* The result lies on its side of b**e, within a factor
    (1 + u)**(2e - 2), u = 2**(1-w).

    *Proof.* Squaring and multiplying by b are monotone on positive numbers,
    and each rounding moves away from b**e, so the bound stays on its side.
    One rounding to w bits is a factor of at most 1 + u.  Let f be the
    exponent of the bits read so far and (1 + u)**c the factor of the bound
    on b**f.  At f = 1 the bound is b itself, c = 0.  A square takes (f, c)
    to (2f, 2c + 1) and a product by b takes it to (f + 1, c + 1), so
    c <= 2f - 2 holds after each step: 2c + 1 <= 4f - 3 <= 2(2f) - 2, and a
    product follows a square, whose c <= 4f - 3 gives c + 1 <= 2(2f + 1) - 4.
    QED  At w >= p + bits(e) + 8, (1 + u)**(2e - 2) < exp(2**(2-w) e)
    < exp(2**(-p-6)).
    """
    man, ex = b
    for step in bin(e)[3:].replace("1", "01"):  # "0": square, "1": times b
        fm, fe = (man, ex) if step == "0" else b
        man, ex = man * fm, ex + fe
        drop = max(0, man.bit_length() - w)
        man, ex = _shift(man, drop, up), ex + drop
    return dyadic(man, ex)


def power(b: int, e: int, p: int) -> IntervalReal:
    """Enclosure of b**e, for integers b >= 1 and e >= 1, at precision p.

    Its endpoints are the bounds of :func:`_pow` below and above b**e at
    w = p + bits(e) + 8 bits, each within a factor exp(2**(-p-6)) of it, so
    no power grows with e log2(b).  They keep their w bits, as sqrt's keep
    theirs; the next operation rounds to p."""
    _check_precision(p)
    if b < 1 or e < 1:
        raise ValueError("power: need b >= 1 and e >= 1")
    w = p + e.bit_length() + 8
    d = dyadic(b)
    return _ordered(_pow(d, e, w, False), _pow(d, e, w, True), p)  # below <= above


def _exp_squared(x: Dyadic, p: int, up: bool) -> Dyadic:
    """The w-bit bound of :func:`_exp` before its rounding to p bits, within a
    factor exp(2**(-p-5)) of exp(x); the steps and the proof are in :func:`exp`."""
    m = max(0, x.man.bit_length() + x.exp + 1) if x.man else 0  # |x / 2**m| < 1/2
    if p >= 1024 and x.man:  # about sqrt(p) more halvings shorten the Taylor sum
        m += 3 * isqrt(p) // 4
    w = p + m + 8
    y = _exp_endpoint(Dyadic(x.man, x.exp - m), w, up)
    return _pow(y, 1 << m, w, up) if m else y  # m = 0, as in most verify decisions: no call


def _exp(x: Dyadic, p: int, up: bool) -> Dyadic:
    """Dyadic <= exp(x), or >= exp(x) when ``up``, with p bits, for any x."""
    return _round(*_exp_squared(x, p, up), p, up)


def exp(a: IntervalReal) -> IntervalReal:
    """Containment-sound exponential, for an argument of any size.

    exp is monotone, so the enclosure runs from a lower bound on exp(a.lo)
    to an upper bound on exp(a.hi), each from :func:`_exp` on that one
    endpoint x.  Argument reduction halves and squares (Brent & Zimmermann,
    *Modern Computer Arithmetic*, section 4.3): with m the least integer
    >= 0 for which |x / 2**m| < 1/2, m = 0 at x = 0 and for |x| < 1/2,
    exp(x) = exp(x / 2**m)**(2**m).  The proof below holds for any m above
    that least one too, because w grows with m, so at p >= 1024 a nonzero x
    takes 3 isqrt(p) // 4 more halvings: at p = 16384 and x = -7/13 the
    Taylor sum then has 160 terms, not 1,494 (ibid., section 4.3).  The core
    exp(x / 2**m) is one fixed-point Taylor sum (ibid., ch. 4):

    *Claim.* For |x| <= 1/2, :func:`_exp_endpoint` returns a dyadic below
    exp(x), or above it when ``up``.

    *Proof.* Let w = p + 30 and X = floor(x * 2**w), or the ceiling when
    ``up``; then xi = X / 2**w has |xi| <= 1/2, and xi <= x (xi >= x), so by
    monotonicity it suffices to bound exp(xi) on the same side.  Write
    T_j = 2**w * xi**j / j! for the exact scaled terms and t_j for the
    computed ones: t_0 = T_0 = 2**w and t_j = floor(t_(j-1) * X / (j 2**w)).
    The error e_j = t_j - T_j then obeys e_j = e_(j-1) * xi / j - f_j with
    0 <= f_j < 1, so |e_j| < |e_(j-1)| / 2 + 1, and |e_j| < 2 for all j by
    induction from e_0 = 0.  The loop stops at the first k with t_k = 0.
    It exists: an integer |t_j| >= 2 shrinks, since |t_j| < |t_(j-1)| / 2 + 1,
    and t_j = 1 or -1 is followed by 0, or by -1 and then 0.  There
    |T_k| = |e_k| < 2, and |T_(j+1)| <= |T_j| / 2 for every j, so the
    tail sum over j >= k of |T_j| is below 4.  The sum of t_0..t_k thus
    differs from 2**w * exp(xi) by less than 2(k - 1) + 4 = 2k + 2 units.
    Taking off (adding) 2k + 2 units and rounding down (up) to p bits gives
    the endpoint.  QED

    The core is taken at w = p + m + 8 bits and raised to the power 2**m
    by :func:`_pow`, the package's one squaring chain: m squares, each
    rounded to w bits on the endpoint's side.  Squaring is monotone on
    positive numbers, so each bound stays on its side, and the enclosure
    is sound for any |a|.  One rounding to w bits is a factor of at most
    1 + u, u = 2**(1-w), and the core is within (1 + u)**2 of exp(x / 2**m),
    its Taylor slack being far under u.  A factor (1 + u)**c before a
    squaring is (1 + u)**(2c + 1) after it, so after m squarings it is
    (1 + u)**(3 * 2**m - 1) < exp(2**(m+3-w)) = exp(2**(-p-5)).  The final
    outward rounding to p bits thus sets the width for every argument:
    exp(-1.8e6), about the exponent of ``AgievichShifted`` at n = 5,
    k = 3000, comes out 2**-63.9 wide at p = 64.
    """
    return _ordered(_exp(a.lo, a.prec, False), _exp(a.hi, a.prec, True), a.prec)  # exp is monotone


# -- precision policy ----------------------------------------------------------


MAX_PRECISION = 16384  # bits: first power of two above the ~14,300 that MAX_DIGITS digits need


class PrecisionPolicy(NamedTuple("_Schedule", [("initial", int), ("maximum", int)])):
    """Escalation schedule: start at ``initial`` bits, double until
    ``maximum``; a comparison still undecided at ``maximum`` is reported as
    undecided, never guessed.  ``maximum`` may not exceed
    :data:`MAX_PRECISION`, so every schedule ends in bounded time."""

    __slots__ = ()

    def __new__(cls, initial: int = 64, maximum: int = 512) -> PrecisionPolicy:
        if initial < 2 or initial > maximum:
            raise DomainError("PrecisionPolicy: need 2 <= initial <= maximum")
        if maximum > MAX_PRECISION:
            raise DomainError(
                f"PrecisionPolicy: maximum must be <= {MAX_PRECISION} bits (MAX_PRECISION)"
            )
        return super().__new__(cls, initial, maximum)

    @classmethod
    def _make(cls, fields) -> PrecisionPolicy:  # what _replace builds through: checked too
        return cls(*fields)

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
MAX_DECIMAL_EXPONENT = 10**6  # |e| cap: a plain rendering stays under ~10**6 characters
# the float log10(2) as an exact ratio: an int product overflows at no size
_LOG10_2_NUM, _LOG10_2_DEN = _math.log10(2).as_integer_ratio()
# exponents with more integer bits are first checked against MAX_DECIMAL_EXPONENT
# (one of 3,984 bits is refused by exp and the renderer in about 0.4 s on 2 vCPUs)
_EXP_GATE_BITS = 4096
# enclosures [lo, hi] of log10(2) = 0.30102999566398... and log10(e) = 0.43429448190325...
_LOG10_2 = (Fraction(30102999566, 10**11), Fraction(30102999567, 10**11))
_LOG10_E = (Fraction(43429448190, 10**11), Fraction(43429448191, 10**11))


@lru_cache(maxsize=4)  # an interval's two endpoints nearly always share k
def _pow5(k: int) -> int:
    return 5**k


def _round_scaled(num: int, shift: int, digits: int) -> str:
    """Round num * 2**shift, num != 0, half to even to ``digits`` significant digits.

    The work is in plain integers.  Writing 10**k = 5**k * 2**k turns the
    division by the ulp into one power of five and a bit shift, so one
    ``divmod`` gives a quotient of about ``digits`` digits, and a step on
    that quotient corrects the exponent estimated from ``bit_length``.  Only
    those digits are converted to a string, so magnitudes beyond Python's
    int-to-str digit limit are fine, but ``digits`` itself may not exceed
    that limit, :data:`MAX_DIGITS`.

    On 2 vCPUs, 5**k takes nearly all of a 10-digit render (2 ms at 10**59600);
    ``divmod`` costs the quotient's length times the divisor's, about 0.07 s
    per endpoint at 4300 digits of a value near 10**(10**6)."""
    if digits < 1:
        raise DomainError("render_significant: digits must be >= 1")
    if digits > MAX_DIGITS:
        raise DomainError(
            f"render_significant: digits must be <= {MAX_DIGITS}, "
            "Python's int-to-str conversion limit"
        )
    if num < 0:
        return "-" + _round_scaled(-num, shift, digits)
    # log2 of the value is within one of this bit count, so e is within one of
    # the decimal exponent of its leading digit
    e = (num.bit_length() - 1 + shift) * _LOG10_2_NUM // _LOG10_2_DEN
    if e - 1 > MAX_DECIMAL_EXPONENT or e + 2 < -MAX_DECIMAL_EXPONENT:
        _refuse_exponent(e)  # before any power is built
    # value / 10**k = num * 2**(shift - k) / 5**k, with k the ulp's exponent
    k = e - digits + 1
    den = _pow5(k) if k >= 0 else 1
    if k < 0:
        num *= _pow5(-k)
    if shift >= k:
        num <<= shift - k
    else:
        den <<= k - shift
    n, r = divmod(num, den)  # n = floor(value / 10**k), r / den the fraction left
    top = 10**digits
    while n >= top:  # e was too small: divide the quotient by ten
        n, t = divmod(n, 10)
        r += t * den
        den *= 10
        e += 1
    while n * 10 < top:  # e was too large: one more digit of the quotient
        t, r = divmod(10 * r, den)
        n = 10 * n + t
        e -= 1
    if 2 * r > den or (2 * r == den and n & 1):
        n += 1
        if n == top:  # rounding carried into a new decade
            n //= 10
            e += 1
    if abs(e) > MAX_DECIMAL_EXPONENT:
        _refuse_exponent(e)
    s = str(n)
    if e >= digits - 1:
        return s + "0" * (e - digits + 1)
    if e >= 0:
        return s[: e + 1] + "." + s[e + 1 :]
    return "0." + "0" * (-e - 1) + s


def _about(x: int) -> str:
    """x in a message: in full below 10**15, else to 4 digits at any size."""
    return str(x) if abs(x) < 10**15 else f"{Decimal(x):.4g}"


def _refuse_exponent(e: int) -> None:
    raise DomainError(
        f"render_significant: decimal exponent about {_about(e)} is outside "
        f"-{MAX_DECIMAL_EXPONENT}..{MAX_DECIMAL_EXPONENT} (MAX_DECIMAL_EXPONENT)"
    )


def refuse_unprintable(pref: IntervalReal, exponent: Fraction) -> None:
    """Refuse pref * exp(exponent), pref > 0, before its exp when its decimal
    exponent is certainly beyond MAX_DECIMAL_EXPONENT, with the message of
    :func:`render_significant`.

    exp of an argument of b integer bits costs about b^2 log b, so an
    exponent of over _EXP_GATE_BITS integer bits is judged first, from the
    exact exponent, the positions of the prefactor's leading bits and the
    enclosures of log10(2) and log10(e).  Any other value goes to exp and
    the renderer, which decide it as before.
    """
    if abs(exponent.numerator).bit_length() - exponent.denominator.bit_length() <= _EXP_GATE_BITS:
        return
    # pref > 0 lies in [2**lo2, 2**hi2)
    lo2 = pref.lo.man.bit_length() - 1 + pref.lo.exp
    hi2 = pref.hi.man.bit_length() + pref.hi.exp
    # log10 of the value, log2(pref) log10(2) + exponent log10(e), lies in [low, high]
    low = min(lo2 * c for c in _LOG10_2) + min(exponent * c for c in _LOG10_E)
    high = max(hi2 * c for c in _LOG10_2) + max(exponent * c for c in _LOG10_E)
    cap = MAX_DECIMAL_EXPONENT
    # one decade of margin: a rounding may carry the leading digit into the next
    if low > cap + 1 or high < -cap - 1:
        _refuse_exponent((low + high) // 2)


def render_significant(iv: IntervalReal, digits: int) -> str:
    """Print an interval to ``digits`` significant digits, round-half-even,
    e.g. 14 digits of 42.0000203957... -> '42.000020395749'.

    Refuses with :class:`NeedsMorePrecision` unless both endpoints round to
    the same string ``s``.  That guarantees the contract the tables rest on:
    with ``v`` the value of ``s`` and ``ulp = 10**(e - digits + 1)``, ``e``
    the decimal exponent of the leading digit of ``v``, the slab
    ``[v - ulp/2, v + ulp/2]`` contains the whole interval.  A carry into a
    new decade raises ``e`` by one, as in 999.96 -> '1000' at 3 digits.  An
    integer rendering pads with zeros, so the string alone does not show its
    precision: '12300' is 12345 at 3 digits (ulp 100), and a reader must
    take the ulp from ``digits`` and ``e``, not from the trailing zeros.

    Each endpoint man * 2**exp is rounded from its mantissa and exponent as
    they stand, by the integer route of :func:`_round_scaled`, with no
    ``Fraction`` of the whole magnitude.  :class:`DomainError` refuses digit
    counts outside 1..:data:`MAX_DIGITS` and endpoints whose decimal
    exponent is beyond :data:`MAX_DECIMAL_EXPONENT`: such a value would print
    as a string of over a million characters.
    """
    if iv.lo.man == 0 and iv.hi.man == 0:
        return "0"
    if iv.lo.man <= 0 <= iv.hi.man:
        raise NeedsMorePrecision("interval straddles zero; no leading digit")
    lo_s = _round_scaled(iv.lo.man, iv.lo.exp, digits)
    hi_s = _round_scaled(iv.hi.man, iv.hi.exp, digits)
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
