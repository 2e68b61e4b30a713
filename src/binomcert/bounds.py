"""Certified bounds on central binomial coefficients and Catalan numbers.

All bounds here share one shape: an exact power prefactor divided by the
square root of a multiple of pi, times the exponential of a rational
exponent.  Exponents are exact: a series exponent is an integer pair over
one common denominator, and a ``Fraction`` where a bound reports it;
interval arithmetic enters only through the prefactor (pi, sqrt) and the
final exp.  That split keeps comparisons that reduce to exponent sign --
like which of two equal-prefactor bounds is tighter -- provable by pure
integer arithmetic.

Families implemented:

* the Gaussian-shaped bound C(n, k) <= 2^n / sqrt(pi n / 2) *
  exp(-(2/n)(k - n/2)^2 + 23/(18n)), with its recentered and central
  specializations and the Catalan corollary;
* the Binet-series bounds, all truncations of one correction series
  D_J(s, r) = sum_{j<=J} t_j(r) / s^(2j-1) with t_j(r) = B_2j / (2j(2j-1)) *
  (r^-(2j-1) - 1 - (r-1)^-(2j-1)).  :func:`exponent_pair` alone sums it,
  and the order cap 1..MAX_SERIES_ORDER has one check,
  :func:`check_series_order`, which it applies for every caller.
  The central case is r = 2: 4^n / sqrt(pi n) * exp(D_J(n, 2)), where
  even-order truncations bound from above and odd-order from below (the
  latter proved here only empirically, by sweep); Sasvari's pair and the
  Catalan bounds are its orders 1, 2 and 4.  For general r it bounds
  C(rs, s) < c_r * d_r^(2s) / sqrt(s) * exp(D_2N(s, r)), with growth factor
  d_r^2 = r^r / (r-1)^(r-1).

A :class:`BoundResult` holds only the exact exponent and the certified value.
The names the command line gives these bounds (``SasvariUpper`` and the rest)
and the parameters it prints are defined in :mod:`binomcert.cli`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, log2
from typing import NamedTuple

from . import interval as ivl
from .combinatorics import bernoulli, central_binomial
from .interval import DomainError, IntervalReal

__all__ = [
    "BoundResult",
    "agievich_general",
    "agievich_shifted",
    "agievich_central",
    "agievich_catalan",
    "sasvari_pair",
    "central_upper",
    "central_lower",
    "catalan_upper",
    "check_series_order",
    "general_exponent",
    "exponent_pair",
    "general_rs_bound",
    "central_ratio",
]

MAX_SERIES_ORDER = 20  # asymptotic series; stay well inside the useful regime
MAX_GROWTH_BITS = 2**22  # cap on r^(rs) in d_r^(2s): it bounds the cost of building r^(rs)


class BoundResult(NamedTuple):
    """A bound evaluation: exact exponent plus certified value."""

    exponent: Fraction
    value: IntervalReal


@lru_cache(maxsize=128)  # bounded: r comes from the caller
def _coefficients(order: int, r: int) -> tuple[int, tuple[int, ...]]:
    """L and t_1(r) * L..t_order(r) * L, L the least common denominator of
    the t_j(r); no Bernoulli number past B_(2 order) is computed."""
    ts = [
        bernoulli(2 * j)
        / (2 * j * (2 * j - 1))
        * (Fraction(1, r ** (2 * j - 1)) - 1 - Fraction(1, (r - 1) ** (2 * j - 1)))
        for j in range(1, order + 1)
    ]
    den = lcm(*(t.denominator for t in ts))
    return den, tuple(t.numerator * (den // t.denominator) for t in ts)


def check_series_order(order: int) -> None:
    """Refuse a series order outside 1..MAX_SERIES_ORDER with :class:`DomainError`."""
    if not 1 <= order <= MAX_SERIES_ORDER:
        raise DomainError(f"series order must be in 1..{MAX_SERIES_ORDER}")


def exponent_pair(s: int, r: int, order: int) -> tuple[int, int]:
    """D_order(s, r) = sum_{j<=order} t_j(r) / s^(2j-1) as an unreduced
    integer pair (numerator, denominator > 0).

    The correction exponent of every series bound: the partial Bernoulli sum
    of B_2j / (2j(2j-1)) * [(rs)^-(2j-1) - s^-(2j-1) - ((r-1)s)^-(2j-1)] for
    log C(rs, s), whose s-free factor is t_j(r).  r = 2 is the central
    series, t_1..t_4 = -1/8, 1/192, -1/640, 17/14336.  The pair is the
    Horner sum of the t_j L in s^2 over L s^(2 order - 1).
    """
    if r < 2 or s < 1:
        raise DomainError("general_exponent: need r >= 2, s >= 1")
    check_series_order(order)
    den, cs = _coefficients(order, r)
    s2, num = s * s, 0
    for c in cs:
        num = num * s2 + c
    return num, den * s ** (2 * order - 1)


def general_exponent(s: int, r: int, order: int) -> Fraction:
    """D_order(s, r) of :func:`exponent_pair` as a reduced ``Fraction``."""
    return Fraction(*exponent_pair(s, r, order))


def _evaluate(scale: IntervalReal, sqrt_scale: Fraction, n: int, exponent: Fraction, p: int) -> IntervalReal:
    """scale / sqrt(sqrt_scale * pi * n) * exp(exponent), containment-sound.

    One shared expression tree for every bound family, so that algebraically
    identical bounds produce bit-identical intervals.
    """
    root = ivl.sqrt(ivl.from_rational(sqrt_scale, p) * ivl.pi(p) * ivl.from_int(n, p))
    pref = scale / root
    return pref * ivl.exp(ivl.from_rational(exponent, p))


def _require_positive(n: int) -> None:
    if n < 1:
        raise DomainError("n must be >= 1: the 1/sqrt(pi n) prefactor is singular at 0")


def agievich_general(n: int, k: int, p: int = 64) -> BoundResult:
    """Gaussian-form bound on C(n, k): 2^n / sqrt(pi n/2) * exp(-(2/n)(k-n/2)^2 + 23/(18n))."""
    _require_positive(n)
    if not 0 <= k <= n:
        raise DomainError("agievich_general: need 0 <= k <= n")
    exponent = Fraction(-((2 * k - n) ** 2), 2 * n) + Fraction(23, 18 * n)
    value = _evaluate(ivl.exact_pow2(n, p), Fraction(1, 2), n, exponent, p)
    return BoundResult(exponent, value)


def agievich_shifted(n: int, k: int, p: int = 64) -> BoundResult:
    """Recentered form bounding C(2n, n+k): 4^n / sqrt(pi n) * exp(-k^2/n + 23/(36n))."""
    _require_positive(n)
    exponent = Fraction(-(k * k), n) + Fraction(23, 36 * n)
    value = _evaluate(ivl.exact_pow2(2 * n, p), Fraction(1), n, exponent, p)
    return BoundResult(exponent, value)


def agievich_central(n: int, p: int = 64) -> BoundResult:
    """Central case k=0: 4^n / sqrt(pi n) * exp(23/(36n)); :func:`agievich_shifted` at k = 0."""
    return agievich_shifted(n, 0, p)


def agievich_catalan(n: int, p: int = 64) -> BoundResult:
    """Catalan corollary: the central bound divided by (n + 1)."""
    base = agievich_central(n, p)
    value = base.value / ivl.from_int(n + 1, p)
    return BoundResult(base.exponent, value)


def sasvari_pair(n: int, p: int = 64) -> tuple[BoundResult, BoundResult]:
    """Binet-route sandwich: 4^n/sqrt(pi n) * exp(-1/(8n)) <= C(2n,n) <=
    4^n/sqrt(pi n) * exp(-1/(8n) + 1/(192 n^3)).

    The order-1 and order-2 truncations of the central correction series:
    :func:`central_lower` at order 1 and :func:`central_upper` at order 2.
    """
    return central_lower(n, 1, p), central_upper(n, 2, p)


def _series_bound(r: int, s: int, order: int, p: int) -> BoundResult:
    """c_r * d_r^(2s) / sqrt(s) * exp(D_order(s, r)): the one body of every
    series bound; at r = 2 it is 4^s / sqrt(pi s) * exp(D_order(s, 2))."""
    if r == 2:
        scale = ivl.exact_pow2(2 * s, p)
    else:
        # d_r^(2s) = r^(rs) / (r-1)^((r-1)s), in lowest terms: gcd(r, r-1) = 1
        scale = ivl.from_rational((r ** (r * s), (r - 1) ** ((r - 1) * s)), p)
    exponent = general_exponent(s, r, order)
    sqrt_scale = Fraction(2 * (r - 1), r)  # 2 * (1 - 1/r); times pi*s under the root
    return BoundResult(exponent, _evaluate(scale, sqrt_scale, s, exponent, p))


def central_upper(n: int, order: int, p: int = 64) -> BoundResult:
    """Even-order truncation: upper bound 4^n/sqrt(pi n) * exp(sum_{j<=J} t_j/n^(2j-1))."""
    _require_positive(n)
    if order % 2 != 0:
        raise ValueError("central_upper: odd truncations bound from below; use central_lower")
    return _series_bound(2, n, order, p)


def central_lower(n: int, order: int, p: int = 64) -> BoundResult:
    """Odd-order truncation of the same series, bounding from below."""
    _require_positive(n)
    if order % 2 != 1:
        raise ValueError("central_lower: even truncations bound from above; use central_upper")
    return _series_bound(2, n, order, p)


def catalan_upper(n: int, order: int, p: int = 64) -> BoundResult:
    """Catalan upper bound: the even-order central bound divided by (n + 1)."""
    if order not in (2, 4):
        raise DomainError("catalan_upper: supported orders are 2 and 4")
    base = central_upper(n, order, p)
    value = base.value / ivl.from_int(n + 1, p)
    return BoundResult(base.exponent, value)


def general_rs_bound(r: int, s: int, order: int, p: int = 64) -> BoundResult:
    """Bound on C(rs, s): c_r * d_r^(2s) / sqrt(s) * exp(D_{2*order}(s, r)).

    Here c_r = 1/sqrt(2 pi (1 - 1/r)) and the growth factor is taken
    Stirling-consistent, d_r^2 = r^r / (r-1)^(r-1) -- the unique choice for
    which the remainder series D converges to the actual log ratio.  Since
    d_r^2 is rational, d_r^(2s) is carried exactly; no square root of d is
    ever needed.  Its division costs time linear in the length of r^(rs),
    so what MAX_GROWTH_BITS bounds is the building of r^(rs) itself: an
    r^(rs) of over that many bits is refused before it is built.  At r = 2
    this is central_upper(s, 2*order).  2*order counts against the series
    order cap, so order <= 10.
    """
    if r < 2:
        raise DomainError("general_rs_bound: need r >= 2")
    if s < 1 or order < 1:
        raise DomainError("general_rs_bound: need s >= 1 and order >= 1")
    num, den = log2(r).as_integer_ratio()  # an int product: no s overflows it
    bits = r * s * num // den
    if bits > MAX_GROWTH_BITS:
        raise DomainError(
            f"general_rs_bound: r^(rs) has about {ivl._about(bits)} bits, "
            f"over {MAX_GROWTH_BITS} (MAX_GROWTH_BITS)"
        )
    return _series_bound(r, s, 2 * order, p)


def central_ratio(n: int, p: int = 64, binom_value: int | None = None) -> IntervalReal:
    """Certified enclosure of C(2n, n) * sqrt(pi n) / 4^n.

    ``binom_value`` lets sweep loops feed an incrementally maintained
    C(2n, n) instead of recomputing it.  After pi * n, each Dyadic step
    rounds as ``from_int(binom_value) * sqrt(pi(p) * from_int(n)) *
    exact_pow2(-2n)`` does.
    """
    _require_positive(n)
    if binom_value is None:
        binom_value = central_binomial(n)
    x = ivl.pi(p) * ivl.from_int(n, p)
    lo, hi = ivl._sqrt(x.lo, p, False), ivl._sqrt(x.hi, p, True)
    lo = ivl._round(binom_value * lo.man, lo.exp - 2 * n, p, False)
    hi = ivl._round(binom_value * hi.man, hi.exp - 2 * n, p, True)
    return ivl._ordered(lo, hi, p)  # every step is monotone and rounds outward

