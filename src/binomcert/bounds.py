"""Certified bounds on central binomial coefficients and Catalan numbers.

All bounds here share one shape: an exact power prefactor divided by the
square root of a multiple of pi, times the exponential of a rational
exponent.  Exponents are carried as exact ``Fraction`` values end to end;
interval arithmetic enters only through the prefactor (pi, sqrt) and the
final exp.  That split keeps comparisons that reduce to exponent sign --
like which of two equal-prefactor bounds is tighter -- provable by pure
rational arithmetic.

Families implemented:

* the Gaussian-shaped bound C(n, k) <= 2^n / sqrt(pi n / 2) *
  exp(-(2/n)(k - n/2)^2 + 23/(18n)), with its recentered and central
  specializations and the Catalan corollary;
* the Binet-series bounds 4^n / sqrt(pi n) * exp(sum t_j / n^(2j-1)),
  whose coefficients t_j derive from Bernoulli numbers; even-order
  truncations bound from above, odd-order from below (the latter proved
  here only empirically, by sweep);
* the general C(rs, s) < c_r * d_r^(2s) / sqrt(s) * exp(...) bound with
  growth factor d_r^2 = r^r / (r-1)^(r-1), which specializes exactly to
  the central series bound at r = 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from . import interval as ivl
from .combinatorics import bernoulli, central_binomial
from .interval import IntervalReal

__all__ = [
    "BoundName",
    "BoundResult",
    "SeriesCoefficients",
    "agievich_general",
    "agievich_shifted",
    "agievich_central",
    "agievich_catalan",
    "sasvari_pair",
    "central_exponent_coefficients",
    "central_upper",
    "central_lower",
    "catalan_upper",
    "general_exponent",
    "general_rs_bound",
    "central_ratio",
    "tightness_gap",
]

MAX_SERIES_ORDER = 20  # asymptotic series; stay well inside the useful regime


class BoundName(str, Enum):
    AGIEVICH_GENERAL = "AgievichGeneral"
    AGIEVICH_SHIFTED = "AgievichShifted"
    AGIEVICH_CENTRAL = "AgievichCentral"
    AGIEVICH_CATALAN = "AgievichCatalan"
    SASVARI_LOWER = "SasvariLower"
    SASVARI_UPPER = "SasvariUpper"
    CENTRAL_ORDER_N = "CentralOrderN"
    CATALAN_ORDER_N = "CatalanOrderN"
    GENERAL_RS = "GeneralRS"


@dataclass(frozen=True)
class SeriesCoefficients:
    """Coefficients t_1..t_J of the correction exponent sum t_j / n^(2j-1)."""

    order: int
    terms: tuple[Fraction, ...]

    def exponent_at(self, n: int) -> Fraction:
        return sum(
            (t / n ** (2 * j - 1) for j, t in enumerate(self.terms, start=1)),
            Fraction(0),
        )


@dataclass(frozen=True)
class BoundResult:
    """A named bound evaluation: exact exponent plus certified value."""

    name: BoundName
    parameters: dict
    exponent: Fraction
    value: IntervalReal


@lru_cache(maxsize=None)
def _series_term(j: int) -> Fraction:
    """t_j from its definition, cross-checked against the simplified closed form.

    Definition route: t_j = B_2j / (2j(2j-1)) * (1/2^(2j-1) - 2), the n-free
    factor of the r=2 specialization of the general-exponent summand.
    Simplified route: t_j = -B_2j (2^(2j)-1) / (j(2j-1) 2^(2j)).
    """
    b = bernoulli(2 * j)
    t_def = b / (2 * j * (2 * j - 1)) * (Fraction(1, 2 ** (2 * j - 1)) - 2)
    t_simpl = -b * (2 ** (2 * j) - 1) / (j * (2 * j - 1) * 2 ** (2 * j))
    if t_def != t_simpl:
        raise AssertionError(f"series coefficient routes disagree at j={j}")
    return t_def


def central_exponent_coefficients(order: int) -> SeriesCoefficients:
    """t_1..t_J for the central-coefficient correction series.

    t_1..t_4 = -1/8, 1/192, -1/640, 17/14336.
    """
    if not 1 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"series order must be in 1..{MAX_SERIES_ORDER}")
    return SeriesCoefficients(order, tuple(_series_term(j) for j in range(1, order + 1)))


def general_exponent(s: int, r: int, order: int) -> Fraction:
    """D_order(s, r): partial Bernoulli correction sum for log C(rs, s).

    sum_{j=1..order} B_2j / (2j(2j-1)) * [ (rs)^-(2j-1) - s^-(2j-1)
    - ((r-1)s)^-(2j-1) ], exact in Fractions.
    """
    if r < 2 or s < 1 or order < 1:
        raise ValueError("general_exponent: need r >= 2, s >= 1, order >= 1")
    total = Fraction(0)
    for j in range(1, order + 1):
        e = 2 * j - 1
        total += (
            bernoulli(2 * j)
            / (2 * j * (2 * j - 1))
            * (Fraction(1, (r * s) ** e) - Fraction(1, s**e) - Fraction(1, ((r - 1) * s) ** e))
        )
    return total


def _evaluate(scale: Fraction, sqrt_scale: Fraction, n: int, exponent: Fraction, p: int) -> IntervalReal:
    """scale / sqrt(sqrt_scale * pi * n) * exp(exponent), containment-sound.

    One shared expression tree for every bound family, so that algebraically
    identical bounds (e.g. the r=2 specialization of the general bound versus
    the central series bound) produce bit-identical intervals.
    """
    root = ivl.sqrt(ivl.from_rational(sqrt_scale, p) * ivl.pi(p) * ivl.from_int(n, p))
    pref = ivl.from_rational(scale, p) / root
    return pref * ivl.exp(ivl.from_rational(exponent, p))


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1: the 1/sqrt(pi n) prefactor is singular at 0")


def agievich_general(n: int, k: int, p: int = 64) -> BoundResult:
    """Gaussian-form bound on C(n, k): 2^n / sqrt(pi n/2) * exp(-(2/n)(k-n/2)^2 + 23/(18n))."""
    _require_positive(n)
    if not 0 <= k <= n:
        raise ValueError("agievich_general: need 0 <= k <= n")
    exponent = Fraction(-((2 * k - n) ** 2), 2 * n) + Fraction(23, 18 * n)
    value = _evaluate(Fraction(2) ** n, Fraction(1, 2), n, exponent, p)
    return BoundResult(BoundName.AGIEVICH_GENERAL, {"n": n, "k": k}, exponent, value)


def agievich_shifted(n: int, k: int, p: int = 64) -> BoundResult:
    """Recentered form bounding C(2n, n+k): 4^n / sqrt(pi n) * exp(-k^2/n + 23/(36n))."""
    _require_positive(n)
    exponent = Fraction(-(k * k), n) + Fraction(23, 36 * n)
    value = _evaluate(Fraction(4) ** n, Fraction(1), n, exponent, p)
    return BoundResult(BoundName.AGIEVICH_SHIFTED, {"n": n, "k": k}, exponent, value)


def agievich_central(n: int, p: int = 64) -> BoundResult:
    """Central case k=0: 4^n / sqrt(pi n) * exp(23/(36n))."""
    _require_positive(n)
    exponent = Fraction(23, 36 * n)
    value = _evaluate(Fraction(4) ** n, Fraction(1), n, exponent, p)
    return BoundResult(BoundName.AGIEVICH_CENTRAL, {"n": n}, exponent, value)


def agievich_catalan(n: int, p: int = 64) -> BoundResult:
    """Catalan corollary: the central bound divided by (n + 1)."""
    base = agievich_central(n, p)
    value = base.value / ivl.from_int(n + 1, p)
    return BoundResult(BoundName.AGIEVICH_CATALAN, {"n": n}, base.exponent, value)


def sasvari_pair(n: int, p: int = 64) -> tuple[BoundResult, BoundResult]:
    """Binet-route sandwich: 4^n/sqrt(pi n) * exp(-1/(8n)) <= C(2n,n) <=
    4^n/sqrt(pi n) * exp(-1/(8n) + 1/(192 n^3)).

    The order-1 and order-2 truncations of the central correction series:
    :func:`central_lower` at order 1 and :func:`central_upper` at order 2,
    under Sasvari's names.
    """
    lower = replace(central_lower(n, 1, p), name=BoundName.SASVARI_LOWER, parameters={"n": n})
    upper = replace(central_upper(n, 2, p), name=BoundName.SASVARI_UPPER, parameters={"n": n})
    return lower, upper


def central_upper(n: int, order: int, p: int = 64) -> BoundResult:
    """Even-order truncation: upper bound 4^n/sqrt(pi n) * exp(sum_{j<=J} t_j/n^(2j-1))."""
    _require_positive(n)
    if order % 2 != 0:
        raise ValueError("central_upper: odd truncations bound from below; use central_lower")
    exponent = central_exponent_coefficients(order).exponent_at(n)
    value = _evaluate(Fraction(4) ** n, Fraction(1), n, exponent, p)
    return BoundResult(BoundName.CENTRAL_ORDER_N, {"n": n, "order": order}, exponent, value)


def central_lower(n: int, order: int, p: int = 64) -> BoundResult:
    """Odd-order truncation of the same series, bounding from below."""
    _require_positive(n)
    if order % 2 != 1:
        raise ValueError("central_lower: even truncations bound from above; use central_upper")
    exponent = central_exponent_coefficients(order).exponent_at(n)
    value = _evaluate(Fraction(4) ** n, Fraction(1), n, exponent, p)
    return BoundResult(BoundName.CENTRAL_ORDER_N, {"n": n, "order": order}, exponent, value)


def catalan_upper(n: int, order: int, p: int = 64) -> BoundResult:
    """Catalan upper bound: the even-order central bound divided by (n + 1)."""
    if order not in (2, 4):
        raise ValueError("catalan_upper: supported orders are 2 and 4")
    base = central_upper(n, order, p)
    value = base.value / ivl.from_int(n + 1, p)
    return BoundResult(
        BoundName.CATALAN_ORDER_N, {"n": n, "order": order}, base.exponent, value
    )


def general_rs_bound(r: int, s: int, order: int, p: int = 64) -> BoundResult:
    """Bound on C(rs, s): c_r * d_r^(2s) / sqrt(s) * exp(D_{2*order}(s, r)).

    Here c_r = 1/sqrt(2 pi (1 - 1/r)) and the growth factor is taken
    Stirling-consistent, d_r^2 = r^r / (r-1)^(r-1) -- the unique choice for
    which the remainder series D converges to the actual log ratio.  Since
    d_r^2 is rational, d_r^(2s) is carried exactly; no square root of d is
    ever needed.  At r = 2 this reproduces central_upper(s, 2*order)
    bit-for-bit.
    """
    if r < 2:
        raise ValueError("general_rs_bound: need r >= 2")
    if s < 1 or order < 1:
        raise ValueError("general_rs_bound: need s >= 1 and order >= 1")
    exponent = general_exponent(s, r, 2 * order)
    scale = Fraction(r**r, (r - 1) ** (r - 1)) ** s
    sqrt_scale = Fraction(2 * (r - 1), r)  # 2 * (1 - 1/r); times pi*s under the root
    value = _evaluate(scale, sqrt_scale, s, exponent, p)
    return BoundResult(
        BoundName.GENERAL_RS, {"r": r, "s": s, "order": order}, exponent, value
    )


def central_ratio(n: int, p: int = 64, binom_value: int | None = None) -> IntervalReal:
    """Certified enclosure of C(2n, n) * sqrt(pi n) / 4^n.

    ``binom_value`` lets sweep loops feed an incrementally maintained
    C(2n, n) instead of recomputing it.
    """
    _require_positive(n)
    if binom_value is None:
        binom_value = central_binomial(n)
    root = ivl.sqrt(ivl.from_rational(Fraction(1), p) * ivl.pi(p) * ivl.from_int(n, p))
    return ivl.from_int(binom_value, p) * root * ivl.exact_pow2(-2 * n, p)


def tightness_gap(x: Fraction) -> Fraction:
    """f(x) = 23/(36x) + 1/(8x) - 1/(192x^3) = 55/(72x) - 1/(192x^3): the
    Gaussian-form central exponent minus the order-2 series exponent.  The
    bounds share the prefactor 4^n/sqrt(pi n), so f(n) > 0 exactly when the
    series bound is the tighter one."""
    if x <= 0:
        raise ValueError("tightness_gap: x must be > 0")
    return Fraction(55, 72) / x - Fraction(1, 192) / x**3
