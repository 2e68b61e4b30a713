"""Machine-checked discrepancies between the published text and recomputation.

Every entry is backed by a computation reproduced at build time -- a
Bernoulli value from the defining recurrence, an interval-certified bound
evaluation, an exact binomial -- never by assertion alone.  The published
value is quoted verbatim next to the value the computation demands.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import bounds as bd
from .combinatorics import bernoulli, binomial, central_binomial
from .interval import (
    DEFAULT_POLICY,
    UNDETERMINED,
    NeedsMorePrecision,
    PrecisionPolicy,
    exact_pow2,
    from_rational,
    render_escalating,
)

__all__ = ["ErrataEntry", "build_errata"]


class ErrataEntry(NamedTuple):
    location: str
    paper_value: str
    computed_value: str
    classification: str  # sign | dropped_digit | coefficient | formula
    evidence: str


def _render(make, digits: int, policy: PrecisionPolicy) -> str:
    text = render_escalating(make, digits, policy)
    if text == UNDETERMINED:  # evidence is printed proved or not at all
        raise NeedsMorePrecision(f"errata evidence needs more than {policy.maximum} bits")
    return text


def _bernoulli_sign_entry() -> ErrataEntry:
    b6 = bernoulli(6)
    if b6 != Fraction(1, 42):  # the evidence rests on it; unlike an assert, kept under -O
        raise ArithmeticError(f"errata: the recurrence gives B_6 = {b6}, not 1/42")
    t3 = bd.general_exponent(1, 2, 3) - bd.general_exponent(1, 2, 2)
    t3_from_printed_sign = -(-b6) * (2**6 - 1) / Fraction(3 * 5 * 2**6)
    return ErrataEntry(
        location="series coefficients list (B_6)",
        paper_value="-1/42",
        computed_value="1/42",
        classification="sign",
        evidence=(
            f"defining recurrence gives B_6 = {b6}; the printed order-3 series "
            f"coefficient -1/640 equals -B_6(2^6-1)/(3*5*2^6) only with B_6 = +1/42 "
            f"(computed t_3 = {t3}; the printed sign would give t_3 = {t3_from_printed_sign})"
        ),
    )


def _simplified_series_entry() -> ErrataEntry:
    t1 = bd.general_exponent(1, 2, 1)
    printed_j1 = bernoulli(2) / (1 * 1) * Fraction(1, 2**2 - 1)
    return ErrataEntry(
        location="one-line simplified form of the even-order central exponent",
        paper_value="sum_j B_2j/(j(2j-1)) * [1/(2^2j - 1)] / n^(2j-1)",
        computed_value="sum_j -B_2j (2^2j - 1)/(j(2j-1) 2^2j) / n^(2j-1)",
        classification="coefficient",
        evidence=(
            f"at j=1 the printed coefficient evaluates to {printed_j1}, but the "
            f"defining sum gives t_1 = {t1}, and only t_1 = -1/8 reproduces the "
            f"order-2 exponent -1/(8n) + 1/(192 n^3) printed two displays later"
        ),
    )


def _growth_factor_entry(policy: PrecisionPolicy) -> ErrataEntry:
    r, s = 3, 5
    exact = binomial(r * s, s)

    def times(factor: Fraction) -> str:  # the corrected bound times an exact factor
        return _render(
            lambda p: bd.general_rs_bound(r, s, 1, p).value * from_rational(factor, p), 12, policy
        )

    corrected = times(Fraction(1))
    # the literal d_3 = (3-1)/(1-1/3) = 3 against the corrected d_3^2 = 27/4:
    # 9^s = (4/3)^s (27/4)^s under the bound's d^(2s), and 3^s = (4/9)^s (27/4)^s
    # under the d^s of the original statement this display corrects
    literal_sq, literal_single = times(Fraction(4, 3) ** s), times(Fraction(4, 9) ** s)
    gap = _render(lambda p: from_rational(Fraction(4, 3) ** s, p), 3, policy)
    return ErrataEntry(
        location="general-bound growth factor d_r",
        paper_value="d_r = (r-1)/(1-1/r)  [= r; d_3 = 3]",
        computed_value="d_r = sqrt(r^r/(r-1)^(r-1))  [d_3 = sqrt(27/4) = 2.5980...]",
        classification="formula",
        evidence=(
            f"at r=3, s=5: C(15,5) = {exact}; corrected growth factor gives the bound "
            f"{corrected} (holds, sharp); the printed d_3 = 3 gives "
            f"{literal_sq} under d^(2s) -- valid but {gap}x the exact value, a gap growing "
            f"like (4/3)^s, which contradicts the remainder-series construction that "
            f"defines the exponent; under the original d^s convention it gives "
            f"{literal_single} < {exact}, violating the bound outright"
        ),
    )


def _prefactor_entry(policy: PrecisionPolicy) -> ErrataEntry:
    corrected = _render(lambda p: bd.central_upper(1, 2, p).value, 11, policy)
    # the printed 2^n is the corrected 2^(2n) times 2^-n, 2^-1 at n = 1
    printed = _render(lambda p: bd.central_upper(1, 2, p).value * exact_pow2(-1, p), 11, policy)
    return ErrataEntry(
        location="central series-bound display prefactor",
        paper_value="2^n / sqrt(pi n)",
        computed_value="2^(2n) / sqrt(pi n)",
        classification="formula",
        evidence=(
            f"at n=1 the printed prefactor gives {printed} < 2 = C(2,1), so the display "
            f"is not an upper bound as stated; with 2^(2n) it gives {corrected} > 2, "
            f"matching the order-1/order-2 sandwich and every published table value"
        ),
    )


def _dropped_digit_entry(policy: PrecisionPolicy) -> ErrataEntry:
    computed = _render(lambda p: bd.agievich_central(5, p).value, 10, policy)
    exact5 = central_binomial(5)
    return ErrataEntry(
        location="table-1 row n=5, Gaussian-form central bound column",
        paper_value="93.5845534",
        computed_value=computed,
        classification="dropped_digit",
        evidence=(
            f"recomputation gives {computed}; the printed 93.5845534 would fall below "
            f"the exact C(10,5) = {exact5} it is supposed to bound, which is impossible "
            f"for a proved upper bound; the printed string is exactly the computed one "
            f"with its leading digit dropped"
        ),
    )


def build_errata(policy: PrecisionPolicy = DEFAULT_POLICY) -> list[ErrataEntry]:
    """Recompute and assemble the five reproducible discrepancies."""
    return [
        _bernoulli_sign_entry(),
        _simplified_series_entry(),
        _growth_factor_entry(policy),
        _prefactor_entry(policy),
        _dropped_digit_entry(policy),
    ]
