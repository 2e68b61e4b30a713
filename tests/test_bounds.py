import math
from fractions import Fraction

import mpmath
import pytest

import binomcert.bounds as bd
from binomcert import interval as ivl
from binomcert.combinatorics import catalan, central_binomial
from binomcert.interval import TriState, certainly_less, from_int, render_significant
from helpers import assert_encloses, bernoulli_akiyama_tanigawa


# -- series coefficients ----------------------------------------------------------


def test_first_four_coefficients():
    c = bd.central_exponent_coefficients(4)
    assert c.terms == (
        Fraction(-1, 8),
        Fraction(1, 192),
        Fraction(-1, 640),
        Fraction(17, 14336),
    )
    assert bd.central_exponent_coefficients(2).terms == c.terms[:2]


def test_single_term_exponent():
    assert bd.central_exponent_coefficients(1).exponent_at(1) == Fraction(-1, 8)


def test_order_range_enforced():
    with pytest.raises(ValueError):
        bd.central_exponent_coefficients(0)
    with pytest.raises(ValueError):
        bd.central_exponent_coefficients(21)


def test_coefficient_double_derivation_through_20():
    # definition route vs simplified closed form, with Bernoulli numbers from
    # an independent oracle
    oracle_b = bernoulli_akiyama_tanigawa(40)
    terms = bd.central_exponent_coefficients(20).terms
    for j in range(1, 21):
        b2j = oracle_b[2 * j]
        by_definition = b2j / (2 * j * (2 * j - 1)) * (Fraction(1, 2 ** (2 * j - 1)) - 2)
        simplified = -b2j * (2 ** (2 * j) - 1) / (j * (2 * j - 1) * 2 ** (2 * j))
        assert by_definition == simplified == terms[j - 1], j


# -- exponent plumbing -------------------------------------------------------------


def test_agievich_general_exponents():
    assert bd.agievich_general(2, 1).exponent == Fraction(23, 36)
    # governing formula: -(2/n)(k - n/2)^2 + 23/(18n) -> -1 + 23/36 at (2, 0)
    assert bd.agievich_general(2, 0).exponent == Fraction(-1) + Fraction(23, 36)


def test_agievich_shifted_exponent():
    assert bd.agievich_shifted(4, 2).exponent == Fraction(-1) + Fraction(23, 144)


def test_sasvari_exponents():
    lower, upper = bd.sasvari_pair(1)
    assert lower.exponent == Fraction(-1, 8)
    assert upper.exponent == Fraction(-23, 192)  # -1/8 + 1/192


def test_central_lower_exponent():
    assert bd.central_lower(2, 1).exponent == Fraction(-1, 16)


def test_central_upper_order4_exponent():
    expected = Fraction(-1, 8) + Fraction(1, 192) - Fraction(1, 640) + Fraction(17, 14336)
    assert bd.central_upper(1, 4).exponent == expected


# -- certified values against the published digits ---------------------------------


@pytest.mark.parametrize(
    "n,digits,expected",
    [(1, 10, "4.275146228"), (5, 10, "293.5845534"), (10, 10, "199421.3118")],
)
def test_agievich_central_values(n, digits, expected):
    assert render_significant(bd.agievich_central(n, 64).value, digits) == expected


def test_agievich_central_oracle():
    n = 5
    oracle = mpmath.mpf(4) ** n / mpmath.sqrt(mpmath.pi * n) * mpmath.exp(mpmath.mpf(23) / (36 * n))
    assert_encloses(bd.agievich_central(n, 96).value, oracle)


@pytest.mark.parametrize("n,expected", [(1, "2.001982123"), (9, "48620.00127")])
def test_sasvari_upper_values(n, expected):
    assert render_significant(bd.sasvari_pair(n, 64)[1].value, 10) == expected


def test_sasvari_lower_below_upper():
    for n in (1, 2, 17):
        lower, upper = bd.sasvari_pair(n, 64)
        assert certainly_less(lower.value, upper.value) is TriState.YES


def test_agievich_general_value():
    res = bd.agievich_general(2, 1, 96)
    oracle = mpmath.mpf(4) / mpmath.sqrt(mpmath.pi) * mpmath.exp(mpmath.mpf(23) / 36)
    assert_encloses(res.value, oracle)
    assert certainly_less(from_int(2, 96), res.value) is TriState.YES


def test_agievich_general_symmetry():
    a = bd.agievich_general(2, 0)
    b = bd.agievich_general(2, 2)
    assert a.exponent == b.exponent and a.value == b.value


def test_agievich_general_domain():
    with pytest.raises(ValueError):
        bd.agievich_general(0, 0)
    with pytest.raises(ValueError):
        bd.agievich_general(4, 5)


def test_agievich_shifted_matches_central_at_zero_offset():
    for n in (1, 3, 12):
        shifted = bd.agievich_shifted(n, 0)
        central = bd.agievich_central(n)
        assert shifted.exponent == central.exponent
        assert shifted.value == central.value


def test_agievich_shifted_bounds_offset_binomial():
    res = bd.agievich_shifted(3, 1, 64)
    assert certainly_less(from_int(math.comb(6, 4), 64), res.value) is TriState.YES


def test_agievich_catalan():
    one = bd.agievich_catalan(1, 64)
    assert render_significant(one.value, 10) == "2.137573114"  # half of 4.275146228
    two = bd.agievich_catalan(2, 64)
    assert two.value == bd.agievich_central(2, 64).value / ivl.from_int(3, 64)
    for n in range(1, 101):
        assert (
            certainly_less(from_int(catalan(n), 64), bd.agievich_catalan(n, 64).value)
            is TriState.YES
        )


def test_central_order_parity_enforced():
    with pytest.raises(ValueError):
        bd.central_upper(3, 1)
    with pytest.raises(ValueError):
        bd.central_lower(3, 2)


def test_central_upper_equals_sasvari_upper():
    for n in (1, 4, 9):
        via_series = bd.central_upper(n, 2, 64)
        _, via_pair = bd.sasvari_pair(n, 64)
        assert via_series.exponent == via_pair.exponent
        assert via_series.value == via_pair.value


@pytest.mark.parametrize(
    "n,order,expected",
    [(3, 2, "0.95937450378689"), (3, 4, "0.95936885517397")],
)
def test_ratio_form_matches_published(n, order, expected):
    exponent = bd.central_exponent_coefficients(order).exponent_at(n)
    iv = ivl.exp(ivl.from_rational(exponent, 64))
    assert render_significant(iv, 14) == expected


@pytest.mark.parametrize(
    "n,order,expected",
    [
        (4, 2, "14.000020428169"),
        (10, 4, "16796.000000028"),
        (7, 4, "429.00000001710"),
    ],
)
def test_catalan_upper_values(n, order, expected):
    assert render_significant(bd.catalan_upper(n, order, 64).value, 14) == expected


def test_catalan_upper_is_central_over_succ():
    res = bd.catalan_upper(6, 2, 64)
    assert res.value == bd.central_upper(6, 2, 64).value / ivl.from_int(7, 64)
    with pytest.raises(ValueError):
        bd.catalan_upper(6, 6)


def test_degenerate_n_rejected_everywhere():
    for fn in (
        lambda: bd.agievich_central(0),
        lambda: bd.agievich_catalan(0),
        lambda: bd.sasvari_pair(0),
        lambda: bd.central_upper(0, 2),
        lambda: bd.central_lower(0, 1),
        lambda: bd.catalan_upper(0, 2),
        lambda: bd.central_ratio(0),
    ):
        with pytest.raises(ValueError):
            fn()


# -- general C(rs, s) bound ---------------------------------------------------------


def test_specialization_identity_r2():
    for s, order in [(1, 1), (4, 1), (7, 2), (13, 1), (3, 2)]:
        general = bd.general_rs_bound(2, s, order, 64)
        central = bd.central_upper(s, 2 * order, 64)
        assert general.exponent == central.exponent
        assert general.value == central.value


def test_general_bound_exceeds_exact():
    cases = [(3, 5, 1, 3003), (4, 10, 2, math.comb(40, 10)), (5, 3, 1, math.comb(15, 3))]
    for r, s, order, exact in cases:
        res = bd.general_rs_bound(r, s, order, 64)
        assert certainly_less(from_int(exact, 64), res.value) is TriState.YES


def test_general_bound_domain():
    with pytest.raises(ValueError):
        bd.general_rs_bound(1, 5, 1)
    with pytest.raises(ValueError):
        bd.general_rs_bound(3, 0, 1)
    with pytest.raises(ValueError):
        bd.general_rs_bound(3, 5, 0)


def test_general_exponent_specializes_to_series():
    for n in (1, 2, 9):
        for order in (2, 4):
            assert bd.general_exponent(n, 2, order) == bd.central_exponent_coefficients(
                order
            ).exponent_at(n)


# -- central ratio ------------------------------------------------------------------


def test_central_ratio_oracle():
    for n in (1, 6):
        oracle = (
            mpmath.binomial(2 * n, n) * mpmath.sqrt(mpmath.pi * n) / mpmath.mpf(4) ** n
        )
        assert_encloses(bd.central_ratio(n, 96), oracle)
    assert render_significant(bd.central_ratio(1, 64), 14) == "0.88622692545276"


def test_central_ratio_accepts_precomputed_binomial():
    assert bd.central_ratio(9, 64, central_binomial(9)) == bd.central_ratio(9, 64)


# -- tightness comparison -------------------------------------------------------------


def test_tightness_at_one():
    assert bd.tightness_gap(Fraction(1)) == Fraction(55, 72) - Fraction(1, 192) == Fraction(437, 576)
    upper_series = bd.sasvari_pair(1, 64)[1].value
    assert certainly_less(upper_series, bd.agievich_central(1, 64).value) is TriState.YES


def test_tightness_at_ten():
    assert bd.tightness_gap(Fraction(10)) == Fraction(55, 720) - Fraction(1, 192000) > 0
    upper_series = bd.sasvari_pair(10, 64)[1].value
    assert certainly_less(upper_series, bd.agievich_central(10, 64).value) is TriState.YES


def test_tightness_agrees_with_interval_route():
    for n in (1, 10):
        assert bd.tightness_gap(Fraction(n)) > 0
        upper_series = bd.sasvari_pair(n, 64)[1].value
        upper_gauss = bd.agievich_central(n, 64).value
        assert certainly_less(upper_series, upper_gauss) is TriState.YES


def test_gap_positive_and_vanishing():
    assert bd.tightness_gap(Fraction(1)) == Fraction(437, 576)
    assert bd.tightness_gap(Fraction(10**6)) > 0
    with pytest.raises(ValueError):
        bd.tightness_gap(Fraction(0))
