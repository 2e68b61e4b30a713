import math
import re
from fractions import Fraction

import mpmath
import pytest

import binomcert.bounds as bd
from binomcert import interval as ivl
from binomcert.combinatorics import catalan, central_binomial
from binomcert.interval import TriState, certainly_less, from_int, render_significant
from helpers import (
    as_fraction as frac,
    assert_encloses,
    bernoulli_akiyama_tanigawa,
    reference_central_ratio,
    reference_general_exponent,
    rel_width,
    tightness_gap,
)


# -- series coefficients ----------------------------------------------------------


def _central_terms(order: int) -> list[Fraction]:
    """t_1..t_order of the central series: t_j = D_j(1, 2) - D_(j-1)(1, 2)."""
    partial = [Fraction(0)] + [bd.general_exponent(1, 2, j) for j in range(1, order + 1)]
    return [b - a for a, b in zip(partial, partial[1:])]


def test_first_four_coefficients():
    terms = [Fraction(-1, 8), Fraction(1, 192), Fraction(-1, 640), Fraction(17, 14336)]
    assert _central_terms(4) == terms
    for order in (2, 4):  # each order's exponent is the prefix sum of the same terms
        assert bd.general_exponent(3, 2, order) == sum(
            t / 3 ** (2 * j - 1) for j, t in enumerate(terms[:order], start=1)
        )


def test_single_term_exponent():
    assert bd.general_exponent(1, 2, 1) == Fraction(-1, 8)


def test_order_range_enforced():
    for r in (2, 3):
        for order in (0, 21):
            with pytest.raises(ValueError, match=r"series order must be in 1\.\.20"):
                bd.general_exponent(1, r, order)


def test_general_rs_order_counts_against_the_cap():
    # GeneralRS at order N sums 2N terms, so N = 11 is past the cap
    with pytest.raises(ValueError, match=r"series order must be in 1\.\.20"):
        bd.general_rs_bound(3, 5, 11)
    assert bd.general_rs_bound(3, 5, 10).exponent == bd.general_exponent(5, 3, 20)


def test_general_rs_refuses_its_order_before_building_the_growth_factor(monkeypatch):
    # an order past the cap is refused before any power of d_r^(2s) is
    # taken, also when r*s is past its cap
    def unbuilt(*args):
        raise AssertionError("a power of the growth factor taken for an order past the cap")

    monkeypatch.setattr(ivl, "_pow", unbuilt)
    for r, s in ((3, 1_205_837), (2**64 - 1, 1), (3, 2**64), (2**64, 1)):
        with pytest.raises(ivl.DomainError, match=r"series order must be in 1\.\.20"):
            bd.general_rs_bound(r, s, 11)


def test_coefficient_double_derivation_through_20():
    # definition route vs simplified closed form, with Bernoulli numbers from
    # an independent oracle
    oracle_b = bernoulli_akiyama_tanigawa(40)
    terms = _central_terms(20)
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


def test_agievich_general_at_even_n_is_the_shifted_bound():
    # at n = 2m, k = m + j the Gaussian form is the recentred one term by
    # term: 2^(2m) / sqrt(pi m) exp(-j^2/m + 23/(36m)); both pass the
    # radicand m as one exact Fraction, so they share every Dyadic
    for p in (64, 512):
        for m in range(1, 60):
            for j in range(-m, m + 1):
                general = bd.agievich_general(2 * m, m + j, p)
                assert general == bd.agievich_shifted(m, j, p), (m, j, p)


def _assert_encloses_formula(res, formula, p: int) -> None:
    """res.value holds the value of ``formula()``, taken by mpmath at p + 96
    bits (an exponent near -1000 costs it about 10 of them), and is within
    the width contract of a bound: 2^(-p+8) (1 + |exponent|), the exponent
    being rounded to p bits before exp."""
    iv = res.value
    with mpmath.workprec(p + 96):  # the p-bit endpoints are exact here
        ref, slack = formula(), mpmath.ldexp(1, -p - 64)
        assert mpmath.ldexp(iv.lo.man, iv.lo.exp) <= ref * (1 + slack)
        assert ref * (1 - slack) <= mpmath.ldexp(iv.hi.man, iv.hi.exp)
    assert rel_width(iv) < 2.0 ** (-p + 8) * (1 + abs(res.exponent))


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def test_agievich_general_encloses_its_formula():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        st.integers(1, 2000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.sampled_from((64, 512)),
    )
    @hypothesis.example((1, 0), 64)
    @hypothesis.example((3, 1), 512)
    @hypothesis.example((2000, 0), 512)
    @hypothesis.example((1999, 1000), 64)
    def check(nk, p):
        n, k = nk
        exponent = -Fraction(2, n) * (k - Fraction(n, 2)) ** 2 + Fraction(23, 18 * n)
        _assert_encloses_formula(
            bd.agievich_general(n, k, p),
            lambda: mpmath.mpf(2) ** n / mpmath.sqrt(mpmath.pi * n / 2) * mpmath.exp(_mp(exponent)),
            p,
        )

    check()


def test_general_rs_at_r_3_and_above_encloses_its_formula():
    # c_r d_r^(2s) / sqrt(s) exp(D_2N(s, r)), c_r = 1/sqrt(2 pi (1 - 1/r)) and
    # d_r^2 = r^r / (r-1)^(r-1), with the exponent as the reference Fraction sum
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        st.integers(3, 6), st.integers(1, 200), st.integers(1, 10), st.sampled_from((64, 512))
    )
    @hypothesis.example(3, 5, 1, 64)
    @hypothesis.example(6, 200, 1, 512)
    @hypothesis.example(3, 1, 10, 512)
    def check(r, s, order, p):
        exponent = reference_general_exponent(s, r, 2 * order)
        growth = Fraction(r**r, (r - 1) ** (r - 1)) ** s

        def formula():
            root = mpmath.sqrt(2 * mpmath.pi * (1 - mpmath.mpf(1) / r) * s)
            return _mp(growth) / root * mpmath.exp(_mp(exponent))

        _assert_encloses_formula(bd.general_rs_bound(r, s, order, p), formula, p)

    check()


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
    exponent = bd.general_exponent(n, 2, order)
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


def test_growth_factor_encloses_the_reduced_fraction():
    # the quotient of rounded powers encloses d_r^(2s) = (r^r / (r-1)^(r-1))^s
    # within the module's width contract, and the bound is built from it
    for r in range(3, 7):
        growth = Fraction(r**r, (r - 1) ** (r - 1))
        for s in range(1, 201):
            for p in (64, 512):
                scale = bd._growth_factor(r, s, p)
                assert frac(scale.lo) <= growth**s <= frac(scale.hi), (r, s, p)
                assert rel_width(scale) < 2.0 ** (-p + 8), (r, s, p)
                exponent = bd.general_exponent(s, r, 2)
                composed = bd._evaluate(scale, Fraction(2 * (r - 1) * s, r), exponent, p)
                assert bd.general_rs_bound(r, s, 1, p).value == composed


def test_growth_factor_pairs_opposite_bounds_of_its_powers(monkeypatch):
    # the powers' bounds are far inside a p-bit ulp, so a wrong pairing of
    # their sides seldom shows above; with each power loosened to within a
    # factor 1 +- 2^-10 of b^e, only lower over upper and upper over lower
    # still enclose d_r^(2s)
    def loose(b, e, w, up):
        exact = b.man**e << (b.exp * e)
        return ivl.dyadic(exact * (1024 + 1 if up else 1024 - 1), -10)

    monkeypatch.setattr(ivl, "_pow", loose)
    for r in range(3, 7):
        for s in (1, 2, 50):
            scale = bd._growth_factor(r, s, 64)
            assert frac(scale.lo) < Fraction(r**r, (r - 1) ** (r - 1)) ** s < frac(scale.hi)


def test_general_rs_refuses_a_huge_growth_factor():
    # the cost of the rounded powers grows with the bits of r*s: 64 bits are
    # taken at any split of r and s, 65 are refused with the cap's name
    for r, s in ((2**64 - 1, 1), (3, (2**64 - 1) // 3), (2, 2**63 - 1), (10**6, 1), (10**7, 1)):
        assert (r * s).bit_length() <= bd.MAX_RS_BITS == 64
        assert bd.general_rs_bound(r, s, 1).value.lo.man > 0
    for r, s in ((2**64, 1), (3, (2**64 - 1) // 3 + 1), (2, 2**63), (3, 10**400)):
        bits = (r * s).bit_length()
        message = rf"r\*s has {bits} bits, over 64 \(MAX_RS_BITS\)$"
        with pytest.raises(ivl.DomainError, match=message):
            bd.general_rs_bound(r, s, 1)


def test_general_rs_past_the_decimal_cap_is_refused_by_the_renderer():
    # no cap of GeneralRS judges the size of d_3^(2s): s = 1,205,837 is built
    # and the renderer refuses its decimal exponent, as for every bound
    def render(s):
        return ivl.render_escalating(lambda p: bd.general_rs_bound(3, s, 1, p).value, 10)

    text = render(1_205_836)  # 9.829400014e1000000, at MAX_DECIMAL_EXPONENT
    assert (text[:10], len(text)) == ("9829400014", ivl.MAX_DECIMAL_EXPONENT + 1)
    with pytest.raises(ivl.DomainError, match=r"decimal exponent about 1000001 is outside"):
        render(1_205_837)


def test_unprintable_values_are_refused_before_exp(monkeypatch):
    # an exponent of over 4096 integer bits whose value is certainly beyond
    # MAX_DECIMAL_EXPONENT is refused with the renderer's message, before exp
    def no_exp(*args):
        raise AssertionError("exp called")

    monkeypatch.setattr(ivl, "exp", no_exp)
    for k, about in (
        (10**1000, "-8.686e+1998"),
        (-(10**2000), "-8.686e+3998"),
        (9 * 10**4299, "-7.036e+8598"),
    ):
        with pytest.raises(ivl.DomainError, match=re.escape(f"about {about} is outside")):
            bd.agievich_shifted(5, k)
    n = 2**4200  # 4^n exp(-n) / sqrt(pi n): the prefactor wins, far above the cap
    with pytest.raises(ivl.DomainError, match=r"decimal exponent about \d.*MAX_DECIMAL_EXPONENT"):
        bd.agievich_shifted(n, n)
    # k^2/n within a few units of 2n log 2: 4^n exp(-k^2/n) / sqrt(pi n) is
    # near 10^-632, so the value is left to exp and the renderer
    with mpmath.workdps(1400):
        k = int(mpmath.floor(n * mpmath.sqrt(2 * mpmath.log(2))))
    assert ivl.refuse_unprintable(ivl.exact_pow2(2 * n, 64), Fraction(-k * k, n)) is None


def test_general_exponent_matches_defining_sum():
    # the Binet summand for log C(rs, s) term by term, with Bernoulli numbers
    # from an independent oracle; r = 2 is the central series
    oracle_b = bernoulli_akiyama_tanigawa(40)
    for r in (2, 3, 4, 5):
        for s in (1, 2, 9, 50):
            total = Fraction(0)
            for order in range(1, 21):
                e = 2 * order - 1
                bracket = (
                    Fraction(1, (r * s) ** e) - Fraction(1, s**e) - Fraction(1, ((r - 1) * s) ** e)
                )
                total += oracle_b[2 * order] / (2 * order * e) * bracket
                assert bd.general_exponent(s, r, order) == total, (r, s, order)


def test_exponent_pair_is_the_reference_fraction_sum():
    """The integer pair, a Horner sum over L * s^(2 order - 1), is the
    ``Fraction`` sum it replaced, with a positive denominator."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(
        st.one_of(st.integers(1, 100), st.integers(1, 10**12)),
        st.integers(2, 5),
        st.integers(1, 20),
    )
    @hypothesis.example(1, 2, 1)
    @hypothesis.example(1, 5, 20)
    def check(s, r, order):
        num, den = bd.exponent_pair(s, r, order)
        assert den > 0
        assert Fraction(num, den) == bd.general_exponent(s, r, order)
        assert bd.general_exponent(s, r, order) == reference_general_exponent(s, r, order)

    check()


def test_exponent_pair_refuses_r_below_2_and_s_below_1():
    # the command line never reaches this check: general_rs_bound and the
    # central bounds refuse such r and n first
    for s, r in ((1, 1), (0, 2), (-3, 5)):
        with pytest.raises(ivl.DomainError, match=r"^exponent_pair: need r >= 2, s >= 1$"):
            bd.exponent_pair(s, r, 1)


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


def test_central_ratio_is_the_composed_route():
    """Each Dyadic step rounds as the composed interval route does, on the
    same side and at the same precision: at n = 1 (pi kept unrounded by
    the exact-one product), at powers of two and up to n = 10^5."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.one_of(
            st.integers(1, 400),
            st.integers(0, 16).map(lambda k: 2**k),
            st.integers(1, 10**5),
        ),
        st.sampled_from((2, 3, 8, 64, 128, 256, 512)),
    )
    @hypothesis.example(1, 64)
    @hypothesis.example(1, 2)
    @hypothesis.example(2, 64)
    @hypothesis.example(10**5, 512)
    def check(n, p):
        assert bd.central_ratio(n, p) == reference_central_ratio(n, p)

    check()


# -- tightness comparison -------------------------------------------------------------


def test_tightness_at_one():
    assert tightness_gap(Fraction(1)) == Fraction(55, 72) - Fraction(1, 192) == Fraction(437, 576)
    upper_series = bd.sasvari_pair(1, 64)[1].value
    assert certainly_less(upper_series, bd.agievich_central(1, 64).value) is TriState.YES


def test_tightness_at_ten():
    assert tightness_gap(Fraction(10)) == Fraction(55, 720) - Fraction(1, 192000) > 0
    upper_series = bd.sasvari_pair(10, 64)[1].value
    assert certainly_less(upper_series, bd.agievich_central(10, 64).value) is TriState.YES


def test_tightness_agrees_with_interval_route():
    for n in (1, 10):
        assert tightness_gap(Fraction(n)) > 0
        upper_series = bd.sasvari_pair(n, 64)[1].value
        upper_gauss = bd.agievich_central(n, 64).value
        assert certainly_less(upper_series, upper_gauss) is TriState.YES


def test_tightness_sign_is_the_integer_test():
    # dominance_sweep decides f(n) > 0 as 55 * 192 n^2 > 72, f times 72 * 192 n^3;
    # the rationals here straddle the root x = sqrt(72 / (55 * 192)) = 0.08257...
    for x in (Fraction(k, 10**4) for k in range(800, 850)):
        assert (tightness_gap(x) > 0) == (55 * 192 * x * x > 72), x
    assert tightness_gap(Fraction(825, 10**4)) < 0 < tightness_gap(Fraction(826, 10**4))


def test_gap_positive_and_vanishing():
    assert tightness_gap(Fraction(1)) == Fraction(437, 576)
    assert tightness_gap(Fraction(10**6)) > 0
