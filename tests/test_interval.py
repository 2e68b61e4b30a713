import random
from fractions import Fraction

import mpmath
import pytest

from binomcert.interval import (
    Dyadic,
    IntervalReal,
    MAX_DIGITS,
    NeedsMorePrecision,
    PrecisionPolicy,
    TriState,
    certainly_less,
    exp,
    from_int,
    from_rational,
    UNDETERMINED,
    pi,
    render_escalating,
    render_significant,
    round_significant,
    sqrt,
)
from binomcert.interval import _HUTTON  # second, structurally different pi series
from helpers import assert_encloses


def frac(iv_dyadic: Dyadic) -> Fraction:
    return iv_dyadic.as_fraction()


# -- construction ---------------------------------------------------------------


def test_from_rational_dyadic_is_exact():
    for q in (Fraction(1, 2), Fraction(-1, 8), Fraction(5), Fraction(0), Fraction(-9, 4)):
        iv = from_rational(q, 16)
        assert iv.is_exact()
        assert frac(iv.lo) == q


def test_from_rational_one_third_width():
    iv = from_rational(Fraction(1, 3), 8)
    assert frac(iv.lo) <= Fraction(1, 3) <= frac(iv.hi)
    assert frac(iv.hi) - frac(iv.lo) <= Fraction(1, 2**7)


def test_from_rational_random_containment():
    rng = random.Random(11)
    for _ in range(2000):
        q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        iv = from_rational(q, 64)
        assert iv.contains(q)
        assert frac(iv.hi) - frac(iv.lo) <= (abs(q) + Fraction(1)) / 2**62


def test_interval_validation():
    with pytest.raises(ValueError):
        IntervalReal(Dyadic(2, 0), Dyadic(1, 0), 16)
    with pytest.raises(ValueError):
        from_rational(Fraction(1, 3), 1)


@pytest.mark.parametrize(
    "lo,hi,expected",
    [
        (Dyadic(5, 0), Dyadic(5, 0), 0.0),  # exact
        (Dyadic(0, 0), Dyadic(1, 0), float("inf")),  # zero endpoint
        (Dyadic(-1, 0), Dyadic(0, 0), float("inf")),
        # endpoints near 2**5000, far beyond the float range: still finite
        (Dyadic(3, 5000), Dyadic(5, 5000), 2 / 3),
        (Dyadic((1 << 80) + 1, 4920), Dyadic((1 << 80) + 7, 4920), 1.5 * 2.0**-78),
        (Dyadic(-((1 << 80) + 7), 4920), Dyadic(-((1 << 80) + 1), 4920), 1.5 * 2.0**-78),
        (Dyadic(1, -5000), Dyadic(1, 5000), float("inf")),  # ratio past the float range
    ],
)
def test_rel_width_pinned(lo, hi, expected):
    assert IntervalReal(lo, hi, 64).rel_width() == expected


# -- field operations -------------------------------------------------------------


def test_add_exact():
    s = from_int(1, 53) + from_int(2, 53)
    assert s.is_exact() and frac(s.lo) == 3


def test_mul_spans_sign_change():
    a = IntervalReal(Dyadic(1, 0), Dyadic(1, 1), 53)  # [1, 2]
    b = IntervalReal(Dyadic(-1, 0), Dyadic(1, 0), 53)  # [-1, 1]
    m = a * b
    assert frac(m.lo) <= -2 and frac(m.hi) >= 2


def test_mul_by_exact_one_is_identity():
    p = pi(64)
    assert (p * from_int(1, 64)).lo == p.lo
    assert (p * from_int(1, 64)).hi == p.hi


def test_division_by_zero_interval():
    with pytest.raises(ZeroDivisionError):
        from_int(1, 53) / IntervalReal(Dyadic(-1, -20), Dyadic(1, -20), 53)
    with pytest.raises(ZeroDivisionError):
        from_int(1, 53) / from_int(0, 53)


def test_division_values():
    q = from_int(10, 64) / from_int(4, 64)
    assert q.contains(Fraction(5, 2))
    q = from_int(-9, 64) / from_int(2, 64)
    assert q.contains(Fraction(-9, 2))


def test_composed_containment_100k_points():
    # containment soundness over randomized rational points: the interval
    # route must always enclose the exact rational evaluation
    rng = random.Random(20260811)
    for _ in range(100_000):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        c = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        ia, ib, ic = (from_rational(x, 64) for x in (a, b, c))
        iv = (ia + ib) * ic - ia / ic
        assert iv.contains((a + b) * c - a / c)


def test_monotone_refinement():
    # same expression, doubled precision: the tighter enclosure nests inside
    rng = random.Random(3)
    for _ in range(300):
        a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        for p in (16, 32, 64):
            lo_p = sqrt(from_rational(a, p) * pi(p)) + exp(from_rational(-b / (b + 1), p))
            lo_2p = sqrt(from_rational(a, 2 * p) * pi(2 * p)) + exp(
                from_rational(-b / (b + 1), 2 * p)
            )
            assert frac(lo_p.lo) <= frac(lo_2p.lo) <= frac(lo_2p.hi) <= frac(lo_p.hi)


# -- sqrt -------------------------------------------------------------------------


def test_sqrt_examples():
    assert sqrt(from_int(4, 64)).is_exact()
    assert frac(sqrt(from_int(4, 64)).lo) == 2
    assert frac(sqrt(from_int(0, 64)).lo) == 0
    s = sqrt(from_int(2, 64))
    assert frac(s.lo) ** 2 <= 2 <= frac(s.hi) ** 2
    assert frac(s.hi) - frac(s.lo) <= Fraction(1, 2**62)
    assert_encloses(s, mpmath.sqrt(2))
    with pytest.raises(ValueError):
        sqrt(from_int(-1, 64))


def test_sqrt_square_encloses_input():
    rng = random.Random(5)
    for _ in range(2000):
        d = Dyadic(rng.randint(0, 2**40), rng.randint(-40, 20))
        x = IntervalReal(d, d, 48)
        s = sqrt(x)
        sq = s * s
        assert frac(sq.lo) <= frac(x.lo) <= frac(sq.hi)


# -- exp --------------------------------------------------------------------------


def test_exp_zero_is_exact_one():
    e0 = exp(from_int(0, 64))
    assert e0.is_exact() and frac(e0.lo) == 1


def test_exp_one_encloses_e():
    assert_encloses(exp(from_int(1, 64)), mpmath.e)


def test_exp_matches_table_anchor():
    # exp(-1/8 + 1/192) = exp(-23/192), the order-2 ratio bound at n=1
    iv = exp(from_rational(Fraction(-1, 8) + Fraction(1, 192), 64))
    assert_encloses(iv, mpmath.exp(mpmath.mpf(-23) / 192))
    assert render_significant(iv, 14) == "0.88710523105688"


@pytest.mark.parametrize(
    "q",
    [
        Fraction(-64),
        Fraction(64),
        Fraction(-15, 2),
        Fraction(13),
        Fraction(1, 7),
        Fraction(-3, 11),
    ],
)
def test_exp_sound_across_domain(q):
    iv = exp(from_rational(q, 80))
    assert_encloses(iv, mpmath.exp(mpmath.mpf(q.numerator) / q.denominator))
    assert iv.lo.man > 0  # exp is positive
    assert iv.rel_width() < 2**-70


def test_exp_product_identity_never_refuted():
    prev_width = None
    for p in (32, 64, 128, 256):
        a = from_rational(Fraction(7, 13), p)
        prod = exp(a) * exp(-a)
        one = from_int(1, p)
        assert certainly_less(prod, one) is not TriState.NO
        assert certainly_less(one, prod) is not TriState.NO
        assert prod.contains(1)
        w = frac(prod.hi) - frac(prod.lo)
        if prev_width is not None:
            assert w < prev_width
        prev_width = w


def test_exp_wide_interval_hull():
    wide = IntervalReal(Dyadic(-2, 0), Dyadic(3, 0), 64)
    iv = exp(wide)
    assert_encloses(iv, mpmath.exp(-2))
    assert_encloses(iv, mpmath.exp(3))


# -- pi ---------------------------------------------------------------------------


def test_pi_contains_reference():
    iv = pi(53)
    assert_encloses(iv, mpmath.pi)
    assert render_significant(iv, 15) == "3.14159265358979"


def test_pi_width_and_nesting():
    for p in (8, 16, 53, 128, 256):
        iv = pi(p)
        assert frac(iv.hi) - frac(iv.lo) <= Fraction(4, 2**p)
    inner, outer = pi(53), pi(8)
    assert frac(outer.lo) <= frac(inner.lo) <= frac(inner.hi) <= frac(outer.hi)


def test_pi_two_formulas_overlap_to_256():
    for p in range(2, 257):
        a = pi(p)
        b = pi(p, _HUTTON)
        assert frac(a.lo) <= frac(b.hi) and frac(b.lo) <= frac(a.hi), p


def test_pi_requires_sane_precision():
    with pytest.raises(ValueError):
        pi(1)


# -- comparison -------------------------------------------------------------------


def test_certainly_less_tristate():
    mk = lambda a, b: IntervalReal(Dyadic(a, 0), Dyadic(b, 0), 16)
    assert certainly_less(mk(1, 2), mk(3, 4)) is TriState.YES
    assert certainly_less(mk(1, 3), mk(2, 4)) is TriState.UNKNOWN
    assert certainly_less(mk(5, 6), mk(1, 2)) is TriState.NO


# -- rendering --------------------------------------------------------------------


def test_round_significant_basics():
    assert round_significant(Fraction(1, 3), 10) == "0.3333333333"
    assert round_significant(Fraction(2), 1) == "2"
    assert round_significant(Fraction(-1, 3), 4) == "-0.3333"
    assert round_significant(Fraction(12345), 3) == "12300"
    assert round_significant(Fraction(9999, 10), 3) == "1000"
    assert round_significant(Fraction(0), 5) == "0"


def test_round_significant_half_even_ties():
    assert round_significant(Fraction(1, 8), 2) == "0.12"  # 0.125 -> even neighbor
    assert round_significant(Fraction(3, 8), 2) == "0.38"  # 0.375 -> even neighbor
    assert round_significant(Fraction(25, 10), 1) == "2"
    assert round_significant(Fraction(35, 10), 1) == "4"


def test_render_refuses_wide_interval():
    with pytest.raises(NeedsMorePrecision):
        render_significant(IntervalReal(Dyadic(1, 0), Dyadic(2, 0), 16), 3)
    with pytest.raises(NeedsMorePrecision):
        render_significant(IntervalReal(Dyadic(-1, -8), Dyadic(1, -8), 16), 3)


def test_round_significant_beyond_int_str_limit():
    # magnitudes past Python's 4300-digit int-to-str limit; the string is
    # checked by its leading digits and length, since Fraction(s) would hit
    # that limit too
    s = round_significant(Fraction(12345 * 10**4400 + 1), 3)
    assert s[:3] == "123" and set(s[3:]) == {"0"} and len(s) == 4405
    assert round_significant(Fraction(1, 3 * 10**4400), 3) == "0." + "0" * 4400 + "333"


def test_round_significant_digits_stop_at_int_str_limit():
    # every printed digit passes through one int-to-str conversion, so the
    # digit count is capped at Python's limit rather than failing inside it
    assert MAX_DIGITS == 4300
    assert round_significant(Fraction(1, 3), MAX_DIGITS) == "0." + "3" * MAX_DIGITS
    with pytest.raises(ValueError, match="4300"):
        round_significant(Fraction(1, 3), MAX_DIGITS + 1)


def printed_ulp(s: str, digits: int) -> Fraction:
    # the unit in the last printed place, 10**(e - digits + 1) with e the
    # exponent of the leading digit; an integer such as "1000000" at 3 digits
    # has ulp 10**4, which its trailing zeros do not tell
    whole, _, frac_part = s.lstrip("-").partition(".")
    if whole != "0":
        e = len(whole) - 1
    else:
        e = -(len(frac_part) - len(frac_part.lstrip("0")) + 1)
    return Fraction(10) ** (e - digits + 1)


def test_render_escalating_retries_until_digits_are_proved():
    tried = []

    def third(p):
        tried.append(p)
        return from_rational(Fraction(1, 3), p)

    # 30 digits need about 100 bits: refused at 64, proved at 128
    assert render_escalating(third, 30, PrecisionPolicy(64, 512)) == "0." + "3" * 30
    assert tried == [64, 128]
    tried.clear()
    assert render_escalating(third, 30, PrecisionPolicy(8, 32)) == UNDETERMINED
    assert tried == [8, 16, 32]



@pytest.mark.parametrize(
    "q, digits, expected, ulp",
    [
        # the seed-13 draw of the random test below: 1002380.4256... at 3 digits
        (Fraction(935452486979, 933231), 3, "1000000", Fraction(10**4)),
        (Fraction(99996, 100), 3, "1000", Fraction(10)),  # carry into a new decade
        (Fraction(1, 3000), 2, "0.00033", Fraction(1, 10**5)),
    ],
)
def test_render_reparse_pinned(q, digits, expected, ulp):
    iv = from_rational(q, 64)
    s = render_significant(iv, digits)
    assert s == expected and printed_ulp(s, digits) == ulp
    v = Fraction(s)
    assert v - ulp / 2 <= frac(iv.lo) and frac(iv.hi) <= v + ulp / 2


def test_render_reparse_contains_interval():
    # a rendered s-digit decimal, re-read as value +- half ulp, must contain
    # the certified interval it was printed from
    rng = random.Random(13)
    done = 0
    while done < 500:
        q = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**6))
        iv = from_rational(q, 64)
        digits = rng.randint(1, 12)
        try:
            s = render_significant(iv, digits)
        except NeedsMorePrecision:
            continue
        done += 1
        v = Fraction(s)
        # ulp from the requested digit count and the printed leading exponent
        ulp = printed_ulp(s, digits)
        assert v - ulp / 2 <= frac(iv.lo) and frac(iv.hi) <= v + ulp / 2


def test_width_slack_of_artifact_compositions():
    # documented slack: the package's bound-shaped compositions stay within
    # 2**(-p+8) relative width
    for p in (32, 64, 128, 256):
        for n in (1, 7, 100):
            root = sqrt(pi(p) * from_int(n, p))
            bound = (from_rational(Fraction(4) ** n, p) / root) * exp(
                from_rational(Fraction(-1, 8 * n), p)
            )
            assert bound.rel_width() <= 2.0 ** (-p + 8)


def test_precision_policy():
    policy = PrecisionPolicy(64, 512)
    assert list(policy.precisions()) == [64, 128, 256, 512]
    with pytest.raises(ValueError):
        PrecisionPolicy(64, 32)
