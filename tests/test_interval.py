import math
import operator
import random
import re
from fractions import Fraction

import mpmath
import pytest

from binomcert import bounds as bd
from binomcert import interval
from binomcert.interval import (
    DomainError,
    Dyadic,
    IntervalReal,
    MAX_DECIMAL_EXPONENT,
    MAX_DIGITS,
    MAX_PRECISION,
    NeedsMorePrecision,
    PrecisionPolicy,
    TriState,
    certainly_less,
    exact_pow2,
    exp,
    from_int,
    from_rational,
    UNDETERMINED,
    pi,
    render_escalating,
    power,
    render_significant,
    scaled_width,
    sqrt,
)
from binomcert.interval import (
    _atan_inv_scaled,
    _divmod_short,
    _exp_endpoint,
    _exp_squared,
    _pow,
    _quotient,
)
from binomcert.bounds import general_exponent
from helpers import (
    _add,
    _round_to_int,
    as_fraction as frac,
    assert_encloses,
    contains,
    hutton_pi,  # a second, structurally different pi series
    is_exact,
    midpoint_exp,
    mpf_to_fraction,
    oracle_bracket,
    reference_atan_inv_scaled,
    reference_div,
    reference_exp,
    reference_mul,
    reference_round_significant,
    reference_scaled_width,
    rel_width,
    width,
)


# -- construction ---------------------------------------------------------------


def test_from_rational_dyadic_is_exact():
    for q in (Fraction(1, 2), Fraction(-1, 8), Fraction(5), Fraction(0), Fraction(-9, 4)):
        iv = from_rational(q, 16)
        assert is_exact(iv)
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
        assert contains(iv, q)
        assert frac(iv.hi) - frac(iv.lo) <= (abs(q) + Fraction(1)) / 2**62


def test_interval_validation():
    with pytest.raises(ValueError):
        IntervalReal(Dyadic(2, 0), Dyadic(1, 0), 16)
    with pytest.raises(ValueError):
        from_rational(Fraction(1, 3), 1)
    with pytest.raises(ValueError):
        from_rational((2, 6), 1)
    with pytest.raises(ValueError):
        from_int(1, 1)


def test_from_rational_takes_the_unreduced_pair():
    """Without a gcd, an unreduced pair gives the Dyadics of its reduced
    ``Fraction``: always for the series exponents, and for any pair but one
    whose reduced form is a dyadic of more than p bits, kept exact there."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    precs = st.sampled_from((2, 3, 8, 64, 512))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(1, 10**6), st.integers(2, 5), st.integers(1, 20), precs)
    @hypothesis.example(1, 2, 1, 2)  # -1/8: a power-of-two denominator, exact
    @hypothesis.example(64, 2, 1, 3)
    @hypothesis.example(64, 2, 2, 512)
    def check_series(n, r, order, p):
        pair = bd.exponent_pair(n, r, order)
        assert from_rational(pair, p) == from_rational(Fraction(*pair), p)

    @hypothesis.settings(max_examples=600, deadline=None)
    @hypothesis.given(
        st.integers(-(2**200), 2**200),
        st.one_of(st.integers(1, 2**200), st.integers(0, 200).map(lambda k: 2**k)),
        st.integers(1, 2**70),
        precs,
    )
    @hypothesis.example(3, 4, 3, 2)  # 9/12: dyadic, 2 bits
    @hypothesis.example(7, 8, 3, 2)  # 21/24: dyadic, 3 bits at p = 2
    @hypothesis.example(0, 1, 5, 8)
    def check_any(num, den, g, p):
        q = Fraction(num, den)
        got = from_rational((q.numerator * g, q.denominator * g), p)
        dyadic_q = q.denominator & (q.denominator - 1) == 0
        if dyadic_q and abs(q.numerator).bit_length() > p:
            assert contains(got, q)
        else:
            assert got == from_rational(q, p)

    check_series()
    check_any()


def _grid(x: Fraction, p: int) -> tuple[Fraction, Fraction]:
    """Floor and ceiling of x != 0 on the grid of p-bit dyadics at x's
    leading bit: steps of 2**(e - p + 1), with 2**e <= |x| < 2**(e + 1)."""
    num, den = abs(x.numerator), x.denominator
    e = num.bit_length() - den.bit_length()
    if num << max(0, -e) < den << max(0, e):
        e -= 1
    step = Fraction(2) ** (e - p + 1)
    k = math.floor(x / step)
    return k * step, (k if k * step == x else k + 1) * step


def test_quotient_keeps_p_plus_3_or_4_bits_at_any_lengths():
    """One quotient rule for ``from_rational`` and ``/``: the shift lands on
    the numerator or the divisor, so q has p + 3 or p + 4 bits for operand
    lengths 1:2000 to 2000:1, and both round it to the floor and ceiling of
    the exact quotient on the p-bit grid."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    length = st.integers(1, 2000).flatmap(lambda k: st.integers(2 ** (k - 1), 2**k - 1))

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(length, length, st.sampled_from((1, -1)), st.sampled_from((2, 8, 64, 512)))
    @hypothesis.example(1, 2**1999 + 1, -1, 2)
    @hypothesis.example(2**2000 - 1, 3, 1, 512)
    @hypothesis.example(2**2000 - 1, 2**100, -1, 8)  # a floor below zero that carries
    def check(mag, den, sign, p):
        num = sign * mag
        q, r, e = _quotient(num, den, p)
        assert q * (den << max(0, e)) + r == num << max(0, -e)  # the shifted numerator
        assert 0 <= r < den << max(0, e)
        # the quotient of the magnitudes; the floor of a negative one may carry past it
        assert (abs(q) - (q < 0 < r)).bit_length() in (p + 3, p + 4)
        x = Fraction(num, den)
        iv = from_rational((num, den), p)
        if den & (den - 1):
            assert (frac(iv.lo), frac(iv.hi)) == _grid(x, p)
        else:  # a power-of-two denominator is exact
            assert is_exact(iv) and frac(iv.lo) == x
        quot = from_int(mag, p) / from_int(den, p)
        assert (frac(quot.lo), frac(quot.hi)) == _grid(abs(x), p)

    check()


def test_quotient_at_the_growth_cap_is_pinned():
    # r = 4 at s = 2^22 // 8: 4^(4s) has 2^22 + 1 bits over a 3^(3s) of
    # about 2.5 million; the Dyadics were recorded from the division of the
    # whole shifted numerator, about 4 s each on 2 vCPUs
    s = 2**22 // 8
    num, den = 4 ** (4 * s), 3 ** (3 * s)
    pinned = {
        8: (Dyadic(93, 1701367), Dyadic(187, 1701366)),
        64: (Dyadic(6711150039411520931, 1701311), Dyadic(13422300078823041863, 1701310)),
    }
    for p, (lo, hi) in pinned.items():
        iv = from_rational((num, den), p)
        assert (iv.lo, iv.hi) == (lo, hi)
        quot = from_int(num, p) / from_int(den, p)
        assert (quot.lo, quot.hi) == (lo, hi)


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
    assert rel_width(IntervalReal(lo, hi, 64)) == expected


@pytest.mark.parametrize(
    "iv,text",
    [
        (from_int(0, 53), "IntervalReal[0.0, 0.0; p=53]"),
        (exp(from_int(1, 64)), "IntervalReal[2.718281828459045, 2.718281828459045; p=64]"),
        (IntervalReal(Dyadic(-3, -2), Dyadic(5, 0), 16), "IntervalReal[-0.75, 5.0; p=16]"),
        # beyond the float range an endpoint saturates with its own sign
        (IntervalReal(Dyadic(-1, 5000), Dyadic(1, 5000), 8), "IntervalReal[-inf, inf; p=8]"),
        (
            IntervalReal(Dyadic(-(1 << 3000) - 1, 5000), Dyadic((1 << 3000) + 1, 5000), 8),
            "IntervalReal[-inf, inf; p=8]",
        ),
    ],
)
def test_repr_pinned(iv, text):
    assert repr(iv) == text


# -- field operations -------------------------------------------------------------


def test_mul_positive_endpoints():
    a = IntervalReal(Dyadic(1, 0), Dyadic(1, 1), 53)  # [1, 2]
    b = IntervalReal(Dyadic(3, 0), Dyadic(1, 2), 53)  # [3, 4]
    m = a * b
    assert (frac(m.lo), frac(m.hi)) == (3, 8)
    m = a * from_int(3, 53)
    assert (frac(m.lo), frac(m.hi)) == (3, 6)


def test_mul_by_exact_one_is_identity():
    p = pi(64)
    assert (p * from_int(1, 64)).lo == p.lo
    assert (p * from_int(1, 64)).hi == p.hi


def test_division_by_zero_interval():
    with pytest.raises(ValueError, match="positive"):
        from_int(1, 53) / IntervalReal(Dyadic(-1, -20), Dyadic(1, -20), 53)
    with pytest.raises(ValueError, match="positive"):
        from_int(1, 53) / from_int(0, 53)


_NONPOSITIVE = [
    from_int(0, 53),
    from_int(-3, 53),
    IntervalReal(Dyadic(-1, -20), Dyadic(1, -20), 53),  # straddles zero
    IntervalReal(Dyadic(0, 0), Dyadic(1, 0), 53),  # touches zero
    IntervalReal(Dyadic(-5, 0), Dyadic(-1, 0), 53),
]


@pytest.mark.parametrize("bad", _NONPOSITIVE)
def test_mul_div_refuse_nonpositive_operands(bad):
    for good in (from_int(2, 53), from_int(1, 53), pi(53)):
        for op in (operator.mul, operator.truediv):
            with pytest.raises(ValueError, match="positive"):
                op(good, bad)
            with pytest.raises(ValueError, match="positive"):
                op(bad, good)
    assert frac((bad - from_int(1, 53)).hi) == frac(bad.hi) - 1  # - takes any sign


def test_division_values():
    q = from_int(10, 64) / from_int(4, 64)
    assert contains(q, Fraction(5, 2))
    q = from_int(9, 64) / from_int(2, 64)
    assert contains(q, Fraction(9, 2))
    q = from_int(1, 64) / from_int(3, 64)
    assert frac(q.lo) < Fraction(1, 3) < frac(q.hi)
    assert abs(q.lo.man).bit_length() <= 64 and abs(q.hi.man).bit_length() <= 64


def test_mul_div_agree_with_reference_routes():
    """On positive operands the one-formula product is the sign-case
    product Dyadic for Dyadic, and so is the quotient unless the divisor is
    exact: there the reference keeps its unrounded p + 2 or p + 3 bits, and
    the quotient is that rounded outward to p bits."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    precs = st.sampled_from((2, 3, 16, 64, 512))

    @st.composite
    def positive(draw):
        p = draw(precs)
        kind = draw(st.sampled_from(("one", "point", "narrow", "wide")))
        if kind == "one":
            return from_int(1, p)
        lo = interval.dyadic(draw(st.integers(1, 2**600)), draw(st.integers(-700, 700)))
        if kind == "point":
            return IntervalReal(lo, lo, p)
        bits = draw(st.integers(0, 8) if kind == "narrow" else st.integers(9, 700))
        w = interval.dyadic(draw(st.integers(1, 2**bits)), lo.exp)
        hi = interval.dyadic(*_add(lo, w))
        return IntervalReal(lo, hi, p)

    @hypothesis.settings(max_examples=1500, deadline=None)
    @hypothesis.given(positive(), positive())
    @hypothesis.example(pi(64), from_int(1, 64))  # keeps pi's unrounded endpoints
    @hypothesis.example(from_int(1, 2), pi(512))
    def check(a, b):
        assert a * b == reference_mul(a, b)
        ref = reference_div(a, b)
        if b.lo == b.hi:
            p = ref.prec
            lo, hi = interval._round(*ref.lo, p, False), interval._round(*ref.hi, p, True)
            ref = IntervalReal(lo, hi, p)
        assert a / b == ref

    check()


def test_private_constructor_builds_ordered_intervals(monkeypatch):
    """Every interval ``_ordered`` builds in random chains of ``-``, ``*``,
    ``/``, sqrt and exp on exact and rounded inputs has lo <= hi."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    built = []
    ordered = interval._ordered

    def recording(lo, hi, p):
        built.append((lo, hi, p))
        return ordered(lo, hi, p)

    monkeypatch.setattr(interval, "_ordered", recording)
    rationals = st.fractions(-(10**6), 10**6, max_denominator=10**6)
    ops = st.sampled_from(("sub", "mul", "div", "sqrt", "exp"))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.lists(rationals, min_size=1, max_size=4),
        st.lists(st.tuples(ops, st.integers(0, 99), st.integers(0, 99)), max_size=12),
        st.sampled_from((2, 3, 16, 64, 256)),
    )
    def check(qs, steps, p):
        built.clear()
        pool = [from_int(7, p), exact_pow2(-3, p)]
        pool += [from_rational(q, p) for q in qs]
        pool += [from_rational((3 * q.numerator, 3 * q.denominator), p) for q in qs]
        for op, i, j in steps:
            a, b = pool[i % len(pool)], pool[j % len(pool)]
            positive = a.lo.man > 0 and b.lo.man > 0
            if op in ("mul", "div") and positive:
                pool.append(a * b if op == "mul" else a / b)
            elif op == "sqrt" and a.lo.man >= 0:
                pool.append(sqrt(a))
            elif op == "exp" and frac(a.hi) < 40:
                pool.append(exp(a))
            else:
                pool.append(a - b)
        assert len(built) >= 2 + 2 * len(qs)  # one per input at least; products by one reuse
        assert all(interval._cmp(lo, hi) <= 0 and q >= 2 for lo, hi, q in built)

    check()


def test_scaled_width_is_the_normalising_route():
    """The unnormalised widths and hi-or-minus-lo magnitudes give the
    reference's float on positive, negative, straddling and exact pairs."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def neg(d):
        return Dyadic(-d.man, d.exp)

    @st.composite
    def enclosure(draw):
        kind = draw(st.sampled_from(("positive", "negative", "straddling", "exact", "zero")))
        if kind == "zero":
            return from_int(0, 64)
        lo = interval.dyadic(draw(st.integers(1, 2**300)), draw(st.integers(-400, 400)))
        if kind == "exact":
            d = lo if draw(st.booleans()) else neg(lo)
            return IntervalReal(d, d, 64)
        w = interval.dyadic(draw(st.integers(1, 2**300)), draw(st.integers(-400, 400)))
        if kind == "straddling":
            return IntervalReal(neg(lo), w, 64)
        hi = interval.dyadic(*_add(lo, w))
        return IntervalReal(lo, hi, 64) if kind == "positive" else IntervalReal(neg(hi), neg(lo), 64)

    @hypothesis.settings(max_examples=800, deadline=None)
    @hypothesis.given(enclosure(), enclosure())
    @hypothesis.example(from_int(0, 64), from_int(0, 64))
    @hypothesis.example(from_int(5, 64), from_int(-5, 64))
    # lo far below hi, which scaled_width replaces by a proxy: a borrow out of
    # a power of two, a carry into all ones, and a hi with bits below 2**-64 hi
    @hypothesis.example(IntervalReal(Dyadic(1, -100), Dyadic(1, 0), 64), from_int(1, 64))
    @hypothesis.example(IntervalReal(Dyadic(-3, -200), Dyadic(2**60 - 1, 0), 64), from_int(1, 64))
    @hypothesis.example(IntervalReal(Dyadic(1, -80), Dyadic(2**80 + 1, -10), 64), from_int(3, 64))
    def check(a, b):
        assert scaled_width(a, b) == reference_scaled_width(a, b)

    check()


@pytest.mark.parametrize(
    "lo, hi",
    [
        (Dyadic(3, -7), Dyadic(5, 10**12)),
        (Dyadic(3, -(10**12)), Dyadic(5, 0)),
        (Dyadic(3, -2 * 10**12), Dyadic(5, -(10**12))),
    ],
)
def test_scaled_width_of_endpoints_an_exponent_gap_apart(lo, hi):
    # exp(D_20(1)) at 4 bits spans such a gap; hi - lo in full would be an
    # integer of 10^12 bits.  The 53 leading bits of 5 * 2**e - lo, over
    # 5 * 2**e, are those of the exact difference
    far = IntervalReal(lo, hi, 4)
    assert scaled_width(far, far) == 1 - 2**-52
    assert scaled_width(far, from_int(1, 4)) == (0.0 if hi.exp < 0 else 1 - 2**-52)


def test_composed_containment_100k_points():
    # containment soundness over randomized rational points: the interval
    # route must always enclose the exact rational evaluation
    rng = random.Random(20260811)
    for _ in range(100_000):
        a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        c = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        ia, ib, ic = (from_rational(x, 64) for x in (a, b, c))
        iv = (ia / ib) * ic - ia / ic
        assert contains(iv, (a / b) * c - a / c)


def test_monotone_refinement():
    # same expression, doubled precision: the tighter enclosure nests inside
    rng = random.Random(3)
    for _ in range(300):
        a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        for p in (16, 32, 64):
            lo_p = sqrt(from_rational(a, p) * pi(p)) - exp(from_rational(-b / (b + 1), p))
            lo_2p = sqrt(from_rational(a, 2 * p) * pi(2 * p)) - exp(
                from_rational(-b / (b + 1), 2 * p)
            )
            assert frac(lo_p.lo) <= frac(lo_2p.lo) <= frac(lo_2p.hi) <= frac(lo_p.hi)


# -- sqrt -------------------------------------------------------------------------


def test_sqrt_examples():
    assert is_exact(sqrt(from_int(4, 64)))
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


def test_sqrt_rounds_a_radicand_one_above_a_square_up():
    # the up endpoint takes the ceiling of d / 2**42 = 768**2 + 1/2**42: a
    # floor there would give 768 * 2**21, whose square is below d
    d = (3 * 2**9) ** 2 * 2**40 + 1
    r = interval._sqrt(interval.dyadic(d), 8, True)
    assert r == Dyadic(769, 21)
    assert frac(r) ** 2 >= d


def test_sqrt_endpoints_bracket_radicands_just_above_squares():
    # (square) * 2**k + 1: the dropped low bits are a lone 1, which only the
    # ceiling of the radicand keeps, and the isqrt of the rest is exact
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def radicand(draw):
        root, k = draw(st.integers(1, 2**80)), draw(st.integers(0, 200))
        return interval.dyadic(root * root * 2**k + 1, draw(st.integers(-64, 64)))

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(radicand(), st.sampled_from((8, 16, 32, 64)))
    @hypothesis.example(interval.dyadic((3 * 2**9) ** 2 * 2**40 + 1), 8)
    def check(d, p):
        lo, hi = interval._sqrt(d, p, False), interval._sqrt(d, p, True)
        assert frac(lo) ** 2 <= frac(d) <= frac(hi) ** 2

    check()


# -- exp --------------------------------------------------------------------------


def test_exp_zero_is_exact_one():
    e0 = exp(from_int(0, 64))
    assert is_exact(e0) and frac(e0.lo) == 1


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
    assert rel_width(iv) < 2**-70


def test_exp_product_identity_never_refuted():
    prev_width = None
    for p in (32, 64, 128, 256):
        prod = exp(from_rational(Fraction(7, 13), p)) * exp(from_rational(Fraction(-7, 13), p))
        one = from_int(1, p)
        assert certainly_less(prod, one) is not TriState.NO
        assert certainly_less(one, prod) is not TriState.NO
        assert contains(prod, 1)
        w = frac(prod.hi) - frac(prod.lo)
        if prev_width is not None:
            assert w < prev_width
        prev_width = w


def test_exp_wide_interval_hull():
    for lo, hi in ((-2, 3), (-200, 200), (-3, -0.25), (0.25, 7)):
        a = IntervalReal(from_rational(Fraction(lo), 64).lo, from_rational(Fraction(hi), 64).hi, 64)
        iv = exp(a)
        assert_encloses(iv, mpmath.exp(lo))
        assert_encloses(iv, mpmath.exp(hi))


def _exp_bracket(q: Fraction) -> tuple[Fraction, Fraction]:
    """Rationals lo < exp(q) < hi from mpmath at 3000 bits."""
    with mpmath.workprec(3000):
        return oracle_bracket(mpmath.exp(mpmath.mpf(q.numerator) / q.denominator), 2990)


def test_exp_endpoint_brackets_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.integers(0, 700).flatmap(
            lambda e: st.tuples(st.integers(-(2**e // 2), 2**e // 2), st.just(-e))
        ),
        st.integers(2, 600),
        st.booleans(),
    )
    def check(man_exp, p, up):
        x = Dyadic(*man_exp)  # |x| <= 1/2
        lo, hi = _exp_bracket(frac(x))
        got = _exp_endpoint(x, p, up)
        assert frac(got) >= lo if up else frac(got) <= hi
        assert abs(got.man).bit_length() <= p

    check()


def test_exp_brackets_oracle_with_reduction():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        st.fractions(min_value=-200, max_value=200, max_denominator=10**12),
        st.integers(2, 600),
        st.integers(0, 8),
    )
    @hypothesis.example(Fraction(-7, 3), 64, 0)  # m = 3, narrow
    @hypothesis.example(Fraction(150), 2, 0)  # [128, 192]: the endpoint hull
    def check(q, p, widen):
        # rounding q to p - widen bits widens the input up to 2**widen ulps
        # of p; at small p that passes 1/2 and sends exp to its endpoint hull
        a = from_rational(q, max(2, p - widen))
        a = IntervalReal(a.lo, a.hi, p)
        lo, hi = _exp_bracket(q)
        iv = exp(a)
        assert frac(iv.lo) <= hi and lo <= frac(iv.hi)
        assert iv.lo.man > 0

    check()


def test_exp_squared_bound_brackets_oracle():
    """Before its final rounding to p bits, the bound of a reducing argument
    lies on its side of exp(x) and within the proved factor exp(2**(-p-5));
    the rounding to p bits would hide a fault of the squarings."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def reducing(draw):
        e = draw(st.integers(-80, 8))
        man = draw(st.integers(2 ** max(0, -1 - e), 2 ** (22 - e) - 1))  # 1/2 <= |x| < 2**22
        return Dyadic(draw(st.sampled_from((1, -1))) * man, e)

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(reducing(), st.sampled_from((8, 16, 64, 512)), st.booleans())
    def check(x, p, up):
        lo, hi = _exp_oracle(x)
        y = _exp_squared(x, p, up)
        with mpmath.workprec(3000):
            y = mpmath.ldexp(y.man, y.exp)
            slack = mpmath.exp(mpmath.ldexp(1, -p - 5))
            if up:
                assert lo <= y <= hi * slack, (x, p)
            else:
                assert lo / slack <= y <= hi, (x, p)

    check()


def test_pow_bound_brackets_the_exact_power():
    """The w-bit power at w = p + bits(e) + 8, the width that bounds take it
    at, lies on its side of b**e and within the proved factor
    (1 + 2**(1-w))**(2e-2) < exp(2**(-p-6)): exact ints for small e, mpmath
    for e up to 2**64."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(
        st.builds(interval.dyadic, st.integers(1, 2**64), st.integers(-70, 0)),
        st.one_of(st.integers(1, 3000), st.integers(1, 2**64)),
        st.sampled_from((8, 16, 64, 512)),
        st.booleans(),
    )
    @hypothesis.example(Dyadic(3, 0), 2**64 - 1, 64, False)  # the largest r*s GeneralRS takes
    @hypothesis.example(Dyadic(1, 0), 2**64, 8, True)  # an exact power
    def check(b, e, p, up):
        w = p + e.bit_length() + 8
        y = _pow(b, e, w, up)
        if e <= 3000:
            exact = Fraction(b.man**e) * Fraction(2) ** (b.exp * e)
            assert (frac(y) >= exact) if up else (frac(y) <= exact), (b, e, p)
        with mpmath.workprec(3000):
            power = mpmath.mpf(b.man) ** e * mpmath.ldexp(1, b.exp * e)
            lo, hi = power * (1 - mpmath.ldexp(1, -2990)), power * (1 + mpmath.ldexp(1, -2990))
            factor = (1 + mpmath.ldexp(1, 1 - w)) ** (2 * e - 2)
            assert factor < mpmath.exp(mpmath.ldexp(1, -p - 6))
            y = mpmath.ldexp(y.man, y.exp)
            if up:
                assert lo <= y <= hi * factor, (b, e, p)
            else:
                assert lo / factor <= y <= hi, (b, e, p)

    check()


def test_power_encloses_the_exact_power():
    # both bounds of _pow, each within exp(2**(-p-6)) of b**e, so the width is
    # under 2**(-p-4) of the value, well inside the module's 2**(-p+8); small
    # powers are exact points
    for p in (64, 512):
        for b in range(3, 11):
            for e in range(1, 3001):
                iv = power(b, e, p)
                exact = interval.dyadic(b**e)
                assert interval._cmp(iv.lo, exact) <= 0 <= interval._cmp(iv.hi, exact), (b, e, p)
                w = width(iv)
                assert interval._cmp(Dyadic(w.man, w.exp + p + 4), iv.lo) < 0, (b, e, p)
                assert iv.prec == p
    assert power(3, 5, 64) == from_int(243, 64)
    for b, e in ((0, 1), (3, 0)):
        with pytest.raises(ValueError):
            power(b, e, 64)


def test_exp_brackets_oracle_at_high_precision():
    """exp at p = 1024 to 16384, where the core and its squarings run at over
    a thousand bits and the argument takes about sqrt(p) extra halvings: the
    enclosure holds exp(x) and keeps the width contract, and each w-bit bound
    lies within exp(2**(-p-5)) of exp(x)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def point(draw):
        e = draw(st.integers(-80, 8))
        return interval.dyadic(draw(st.integers(1 - 2 ** (22 - e), 2 ** (22 - e) - 1)), e)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(point(), st.sampled_from((1024, 4096, 10096, 16384)))
    @hypothesis.example(Dyadic(-2189, 0), 4096)  # 13 squarings, and 48 more
    @hypothesis.example(Dyadic(-7, 0), 16384)  # 4 squarings, and 96 more
    def check(x, p):
        iv = exp(IntervalReal(x, x, p))
        w = width(iv)
        assert interval._cmp(Dyadic(w.man, w.exp + p - 2), iv.lo) <= 0, (x, p)
        with mpmath.workprec(p + 100):
            e = mpmath.exp(mpmath.ldexp(x.man, x.exp))
            lo, hi = e * (1 - mpmath.ldexp(1, -p - 90)), e * (1 + mpmath.ldexp(1, -p - 90))
            slack = mpmath.exp(mpmath.ldexp(1, -p - 5))
            at = lambda d: mpmath.ldexp(d.man, d.exp)
            assert at(iv.lo) <= hi and lo <= at(iv.hi), (x, p)
            assert lo / slack <= at(_exp_squared(x, p, False)) <= hi, (x, p)
            assert lo <= at(_exp_squared(x, p, True)) <= hi * slack, (x, p)

    check()


def test_exp_agrees_with_reference_route():
    """The fixed-point route lies inside the interval Taylor route and is
    never wider, for the order-1..4 series exponents at every n in 1..3000;
    each n meets all four precisions across its four orders."""
    precisions = (64, 128, 256, 512)
    for order in range(1, 5):
        for n in range(1, 3001):
            p = precisions[(n + order) % 4]
            a = from_rational(general_exponent(n, 2, order), p)
            fast, slow = exp(a), reference_exp(a)
            assert frac(slow.lo) <= frac(fast.lo) <= frac(fast.hi) <= frac(slow.hi), (n, order, p)


def _exp_oracle(x: Dyadic) -> tuple["mpmath.mpf", "mpmath.mpf"]:
    """mpf values lo < exp(x) < hi, 2**-2990 apart relatively."""
    with mpmath.workprec(3000):
        e = mpmath.exp(mpmath.ldexp(mpmath.mpf(x.man), x.exp))
        return e * (1 - mpmath.ldexp(1, -2990)), e * (1 + mpmath.ldexp(1, -2990))


def test_exp_is_the_midpoint_route_bit_for_bit_where_unreduced():
    """Where both endpoints have round(2x) = 0 and at most p + 16 mantissa
    bits, neither route reduces or rounds the argument, so halving and
    squaring gives the midpoint route's Dyadics exactly; elsewhere both
    routes enclose exp of either endpoint."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def argument(draw):
        p = draw(st.sampled_from((2, 3, 4, 8, 16, 64, 512)))
        e = draw(st.integers(-80, 8))
        lo = interval.dyadic(draw(st.integers(-(2 ** (21 - e)), 2 ** (21 - e))), e)
        kind = draw(st.sampled_from(("point", "narrow", "wide")))
        if kind == "point":
            return IntervalReal(lo, lo, p)
        w_exp = draw(st.integers(-90, -10) if kind == "narrow" else st.integers(-8, 13))
        w = interval.dyadic(draw(st.integers(1, 255)), w_exp)  # |a| stays below 2**22
        return IntervalReal(lo, interval.dyadic(*_add(lo, w)), p)

    def unreduced(x: Dyadic, p: int) -> bool:
        return _round_to_int(Dyadic(x.man, x.exp + 1)) == 0 and abs(x.man).bit_length() <= p + 16

    @hypothesis.settings(max_examples=1500, deadline=None)
    @hypothesis.given(argument())
    @hypothesis.example(from_rational(Fraction(5870970, 25943), 8))  # k differs at the endpoints
    @hypothesis.example(from_int(-2189, 64))  # squares rounded up would lift the lower end past exp
    def check(a):
        new, old = exp(a), midpoint_exp(a)
        if unreduced(a.lo, a.prec) and unreduced(a.hi, a.prec):
            assert new == old
            return
        for x in (a.lo, a.hi):
            lo, hi = _exp_oracle(x)
            for iv in (new, old):
                with mpmath.workprec(3000):
                    assert mpmath.ldexp(iv.lo.man, iv.lo.exp) <= hi, (a, x)
                    assert lo <= mpmath.ldexp(iv.hi.man, iv.hi.exp), (a, x)

    check()


def test_exp_width_contract():
    """exp of a point argument of any size is at most 2**(2-p) wide
    relative to its lower end: the reduction costs no bits."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def point(draw):
        p = draw(st.sampled_from((2, 3, 4, 8, 16, 64, 512)))
        e = draw(st.integers(-80, 8))
        x = interval.dyadic(draw(st.integers(1 - 2 ** (22 - e), 2 ** (22 - e) - 1)), e)
        return IntervalReal(x, x, p)  # |x| < 2**22

    # about exp(-1.8e6), the AgievichShifted exponent at n = 5, k = 3000
    shifted = from_rational(Fraction(-9000000, 5) + Fraction(23, 180), 64).lo

    @hypothesis.settings(max_examples=1500, deadline=None)
    @hypothesis.given(point())
    @hypothesis.example(IntervalReal(shifted, shifted, 64))
    def check(a):
        iv = exp(a)
        w = width(iv)
        assert interval._cmp(Dyadic(w.man, w.exp + a.prec - 2), iv.lo) <= 0, (a, rel_width(iv))

    check()


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
        b = hutton_pi(p)
        assert frac(a.lo) <= frac(b.hi) and frac(b.lo) <= frac(a.hi), p


def test_atan_terms_by_short_division_are_the_reference_terms():
    # floor(floor(a/b)/c) = floor(a/(bc)): the running quotient gives every
    # term, the stop index and the slack of the whole-denominator sum; the q
    # are pi's own, p + 16, from p = 2 to 16384
    for q in (18, 80, 144, 272, 528, 1040, 4112, 16400):
        for x in (5, 239):
            assert _atan_inv_scaled(x, q) == reference_atan_inv_scaled(x, q), (x, q)


@pytest.mark.parametrize("p", [1024, 4096, 16384])
def test_pi_brackets_oracle_at_high_precision(p):
    iv = pi(p)
    assert frac(iv.hi) - frac(iv.lo) <= Fraction(4, 2**p)
    with mpmath.workprec(p + 64):
        ref = mpf_to_fraction(+mpmath.pi)
    slack = Fraction(4, 2 ** (p + 64))  # mpmath's pi is rounded to p + 64 bits
    assert frac(iv.lo) <= ref + slack and ref - slack <= frac(iv.hi)


def test_pi_requires_sane_precision():
    with pytest.raises(ValueError):
        pi(1)


# -- comparison -------------------------------------------------------------------


def test_certainly_less_tristate():
    mk = lambda a, b: IntervalReal(Dyadic(a, 0), Dyadic(b, 0), 16)
    assert certainly_less(mk(1, 2), mk(3, 4)) is TriState.YES
    assert certainly_less(mk(1, 3), mk(2, 4)) is TriState.UNKNOWN
    assert certainly_less(mk(5, 6), mk(1, 2)) is TriState.NO


def test_cmp_agrees_with_fractions():
    # mantissas of either sign, zero and unnormalised ones (even, or with
    # tied leading-bit positions at different exponents) included
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    dyadics = st.builds(Dyadic, st.integers(-(2**130), 2**130), st.integers(-300, 300))

    @hypothesis.settings(max_examples=1500, deadline=None)
    @hypothesis.given(dyadics, dyadics)
    @hypothesis.example(Dyadic(4, 0), Dyadic(1, 2))
    @hypothesis.example(Dyadic(-3, 1), Dyadic(-5, 0))
    def check(a, b):
        fa, fb = frac(a), frac(b)
        assert interval._cmp(a, b) == (fa > fb) - (fa < fb)

    check()


@pytest.mark.parametrize("gap", [10**12, -(10**12)])
def test_cmp_orders_exponent_gaps_without_shifting(gap):
    # a shift by the gap would build an integer of 10^12 bits; the
    # leading-bit positions order these, in both signs
    big, small = (Dyadic(3, gap), Dyadic(5, 0)) if gap > 0 else (Dyadic(5, 0), Dyadic(3, gap))
    neg = lambda d: Dyadic(-d.man, d.exp)
    assert interval._cmp(big, small) == 1 and interval._cmp(small, big) == -1
    assert interval._cmp(neg(big), neg(small)) == -1 and interval._cmp(neg(small), neg(big)) == 1
    assert interval._cmp(big, big) == 0 and interval._cmp(neg(small), neg(small)) == 0
    # tied leading-bit positions across the gap: 2**gap against (2**k - 1) * 2**(gap - k + 1)
    k = 2000
    tied = Dyadic(2**k - 1, gap - k + 1)
    assert interval._cmp(Dyadic(1, gap), tied) == -1 and interval._cmp(tied, Dyadic(1, gap)) == 1
    assert certainly_less(IntervalReal(small, small, 4), IntervalReal(big, big, 4)) is TriState.YES


# -- rendering --------------------------------------------------------------------


def _point(d: Dyadic) -> IntervalReal:
    return IntervalReal(d, d, 64)


def test_render_significant_basics():
    third = Dyadic(5461, -14)  # 0.33331298828125
    for d, digits, expected in [
        (third, 10, "0.3333129883"),
        (Dyadic(2, 0), 1, "2"),
        (Dyadic(-5461, -14), 4, "-0.3333"),
        (Dyadic(12345, 0), 3, "12300"),
        (Dyadic(15999, -4), 3, "1000"),  # 999.9375: a carry into a new decade
        (Dyadic(0, 0), 5, "0"),
    ]:
        assert reference_round_significant(frac(d), digits) == expected
        assert render_significant(_point(d), digits) == expected
    # an interval whose endpoints round alike prints as its points do
    assert render_significant(from_rational(Fraction(1, 3), 64), 10) == "0.3333333333"


def test_render_significant_half_even_ties():
    for x, digits, expected in [
        (Fraction(1, 8), 2, "0.12"),  # 0.125 -> even neighbor
        (Fraction(3, 8), 2, "0.38"),  # 0.375 -> even neighbor
        (Fraction(25, 10), 1, "2"),
        (Fraction(35, 10), 1, "4"),
    ]:
        assert reference_round_significant(x, digits) == expected
        # the ties are dyadic, so from_rational gives the exact point
        assert render_significant(from_rational(x, 64), digits) == expected
        assert render_significant(from_rational(-x, 64), digits) == "-" + expected


def test_render_refuses_wide_interval():
    with pytest.raises(NeedsMorePrecision):
        render_significant(IntervalReal(Dyadic(1, 0), Dyadic(2, 0), 16), 3)
    with pytest.raises(NeedsMorePrecision):
        render_significant(IntervalReal(Dyadic(-1, -8), Dyadic(1, -8), 16), 3)


def test_render_significant_beyond_int_str_limit():
    # magnitudes past Python's 4300-digit int-to-str limit; the string is
    # checked by its leading digits and length, since Fraction(s) would hit
    # that limit too
    s = render_significant(from_int(12345 * 10**4400 + 1, 64), 3)
    assert s[:3] == "123" and set(s[3:]) == {"0"} and len(s) == 4405
    # each 64-bit endpoint next to 1/(3 * 10**4400) prints alone as the whole does
    tiny = from_rational(Fraction(1, 3 * 10**4400), 64)
    for iv in (tiny, _point(tiny.lo), _point(tiny.hi)):
        assert render_significant(iv, 3) == "0." + "0" * 4400 + "333"


def test_divmod_short_is_divmod():
    # quotients from none to thousands of bits, divisors of up to 6000 bits,
    # exact multiples and their neighbours, powers of two and all-ones divisors
    rng = random.Random(7)
    for _ in range(20_000):
        db, qb = rng.randint(1, 6000), rng.randint(0, 3000)
        den = rng.choice(
            [rng.getrandbits(db) | 1 << (db - 1), 1 << (db - 1), (1 << db) - 1]
        )
        num = rng.getrandbits(db + qb)
        if rng.random() < 0.3:
            num = num // den * den + rng.choice([0, 1, den - 1])
        assert _divmod_short(num, den) == divmod(num, den), (num, den)


def test_render_significant_digits_stop_at_int_str_limit():
    # every printed digit passes through one int-to-str conversion, so the
    # digit count is capped at Python's limit rather than failing inside it;
    # 1/3 at MAX_PRECISION bits is narrow enough for MAX_DIGITS digits
    assert MAX_DIGITS == 4300
    third = from_rational(Fraction(1, 3), MAX_PRECISION)
    for iv in (third, _point(third.lo), _point(third.hi)):
        assert render_significant(iv, MAX_DIGITS) == "0." + "3" * MAX_DIGITS
    with pytest.raises(ValueError, match="4300"):
        render_significant(_point(third.lo), MAX_DIGITS + 1)


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



# -- integer rendering against the Fraction reference route ------------------------


def test_render_agrees_with_reference_route():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(
        st.integers(-(2**600) + 1, 2**600 - 1),
        st.integers(-5000, 5000),
        st.integers(1, 60),
    )
    def dyadics(man, e, digits):
        d = Dyadic(man, e)
        expected = reference_round_significant(frac(d), digits)
        assert render_significant(_point(d), digits) == expected

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(
        st.integers(-(10**90), 10**90),
        st.integers(1, 10**90),
        st.integers(1, 60),
    )
    def fractions(num, den, digits):
        # a proved rendering of the 256-bit enclosure of x is x's own; a
        # refusal means its endpoints round apart
        x = Fraction(num, den)
        iv = from_rational(x, 256)
        try:
            s = render_significant(iv, digits)
        except NeedsMorePrecision:
            lo = reference_round_significant(frac(iv.lo), digits)
            assert lo != reference_round_significant(frac(iv.hi), digits), (x, digits)
        else:
            assert s == reference_round_significant(x, digits), (x, digits)

    dyadics()
    fractions()


def test_render_powers_of_ten_and_neighbours():
    # next to a power of ten the bit_length estimate of e is off by one
    # either way: the dyadics next to 10**k on grids of 2 to 400 bits, and
    # 10**k +- 2**-m where 10**k is an integer
    for k in range(-40, 41):
        ten = Fraction(10) ** k
        grids = [from_rational(ten, p) for p in (2, 20, 140, 400)]
        near = [d for iv in grids for d in (iv.lo, iv.hi)]
        if k >= 0:
            near += [
                interval.dyadic(10**k * 2**m + sign, -m) for sign in (1, -1) for m in (1, 20, 140, 400)
            ]
        for d in near:
            for digits in (1, 2, 7, 20):
                expected = reference_round_significant(frac(d), digits)
                assert render_significant(_point(d), digits) == expected, (d, digits)


def test_render_large_bound_matches_reference():
    iv = bd.sasvari_pair(30000, 64)[1].value
    for digits in (10, 14):
        lo = reference_round_significant(frac(iv.lo), digits)
        assert reference_round_significant(frac(iv.hi), digits) == lo
        assert render_significant(iv, digits) == lo


def test_render_path_builds_no_fraction(monkeypatch):
    makers = {
        "table1 cell, n = 10": lambda p: bd.sasvari_pair(10, p)[1].value,
        "bound at n = 26000": lambda p: bd.sasvari_pair(26000, p)[1].value,
    }
    expected = {
        what: reference_round_significant(frac(make(64).lo), 10)
        for what, make in makers.items()
    }

    def refuse(*args):
        raise AssertionError("the render path built a Fraction")

    monkeypatch.setattr(interval, "Fraction", refuse)
    for what, make in makers.items():
        assert render_significant(make(64), 10) == expected[what], what
        assert render_escalating(make, 10) == expected[what], what


def test_render_refuses_exponents_beyond_the_cap(monkeypatch):
    cap = MAX_DECIMAL_EXPONENT
    assert cap == 10**6
    # |e| = cap still prints in full, a carry up to e = -cap included
    assert render_significant(from_int(10**cap, 64), 2) == "1" + "0" * cap
    near = from_rational(Fraction(99996, 10 ** (cap + 5)), 64)  # 9.9996e-(cap + 1)
    for d in (near.lo, near.hi):
        assert render_significant(_point(d), 3) == "0." + "0" * (cap - 1) + "100"
    # just past the cap: 10**(cap + 1), and the dyadic just above 10**-(cap + 1)
    above = from_rational(Fraction(1, 10 ** (cap + 1)), 64).hi
    for iv in (from_int(10 ** (cap + 1), 64), _point(above)):
        with pytest.raises(ValueError, match="MAX_DECIMAL_EXPONENT"):
            render_significant(iv, 3)

    # far outside, the estimate refuses before any power of five is built
    def no_power(k):
        raise AssertionError(f"built 5**{k}")

    monkeypatch.setattr(interval, "_pow5", no_power)
    for d in (Dyadic(1, -(10**12)), Dyadic(-3, 10**13), Dyadic(1, 3_400_000)):
        with pytest.raises(ValueError, match=f"outside -{cap}..{cap}"):
            render_significant(_point(d), 10)


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
    assert reference_round_significant(q, digits) == expected
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
            assert rel_width(bound) <= 2.0 ** (-p + 8)


def test_precision_policy():
    policy = PrecisionPolicy(64, 512)
    assert list(policy.precisions()) == [64, 128, 256, 512]
    with pytest.raises(ValueError):
        PrecisionPolicy(64, 32)
    assert list(PrecisionPolicy(MAX_PRECISION, MAX_PRECISION).precisions()) == [MAX_PRECISION]
    with pytest.raises(ValueError, match=str(MAX_PRECISION)):
        PrecisionPolicy(64, MAX_PRECISION + 1)


def test_input_checks_raise_domain_errors_and_contract_checks_do_not():
    # the command line reports a DomainError as a usage error and any other
    # ValueError as an internal one
    assert issubclass(DomainError, ValueError)
    for refused in (
        lambda: PrecisionPolicy(1, 64),
        lambda: PrecisionPolicy(64, MAX_PRECISION + 1),
        lambda: render_significant(from_int(1, 64), 0),
        lambda: render_significant(from_int(1, 64), MAX_DIGITS + 1),
        lambda: render_significant(from_int(10 ** (MAX_DECIMAL_EXPONENT + 1), 64), 3),
    ):
        with pytest.raises(DomainError):
            refused()
    one = from_int(1, 64)
    for contract in (
        lambda: IntervalReal(Dyadic(1, 0), Dyadic(-1, 0), 64),
        lambda: one * from_int(0, 64),
        lambda: sqrt(from_int(-1, 64)),
    ):
        with pytest.raises(ValueError) as info:
            contract()
        assert type(info.value) is ValueError


def test_render_refuses_exponents_beyond_float_range():
    # 10**400 bits do not fit a float: the exponent estimate is an int
    # product, and the message shows it to 4 significant digits
    for d, about in ((Dyadic(1, 10**400), "3.010e+399"), (Dyadic(1, -(10**400)), "-3.010e+399")):
        with pytest.raises(DomainError, match=re.escape(f"decimal exponent about {about} is")):
            render_significant(IntervalReal(d, d, 64), 10)
