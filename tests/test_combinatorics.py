import math
from fractions import Fraction

import pytest

from binomcert import combinatorics
from binomcert.combinatorics import (
    bernoulli,
    binomial,
    catalan,
    central_binomial,
    central_binomials,
)
from helpers import bernoulli_akiyama_tanigawa


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(20, 10) == 184756
    for n in (0, 1, 5, 17, 1000):
        assert binomial(n, 0) == 1


def test_binomial_total_outside_range():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_matches_stdlib():
    for n in range(65):
        for k in range(n + 1):
            assert binomial(n, k) == math.comb(n, k)


def _first_factored_k(n):
    # smallest k <= n/2 that binomial() sends to the Legendre-factored route
    return next((k for k in range(n // 2 + 1) if k >= 200 and k * k >= 16 * n), None)


def test_binomial_both_sides_of_cutover(monkeypatch):
    factored = []
    real = combinatorics._binomial_factored

    def recording(n, k):
        factored.append((n, k))
        return real(n, k)

    monkeypatch.setattr(combinatorics, "_binomial_factored", recording)
    for n in (399, 400, 401, 1000, 4_000, 10_007, 100_000):
        kc = _first_factored_k(n)
        ks = {0, 1, n - 1, n, n // 2, (n + 1) // 2}
        if kc is not None:
            ks |= {kc - 2, kc - 1, kc, kc + 1, n - kc + 1, n - kc}
        for k in sorted(ks):
            factored.clear()
            assert binomial(n, k) == math.comb(n, k), (n, k)
            kk = min(k, n - k)
            assert bool(factored) == (kc is not None and kk >= kc), (n, k)
    assert _first_factored_k(399) is None  # C(399, 199) stays on the loop
    assert _first_factored_k(400) == 200
    assert _first_factored_k(100_000) == 1265


def test_binomial_prime_and_prime_power_n():
    # n = p or p^e puts the sieve's edge (and the top prime power) at n itself
    for n in (401, 509, 512, 625, 729, 1024, 2187, 3125, 4096, 7919, 16_384, 19_683):
        for k in (200, 256, 1000, n // 3, n // 2, n - 300):
            if 0 <= k <= n:
                assert binomial(n, k) == math.comb(n, k), (n, k)


def test_binomial_factored_route_small_n():
    # the public rule never sends n < 400 here; check the route itself there
    for n in range(160):
        for k in range(n // 2 + 1):
            assert combinatorics._binomial_factored(n, k) == math.comb(n, k), (n, k)


def test_binomial_large_values():
    assert central_binomial(100_000) == math.comb(200_000, 100_000)
    assert binomial(30_000, 7_000) == math.comb(30_000, 7_000)


def test_binomial_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(0, 5000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def check(nk):
        n, k = nk
        assert binomial(n, k) == math.comb(n, k)

    check()


def test_pascal_identity():
    for n in range(1, 65):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_symmetry():
    import random

    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(0, 300)
        k = rng.randint(0, n)
        assert binomial(n, k) == binomial(n, n - k)


def test_central_binomial_examples():
    assert central_binomial(0) == 1
    assert central_binomial(1) == 2
    assert central_binomial(7) == 3432
    assert central_binomial(10_000) == math.comb(20_000, 10_000)


def test_central_binomials_iterator():
    values = dict(central_binomials(0, 40))
    for n in range(41):
        assert values[n] == central_binomial(n)
    tail = dict(central_binomials(97, 103))
    assert tail[100] == central_binomial(100)
    # the first value comes from the factored route, the rest from the recurrence
    for n, b in central_binomials(20_000, 20_004):
        assert b == math.comb(2 * n, n), n
    with pytest.raises(ValueError):
        list(central_binomials(5, 4))


def test_catalan_examples():
    assert catalan(1) == 1
    assert catalan(5) == 42
    assert catalan(10) == 16796


def test_catalan_checks_its_division(monkeypatch):
    monkeypatch.setattr(combinatorics, "central_binomial", lambda n: 7)
    with pytest.raises(ArithmeticError, match="3 does not divide"):  # not an assert: kept under -O
        catalan(2)


def test_catalan_recurrence():
    # C_{n+1} = sum_{i=0}^{n} C_i C_{n-i}
    cs = [catalan(i) for i in range(22)]
    for n in range(21):
        assert cs[n + 1] == sum(cs[i] * cs[n - i] for i in range(n + 1))


def test_successor_always_divides():
    for n in range(0, 400):
        assert central_binomial(n) % (n + 1) == 0
    assert central_binomial(10_000) % 10_001 == 0


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_rejects_bad_indices():
    with pytest.raises(ValueError):
        bernoulli(3)
    with pytest.raises(ValueError):
        bernoulli(7)
    with pytest.raises(ValueError):
        bernoulli(-2)


def test_bernoulli_against_akiyama_tanigawa():
    oracle = bernoulli_akiyama_tanigawa(40)
    for m in range(0, 41, 2):
        assert bernoulli(m) == oracle[m], m


def test_bernoulli_sign_alternation():
    for j in range(1, 21):
        expected_sign = 1 if j % 2 == 1 else -1
        assert bernoulli(2 * j) * expected_sign > 0, j


def test_cache_extension_is_monotone():
    snapshot = [bernoulli(m) for m in range(0, 11, 2)]
    bernoulli(60)
    assert [bernoulli(m) for m in range(0, 11, 2)] == snapshot
    with pytest.raises(ValueError):
        bernoulli(7)
