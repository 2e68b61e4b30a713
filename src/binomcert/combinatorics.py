"""Exact combinatorics: binomial coefficients, Catalan numbers, Bernoulli numbers.

Everything in this module is exact -- Python ints and ``fractions.Fraction``,
never floats -- so these values double as ground truth for the certified
bound comparisons elsewhere in the package.

The per-process caches hold exact values only: the table of primes that
:func:`binomial` factors over, the last C(2n, n) that
:func:`central_binomial` built, and the even Bernoulli numbers.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import comb, isqrt, prod
from typing import Iterator

__all__ = [
    "binomial",
    "central_binomial",
    "central_binomials",
    "catalan",
    "bernoulli",
]


def binomial(n: int, k: int) -> int:
    """C(n, k), exactly; total in k: returns 0 for k < 0 or k > n.

    Two routes, chosen from (n, k) alone, with k taken as min(k, n - k):

    * Small k -- ``math.comb``.
    * Large k -- Legendre's formula: the exponent of a prime p in C(n, k) is
      sum_{i>=1} (floor(n/p^i) - floor(k/p^i) - floor((n-k)/p^i)), each term
      0 or 1 (the carries when adding k and n - k in base p).  The primes
      <= n are read from a per-process table (see :func:`_primes_upto`) as
      three slices, and a balanced product tree multiplies the nonzero prime
      powers, so the big multiplies are few and balanced.  Its cost is about
      that of iterating the ~n/ln n primes, nearly flat in k.

    The factored route is taken when k >= 200 and k**2 >= 16 n.  That rule
    was fitted against the small route before ``math.comb``, the loop
    C(n, i) = C(n, i-1) (n-k+i) / i, which ``math.comb`` beats 2-20x below
    the cutover (CPython 3.11.7, 2 vCPUs, best of 5: C(41, 20) 0.09 us
    against 1.7 us, C(399, 199) 13 us against 26 us, C(1000, 100) 3.3 us
    against 16 us).  With the prime table filled, the routes tie against
    ``math.comb`` at k of about 250-300 for C(2k, k), and between k**2 =
    20 n and 40 n for k much smaller than n (n = 10**4 and 10**5), so a
    re-fit would move the cutover only a little; the rule is kept as it
    stands.  C(2*10**4, 10**4) takes 0.3 ms factored, and C(4.4*10**4,
    2.2*10**4) 0.9 ms.
    """
    if n < 0:
        raise ValueError("binomial: n must be >= 0")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    if k >= 200 and k * k >= 16 * n:
        return _binomial_factored(n, k)
    return comb(n, k)


_PRIMES: tuple[int, array] = (1, array("Q"))  # (limit, primes <= limit); see _primes_upto()


def _primes_upto(n: int) -> array:
    """The per-process prime table, first extended to cover n.

    ``_PRIMES`` is (limit, every prime <= limit), rebound whole and never
    mutated.  When n passes the limit, a bytearray sieve runs again to
    max(n, 2 limit), so a rising run of n sieves O(log n) times.
    """
    global _PRIMES
    limit, primes = _PRIMES
    if n > limit:
        limit = max(n, 2 * limit)
        sieve = bytearray([1]) * (limit + 1)
        sieve[:2] = bytes(2)
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        primes = array("Q", compress(range(limit + 1), sieve))
        _PRIMES = limit, primes
    return primes


def _binomial_factored(n: int, k: int) -> int:
    """C(n, k) for 0 <= k <= n - k, as a product of Legendre prime powers."""
    m = n - k
    r = isqrt(n)
    primes = _primes_upto(n)
    i_r, i_half, i_m, i_n = (bisect_right(primes, x) for x in (r, min(m, n // 2), m, n))
    # primes in (m, n] divide C(n, k) exactly once; those in (n/2, m] not at all
    factors = primes[i_m:i_n].tolist()
    for p in primes[:i_r]:
        pe = 1
        q = p
        while q <= n:
            if n // q - k // q - m // q:
                pe *= p
            q *= p
        if pe > 1:
            factors.append(pe)
    # primes in (sqrt n, min(m, n/2)] have only the i = 1 term
    factors += [p for p in primes[i_r:i_half] if n // p - k // p - m // p]
    return _product(factors, 0, len(factors))


def _product(xs: list[int], lo: int, hi: int) -> int:
    """Product of xs[lo:hi] by a balanced binary tree of multiplications."""
    if hi - lo <= 16:
        return prod(xs[lo:hi])
    mid = (lo + hi) // 2
    return _product(xs, lo, mid) * _product(xs, mid, hi)


@lru_cache(maxsize=1)
def central_binomial(n: int) -> int:
    """C(2n, n), the middle entry of row 2n of Pascal's triangle.

    The last value is kept (``lru_cache(maxsize=1)``): the sweeps of one
    window start at the same n, and so do repeated ``central_ratio(n, p)``
    calls at one n across precisions.  One entry of about 2n bits is all
    that consecutive callers at one n need.
    """
    if n < 0:
        raise ValueError("central_binomial: n must be >= 0")
    return binomial(2 * n, n)


def central_binomials(n_lo: int, n_hi: int) -> Iterator[tuple[int, int]]:
    """Yield (n, C(2n, n)) for n_lo <= n <= n_hi by the ratio recurrence.

    C(2n+2, n+1) = C(2n, n) * 2(2n+1) / (n+1), with the division always exact.
    The first value is the memoized :func:`central_binomial` (n_lo), built by
    the factored route once n_lo >= 200 unless it is the value last built;
    each later one costs one big-int multiply and one exact division, and
    none is built past n_hi.
    """
    if n_lo < 0 or n_hi < n_lo:
        raise ValueError("central_binomials: need 0 <= n_lo <= n_hi")
    b = central_binomial(n_lo)
    yield n_lo, b
    for n in range(n_lo, n_hi):
        b = b * (2 * (2 * n + 1)) // (n + 1)
        yield n + 1, b


def catalan(n: int) -> int:
    """Catalan number C(2n, n) / (n + 1); the division is always exact."""
    b = central_binomial(n)
    q, r = divmod(b, n + 1)
    if r:  # (n+1) | C(2n,n) for all n >= 0; unlike an assert, kept under -O
        raise ArithmeticError(f"catalan: {n + 1} does not divide C(2n, n) at n = {n}")
    return q


_EVEN_BERNOULLI: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...; see bernoulli()


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m as an exact Fraction (even m, plus B_0 and B_1).

    Values follow the generating function t/(e^t - 1), i.e. B_1 = -1/2 and
    B_2 = 1/6.  Even-index values are cached per process: a request for B_m
    first extends the cache to m by the defining recurrence
    sum_{k=0}^{n} C(n+1, k) B_k = 0 (n >= 1), restricted to even k plus the
    lone B_1 = -1/2 term, and entries are never mutated once computed.

    Odd m >= 3 is rejected rather than returning 0: those values are never
    meaningful inputs here and a request for one indicates a caller bug.
    """
    if m < 0:
        raise ValueError("bernoulli: m must be >= 0")
    if m == 1:
        return Fraction(-1, 2)
    if m % 2 != 0:
        raise ValueError("bernoulli: odd index %d (all zero); not served" % m)
    even = _EVEN_BERNOULLI
    while len(even) <= m // 2:
        n = 2 * len(even)  # computing B_n
        acc = Fraction(n + 1, -2)  # k = 1 term: C(n+1, 1) * B_1
        for i, b in enumerate(even):
            acc += binomial(n + 1, 2 * i) * b
        even.append(-acc / (n + 1))
    return even[m // 2]
