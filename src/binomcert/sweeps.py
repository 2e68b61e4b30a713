"""Certified sweep verifications over ranges of n.

Each check compares certified enclosures (or exact rationals) and records a
verdict per instance: ``proved`` when the inequality holds with certainty,
``failed`` when its negation does, ``undecided`` when the precision policy
was exhausted with the intervals still overlapping.  Verdicts are never
guessed from midpoints.

Sweeps may be partitioned across processes by chunking the n-range; chunk
reports merge by ascending n, so the result is identical to a sequential
run.  All shared caches (Bernoulli, pi, exp(1/2)) are either precomputed
before fan-out or rebuilt per worker, per their home modules' contracts.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import pairwise

from . import bounds as bd
from . import interval as ivl
from .combinatorics import binomial, central_binomials
from .interval import DEFAULT_POLICY, PrecisionPolicy, TriState, certainly_less

__all__ = [
    "SweepReport",
    "sandwich_sweep",
    "dominance_sweep",
    "alternation_sweep",
    "order_improvement_sweep",
    "general_r_sweep",
    "run_verify",
    "VERIFY_CHECKS",
]

FAILURE_CAP = 20  # keep reports bounded; counts stay exact


@dataclass
class SweepReport:
    check: str
    n_lo: int
    n_hi: int
    proved: int = 0
    failed: int = 0
    undecided: int = 0
    worst_rel_width: float = 0.0
    wall_time: float = 0.0
    failures: list = field(default_factory=list)  # (n, detail) pairs, capped

    @property
    def total(self) -> int:
        return self.proved + self.failed + self.undecided

    def record(self, n: int, verdict: str, width: float, detail: str = "") -> None:
        setattr(self, verdict, getattr(self, verdict) + 1)
        if width > self.worst_rel_width:
            self.worst_rel_width = width
        if verdict != "proved" and len(self.failures) < FAILURE_CAP:
            self.failures.append((n, detail or verdict))

    def merged(self, other: "SweepReport") -> "SweepReport":
        if other.check != self.check:
            raise ValueError("cannot merge reports of different checks")
        out = replace(
            self,
            n_lo=min(self.n_lo, other.n_lo),
            n_hi=max(self.n_hi, other.n_hi),
            proved=self.proved + other.proved,
            failed=self.failed + other.failed,
            undecided=self.undecided + other.undecided,
            worst_rel_width=max(self.worst_rel_width, other.worst_rel_width),
            wall_time=self.wall_time + other.wall_time,
        )
        out.failures = sorted(self.failures + other.failures)[:FAILURE_CAP]
        return out


def _decide_less(make_pair, policy: PrecisionPolicy) -> tuple[str, float]:
    """Escalate precision until a < b is decided; report the final pair width."""
    width = float("inf")
    for p in policy.precisions():
        a, b = make_pair(p)
        width = ivl.scaled_width(a, b)
        v = certainly_less(a, b)
        if v is TriState.YES:
            return "proved", width
        if v is TriState.NO:
            return "failed", width
    return "undecided", width


def sandwich_sweep(
    n_lo: int, n_hi: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> SweepReport:
    """order-1 lower bound < C(2n,n) < order-2 upper bound, for each n.

    These are the alternation check's decisions at orders 1 and 2, so the
    report equals ``alternation_sweep(n_lo, n_hi, (1, 2))`` under its own name.
    """
    return _alternation("sandwich", n_lo, n_hi, (1, 2), policy)


DOMINANCE_SPOT_CHECKS = (1, 10, 100, 1000)


def dominance_sweep(
    n_lo: int,
    n_hi: int,
    policy: PrecisionPolicy = DEFAULT_POLICY,
    spot_checks: tuple[int, ...] = DOMINANCE_SPOT_CHECKS,
) -> SweepReport:
    """Order-2 series bound below the Gaussian-form central bound.

    The prefactors are identical and exp is monotone, so per n this is the
    exact rational sign test f(n) > 0 -- no intervals.  At the spot-check
    points the full interval route runs too and must agree.
    """
    t0 = time.perf_counter()
    rep = SweepReport("dominance", n_lo, n_hi)
    for n in range(n_lo, n_hi + 1):
        cmpres = bd.tightness_compare(n)
        verdict = "proved" if cmpres.verdict == "sasvari_tighter" else "failed"
        rep.record(n, verdict, 0.0, "f(n) <= 0" if verdict != "proved" else "")
    for n in spot_checks:
        if not n_lo <= n <= n_hi:
            continue
        verdict, w = _decide_less(
            lambda p: (bd.sasvari_pair(n, p)[1].value, bd.agievich_central(n, p).value),
            policy,
        )
        rep.record(n, verdict, w, "interval route disagrees" if verdict != "proved" else "")
    rep.wall_time = time.perf_counter() - t0
    return rep


def alternation_sweep(
    n_lo: int,
    n_hi: int,
    orders: tuple[int, ...] = (1, 2, 3, 4),
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> SweepReport:
    """Odd-order truncations below the exact value, even-order above."""
    return _alternation("alternation", n_lo, n_hi, orders, policy)


def _alternation(
    check: str, n_lo: int, n_hi: int, orders: tuple[int, ...], policy: PrecisionPolicy
) -> SweepReport:
    t0 = time.perf_counter()
    rep = SweepReport(check, n_lo, n_hi)
    orders = tuple(sorted(set(orders)))
    for n, b in central_binomials(n_lo, n_hi):
        for order in orders:
            if order % 2 == 1:
                pair = lambda p, o=order: (
                    bd.central_lower(n, o, p).value,
                    ivl.from_int(b, p),
                )
                tag = f"lower({order}) !< exact"
            else:
                pair = lambda p, o=order: (
                    ivl.from_int(b, p),
                    bd.central_upper(n, o, p).value,
                )
                tag = f"exact !< upper({order})"
            verdict, w = _decide_less(pair, policy)
            rep.record(n, verdict, w, tag if verdict != "proved" else "")
    rep.wall_time = time.perf_counter() - t0
    return rep


def _ratio_gap(n: int, order: int, b: int, p: int) -> ivl.IntervalReal:
    """exp(order-truncated exponent) - C(2n,n) sqrt(pi n)/4^n, as an interval."""
    exponent = bd.central_exponent_coefficients(order).exponent_at(n)
    return ivl.exp(ivl.from_rational(exponent, p)) - bd.central_ratio(n, p, b)


def order_improvement_sweep(
    n_lo: int, n_hi: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> SweepReport:
    """Ratio-level gap shrinks with the order and, at order 2, with n.

    Checks per n in n_lo..n_hi: gap4(n) < gap2(n), and gap2(n+1) < gap2(n),
    which evaluates gap2 at n_hi + 1 too.
    """
    if n_lo < 2:
        n_lo = 2  # ratio gaps below n=2 are outside the monotone regime
    t0 = time.perf_counter()
    rep = SweepReport("order_improvement", n_lo, n_hi)
    # two binomials at a time: memory stays linear in the range
    for (n, b), (n1, b1) in pairwise(central_binomials(n_lo, n_hi + 1)):
        verdict, w = _decide_less(
            lambda p: (_ratio_gap(n, 4, b, p), _ratio_gap(n, 2, b, p)), policy
        )
        rep.record(n, verdict, w, "gap4 !< gap2" if verdict != "proved" else "")
        verdict, w = _decide_less(
            lambda p: (_ratio_gap(n1, 2, b1, p), _ratio_gap(n, 2, b, p)), policy
        )
        rep.record(n, verdict, w, "gap2 not decreasing" if verdict != "proved" else "")
    rep.wall_time = time.perf_counter() - t0
    return rep


def general_r_sweep(
    r_values: tuple[int, ...] = (3, 4, 5),
    s_max: int = 50,
    orders: tuple[int, ...] = (1, 2),
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> SweepReport:
    """Corrected general bound exceeds C(rs, s) across r, s, order."""
    t0 = time.perf_counter()
    rep = SweepReport("general_r", 1, s_max)
    for r in r_values:
        for s in range(1, s_max + 1):
            exact = binomial(r * s, s)
            for order in orders:
                verdict, w = _decide_less(
                    lambda p: (
                        ivl.from_int(exact, p),
                        bd.general_rs_bound(r, s, order, p).value,
                    ),
                    policy,
                )
                rep.record(
                    s,
                    verdict,
                    w,
                    f"r={r} s={s} N={order}" if verdict != "proved" else "",
                )
    rep.wall_time = time.perf_counter() - t0
    return rep


# -- orchestration -------------------------------------------------------------

VERIFY_CHECKS = ("sandwich", "dominance", "alternation", "order_improvement")


def _split_range(n_lo: int, n_hi: int, parts: int) -> list[tuple[int, int]]:
    count = n_hi - n_lo + 1
    parts = max(1, min(parts, count))
    step = (count + parts - 1) // parts
    return [(a, min(a + step - 1, n_hi)) for a in range(n_lo, n_hi + 1, step)]


def _run_chunked(worker, n_lo: int, n_hi: int, jobs: int, **kw) -> SweepReport:
    if jobs <= 1:
        return worker(n_lo, n_hi, **kw)
    chunks = _split_range(n_lo, n_hi, jobs)
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        parts = list(pool.map(partial(_call_worker, worker, kw), chunks))
    out = parts[0]
    for part in parts[1:]:
        out = out.merged(part)
    out.wall_time = time.perf_counter() - t0
    return out


def _call_worker(worker, kw, chunk):
    return worker(chunk[0], chunk[1], **kw)


def run_verify(
    max_n: int,
    orders: tuple[int, ...] = (1, 2, 3, 4),
    policy: PrecisionPolicy = DEFAULT_POLICY,
    jobs: int = 1,
    checks: tuple[str, ...] = VERIFY_CHECKS,
) -> list[SweepReport]:
    """Run the standard verification checks over 1..max_n."""
    if max_n < 1:
        raise ValueError("run_verify: max_n must be >= 1")
    reports = []
    for check in checks:
        if check == "sandwich":
            reports.append(_run_chunked(sandwich_sweep, 1, max_n, jobs, policy=policy))
        elif check == "dominance":
            reports.append(_run_chunked(dominance_sweep, 1, max_n, jobs, policy=policy))
        elif check == "alternation":
            reports.append(
                _run_chunked(alternation_sweep, 1, max_n, jobs, orders=orders, policy=policy)
            )
        elif check == "order_improvement":
            if max_n >= 2:
                reports.append(
                    _run_chunked(order_improvement_sweep, 2, max_n, jobs, policy=policy)
                )
        else:
            raise ValueError(f"unknown check {check!r}")
    return reports
