"""Certified sweep verifications over ranges of n.

Each check compares certified enclosures (or exact rationals) and records a
verdict per instance: ``proved`` when the inequality holds with certainty,
``failed`` when its negation does, ``undecided`` when the precision policy
was exhausted with the intervals still overlapping.  Verdicts are never
guessed from midpoints.

Each sweep is a stream of ``(n, (verdict, width), tag)`` decisions that one
loop turns into a :class:`SweepReport`.  A comparison whose transcendental
parts cancel is decided in exact rationals and reported with width 0.

:func:`run_verify` may partition its checks across processes by chunking the
n-range: every check-chunk task of one run goes through a single process
pool, and chunk reports merge by ascending n, so verdicts, counts and
failures are identical to a sequential run.  The pool never exceeds
``os.cpu_count()`` workers.  The module-level caches (Bernoulli, pi,
exp(1/2)) are per process: a worker fills its own.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
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
    "DEFAULT_ORDERS",
]

FAILURE_CAP = 20  # keep reports bounded; counts stay exact
DEFAULT_ORDERS = (1, 2, 3, 4)  # series orders of the alternation check


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


def _exact(holds: bool) -> tuple[str, float]:
    """The verdict of a comparison decided in exact rationals: no interval width."""
    return ("proved" if holds else "failed"), 0.0


def _report(check: str, n_lo: int, n_hi: int, decisions) -> SweepReport:
    """Time and record a stream of ``(n, (verdict, width), tag)`` decisions;
    the tag is kept as the failure detail of a verdict other than ``proved``."""
    t0 = time.perf_counter()
    rep = SweepReport(check, n_lo, n_hi)
    for n, (verdict, width), tag in decisions:
        rep.record(n, verdict, width, tag)
    rep.wall_time = time.perf_counter() - t0
    return rep


def sandwich_sweep(
    n_lo: int, n_hi: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> SweepReport:
    """order-1 lower bound < C(2n,n) < order-2 upper bound, for each n.

    These are the alternation check's decisions at orders 1 and 2, so the
    report equals ``alternation_sweep(n_lo, n_hi, (1, 2))`` under its own name.
    """
    return _report("sandwich", n_lo, n_hi, _alternation(n_lo, n_hi, (1, 2), policy))


DOMINANCE_SPOT_CHECKS = (1, 10, 100, 1000)


def dominance_sweep(
    n_lo: int, n_hi: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> SweepReport:
    """Order-2 series bound below the Gaussian-form central bound.

    The prefactors are identical and exp is monotone, so per n this is the
    exact rational sign test f(n) > 0 -- no intervals.  At the spot-check
    points the full interval route runs too and must agree.
    """

    def decisions():
        for n in range(n_lo, n_hi + 1):
            yield n, _exact(bd.tightness_gap(Fraction(n)) > 0), "f(n) <= 0"
        for n in DOMINANCE_SPOT_CHECKS:
            if n_lo <= n <= n_hi:
                pair = lambda p: (bd.sasvari_pair(n, p)[1].value, bd.agievich_central(n, p).value)
                yield n, _decide_less(pair, policy), "interval route disagrees"

    return _report("dominance", n_lo, n_hi, decisions())


def alternation_sweep(
    n_lo: int,
    n_hi: int,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> SweepReport:
    """Odd-order truncations below the exact value, even-order above."""
    return _report("alternation", n_lo, n_hi, _alternation(n_lo, n_hi, orders, policy))


def _alternation(n_lo: int, n_hi: int, orders: tuple[int, ...], policy: PrecisionPolicy):
    orders = sorted(set(orders))
    for n, b in central_binomials(n_lo, n_hi):
        for order in orders:
            if order % 2 == 1:
                pair = lambda p: (bd.central_lower(n, order, p).value, ivl.from_int(b, p))
                yield n, _decide_less(pair, policy), f"lower({order}) !< exact"
            else:
                pair = lambda p: (ivl.from_int(b, p), bd.central_upper(n, order, p).value)
                yield n, _decide_less(pair, policy), f"exact !< upper({order})"


def _ratio_gap(n: int, order: int, b: int, p: int) -> ivl.IntervalReal:
    """exp(order-truncated exponent) - C(2n,n) sqrt(pi n)/4^n, as an interval."""
    exponent = bd.central_exponent_coefficients(order).exponent_at(n)
    return ivl.exp(ivl.from_rational(exponent, p)) - bd.central_ratio(n, p, b)


def order_improvement_sweep(
    n_lo: int, n_hi: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> SweepReport:
    """Ratio-level gap shrinks with the order and, at order 2, with n.

    Checks per n in n_lo..n_hi: gap4(n) < gap2(n), and gap2(n+1) < gap2(n),
    which evaluates gap2 at n_hi + 1 too.  The two gaps at one n share the
    C(2n,n) sqrt(pi n)/4^n term and exp is monotone, so the first check is
    the exact rational test D4(n) < D2(n) of the truncated exponents.
    """
    n_lo = max(n_lo, 2)  # ratio gaps below n=2 are outside the monotone regime

    def decisions():
        d2 = bd.central_exponent_coefficients(2).exponent_at
        d4 = bd.central_exponent_coefficients(4).exponent_at
        # two binomials at a time: memory stays linear in the range
        for (n, b), (n1, b1) in pairwise(central_binomials(n_lo, n_hi + 1)):
            yield n, _exact(d4(n) < d2(n)), "gap4 !< gap2"
            pair = lambda p: (_ratio_gap(n1, 2, b1, p), _ratio_gap(n, 2, b, p))
            yield n, _decide_less(pair, policy), "gap2 not decreasing"

    return _report("order_improvement", n_lo, n_hi, decisions())


def general_r_sweep(
    r_values: tuple[int, ...] = (3, 4, 5),
    s_max: int = 50,
    orders: tuple[int, ...] = (1, 2),
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> SweepReport:
    """Corrected general bound exceeds C(rs, s) across r, s, order."""

    def decisions():
        for r in r_values:
            for s in range(1, s_max + 1):
                exact = binomial(r * s, s)
                for order in orders:
                    pair = lambda p: (
                        ivl.from_int(exact, p),
                        bd.general_rs_bound(r, s, order, p).value,
                    )
                    yield s, _decide_less(pair, policy), f"r={r} s={s} N={order}"

    return _report("general_r", 1, s_max, decisions())


# -- orchestration -------------------------------------------------------------

VERIFY_CHECKS = ("sandwich", "dominance", "alternation", "order_improvement")


def _split_range(n_lo: int, n_hi: int, parts: int) -> list[tuple[int, int]]:
    count = n_hi - n_lo + 1
    parts = max(1, min(parts, count))
    step = (count + parts - 1) // parts
    return [(a, min(a + step - 1, n_hi)) for a in range(n_lo, n_hi + 1, step)]


def _run_task(task) -> SweepReport:
    sweep, n_lo, n_hi, kwargs = task
    return sweep(n_lo, n_hi, **kwargs)


def run_verify(
    max_n: int,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
    policy: PrecisionPolicy = DEFAULT_POLICY,
    jobs: int = 1,
) -> list[SweepReport]:
    """Run the :data:`VERIFY_CHECKS` over 1..max_n (order_improvement from 2).

    Each check's range is cut into ``jobs`` chunks.  With ``jobs > 1`` every
    check-chunk task runs through one process pool of at most ``jobs``
    workers, and never more than ``os.cpu_count()``; otherwise the tasks run
    in this process.  Chunking follows ``jobs`` whatever the pool's size.  A
    check's chunk reports merge by ascending n, so verdicts, counts and
    failures equal a sequential run's; the ``wall_time`` of a fanned-out
    check is the sum of its chunks' times, since the checks share the pool's
    workers.
    """
    if max_n < 1:
        raise ValueError("run_verify: max_n must be >= 1")
    checks = [
        (sandwich_sweep, 1, {"policy": policy}),
        (dominance_sweep, 1, {"policy": policy}),
        (alternation_sweep, 1, {"orders": orders, "policy": policy}),
        (order_improvement_sweep, 2, {"policy": policy}),
    ]
    tasks = [
        (sweep, a, b, kwargs)
        for sweep, n_lo, kwargs in checks
        if n_lo <= max_n
        for a, b in _split_range(n_lo, max_n, jobs)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(min(jobs, len(tasks), os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_run_task, tasks))
    else:
        parts = [_run_task(task) for task in tasks]
    reports: list[SweepReport] = []
    for part in parts:
        if reports and reports[-1].check == part.check:
            reports[-1] = reports[-1].merged(part)
        else:
            reports.append(part)
    return reports
