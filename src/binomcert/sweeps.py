"""Certified sweep verifications over ranges of n.

Each check compares certified enclosures (or exact rationals) and records a
verdict per instance: ``proved`` when the inequality holds with certainty,
``failed`` when its negation does, ``undecided`` when the precision policy
was exhausted with the intervals still overlapping.  Verdicts are never
guessed from midpoints.

Each sweep is a stream of ``(n, (verdict, width, precision), tag)``
decisions that one loop turns into a :class:`SweepReport`.  A comparison
whose transcendental parts cancel is an integer sign test, reported with
width 0 at precision 0.  The alternation, sandwich and order-2 gap decisions
compare exp(D_J(n)), from its integer pair, with R(n) = C(2n,n)
sqrt(pi n)/4^n, the bounds scaled by sqrt(pi n)/4^n: R is built once per n
and precision, and gap2(n+1) is carried to the next n.

The alternation's truncations nest (Z. Sasvari, "Inequalities for binomial
coefficients", J. Math. Anal. Appl. 236, 1999): where the series envelops
log R(n), D_J < D_(J+2) < log R(n) for odd J and the reverse for even J.
So only the highest odd and the highest even order asked for get interval
decisions.  A lower order J takes its top order's ``proved`` verdict when an
exact link holds, D_J < D_top for odd J and D_top < D_J for even J, tested
by cross-multiplying the integer pairs: exp is monotone, so exp(D_J) <
exp(D_top) < R(n), or R(n) < exp(D_top) < exp(D_J).  Otherwise, as at small
n where a high-order series does not yet envelop, the order is decided
directly, from the policy's first precision.  Each top decision escalates
through a warm start, the :class:`PrecisionPolicy` from the precision where
its decision at the previous n stopped, whatever that verdict was, to the
policy's maximum: the same precisions as the policy's own schedule from there.

:func:`run_verify` may run its checks in separate processes, one task per
check over its whole range, so each report is a sequential run's.  The
module-level caches (Bernoulli, the series coefficients, pi) are per
process: a worker fills its own.  The pool class is imported at the first
fan-out, not with this module: ``sweeps.ProcessPoolExecutor`` is
``concurrent.futures.ProcessPoolExecutor`` once read, and it is the
attribute that tests and the benchmark's tracer replace.
"""

from __future__ import annotations

import os
import sys
import time
from functools import cache, partial
from itertools import pairwise

from . import bounds as bd
from . import interval as ivl
from .combinatorics import binomial, central_binomials
from .interval import DEFAULT_POLICY, DomainError, PrecisionPolicy, TriState, certainly_less

__all__ = [
    "SweepReport",
    "sandwich_sweep",
    "dominance_sweep",
    "alternation_sweep",
    "order_improvement_sweep",
    "general_r_sweep",
    "run_verify",
    "DEFAULT_ORDERS",
]

FAILURE_CAP = 20  # keep reports bounded; counts stay exact
DEFAULT_ORDERS = (1, 2, 3, 4)  # series orders of the alternation check


class SweepReport:
    """The verdicts of one check over n_lo..n_hi.  Equal by its fields; a
    plain class, so each report has an instance ``__dict__`` (pickled with
    it, and where a tracer may stash its own data)."""

    def __init__(self, check: str, n_lo: int, n_hi: int) -> None:
        self.check, self.n_lo, self.n_hi = check, n_lo, n_hi
        self.proved = self.failed = self.undecided = 0
        # the widest pair, by ivl.scaled_width, among the check's interval
        # decisions; a verdict chained from a top order carries the top's width
        self.worst_rel_width = 0.0
        self.wall_time = 0.0  # seconds of this check, in the process that ran it
        self.failures: list = []  # (n, detail) pairs, capped

    def _field_values(self) -> dict:  # a tracer's _private stash is no field
        return {name: value for name, value in vars(self).items() if name[0] != "_"}

    def __eq__(self, other) -> bool:
        return type(other) is SweepReport and self._field_values() == other._field_values()

    def __repr__(self) -> str:
        return f"SweepReport({self._field_values()})"

    @property
    def total(self) -> int:
        return self.proved + self.failed + self.undecided

    def record(self, n: int, verdict: str, width: float, detail: str) -> None:
        setattr(self, verdict, getattr(self, verdict) + 1)
        if width > self.worst_rel_width:
            self.worst_rel_width = width
        if verdict != "proved" and len(self.failures) < FAILURE_CAP:
            self.failures.append((n, detail))


_VERDICTS = {TriState.YES: "proved", TriState.NO: "failed", TriState.UNKNOWN: "undecided"}


def _decide_less(make_pair, policy: PrecisionPolicy) -> tuple[str, float, int]:
    """Escalate precision through ``policy`` until a < b is decided; report
    the verdict, the final pair's width and the precision it stopped at."""
    for p in policy.precisions():
        a, b = make_pair(p)
        v = certainly_less(a, b)
        if v is not TriState.UNKNOWN:
            break
    return _VERDICTS[v], ivl.scaled_width(a, b), p


def _exact(holds: bool) -> tuple[str, float, int]:
    """The verdict of a comparison decided exactly: no interval width, and
    precision 0."""
    return ("proved" if holds else "failed"), 0.0, 0


def _report(check: str, n_lo: int, n_hi: int, decisions) -> SweepReport:
    """Time and record a stream of ``(n, (verdict, width, precision), tag)``
    decisions; the tag is kept as the failure detail of a verdict other than
    ``proved``.  Every claim here is stated for n >= 1: n_lo < 1 is refused
    first."""
    if n_lo < 1:
        raise DomainError(f"{check}: n_lo must be >= 1")
    t0 = time.perf_counter()
    rep = SweepReport(check, n_lo, n_hi)
    for n, (verdict, width, _precision), tag in decisions:
        rep.record(n, verdict, width, tag)
    rep.wall_time = time.perf_counter() - t0
    return rep


def sandwich_sweep(
    n_lo: int, n_hi: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> SweepReport:
    """order-1 lower bound < C(2n,n) < order-2 upper bound, for each n.

    These are the alternation check's decisions at orders 1 and 2, so the
    report equals ``alternation_sweep(n_lo, n_hi, (1, 2))`` under its own name:
    orders 1 and 2 are each the top order of their parity, so each gets an
    interval decision at every n, warm-started by the policy from where its
    decision at n - 1 stopped.
    """
    return _report("sandwich", n_lo, n_hi, _alternation(n_lo, n_hi, (1, 2), policy))


DOMINANCE_SPOT_CHECKS = (1, 10, 100, 1000)


def dominance_sweep(
    n_lo: int, n_hi: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> SweepReport:
    """Order-2 series bound below the Gaussian-form central bound.

    The prefactors are identical and exp is monotone, so per n this is the
    sign of the Gaussian-form exponent minus the order-2 one, f(n) =
    55/(72 n) - 1/(192 n^3), times 72 * 192 n^3: 55 * 192 n^2 > 72, in
    integers -- no intervals.  At the spot-check points the full interval
    route runs too, right after the exact test at that n, and must agree.
    """

    def decisions():
        for n in range(n_lo, n_hi + 1):
            yield n, _exact(55 * 192 * n * n > 72), "f(n) <= 0"
            if n in DOMINANCE_SPOT_CHECKS:
                pair = lambda p: (bd.central_upper(n, 2, p).value, bd.agievich_central(n, p).value)
                yield n, _decide_less(pair, policy), "interval route disagrees"

    return _report("dominance", n_lo, n_hi, decisions())


def alternation_sweep(
    n_lo: int,
    n_hi: int,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> SweepReport:
    """Odd-order truncations below the exact value, even-order above.

    Decided as exp(D_J(n)) < R(n) at odd J and R(n) < exp(D_J(n)) at even J,
    with R(n) built once per n and precision for all the orders.  Only the
    highest odd and the highest even of ``orders`` get interval decisions at
    each n, each warm-started by the policy from where its decision at n - 1
    stopped to ``policy.maximum``.  A lower order J is proved from its top
    order's proved verdict when the exact link D_J < D_top (odd J) or
    D_top < D_J (even J) holds, and is decided directly from
    ``policy.initial`` otherwise; see the module docstring.  The verdicts,
    failures and their order are those of deciding every order directly.
    """
    return _report("alternation", n_lo, n_hi, _alternation(n_lo, n_hi, orders, policy))


def _alternation(n_lo: int, n_hi: int, orders: tuple[int, ...], policy: PrecisionPolicy):
    orders = sorted(set(orders))
    top = {order % 2: order for order in orders}  # the highest order of each parity
    warm = dict.fromkeys(top.values(), policy)  # the schedule each top order starts from
    tags = {j: f"lower({j}) !< exact" if j % 2 else f"exact !< upper({j})" for j in orders}
    for n, b in central_binomials(n_lo, n_hi):
        ratio = cache(lambda p, n=n, b=b: bd.central_ratio(n, p, b))  # R(n) per precision
        exponents, decided = {}, {}
        for t in top.values():
            exponents[t] = bd.exponent_pair(n, 2, t)
            decided[t] = _decide_order(t, exponents[t], ratio, warm[t])
            warm[t] = PrecisionPolicy(decided[t][2], policy.maximum)
        for order in orders:
            t = top[order % 2]
            decision = decided[t]
            if order != t:
                num, den = exponent = bd.exponent_pair(n, 2, order)
                t_num, t_den = exponents[t]
                # D_J < D_top at odd J, D_top < D_J at even J
                linked = num * t_den < t_num * den if order % 2 else t_num * den < num * t_den
                if decision[0] != "proved" or not linked:
                    decision = _decide_order(order, exponent, ratio, policy)
            yield n, decision, tags[order]


def _decide_order(
    order: int, exponent: tuple[int, int], ratio, policy: PrecisionPolicy
) -> tuple[str, float, int]:
    """exp(D_J(n)) < R(n) at odd J, R(n) < exp(D_J(n)) at even J, from the
    integer pair of D_J(n) and ``ratio(p)``, R(n) at precision p."""
    if order % 2 == 1:
        pair = lambda p: (ivl.exp(ivl.from_rational(exponent, p)), ratio(p))
    else:
        pair = lambda p: (ratio(p), ivl.exp(ivl.from_rational(exponent, p)))
    return _decide_less(pair, policy)


def _ratio_gap(n: int, order: int, b: int, p: int) -> ivl.IntervalReal:
    """exp(order-truncated exponent) - C(2n,n) sqrt(pi n)/4^n, as an interval."""
    exponent = bd.exponent_pair(n, 2, order)
    return ivl.exp(ivl.from_rational(exponent, p)) - bd.central_ratio(n, p, b)


def order_improvement_sweep(
    n_lo: int, n_hi: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> SweepReport:
    """Ratio-level gap shrinks with the order and, at order 2, with n.

    Checks per n in n_lo..n_hi: gap4(n) < gap2(n), and gap2(n+1) < gap2(n),
    which evaluates gap2 at n_hi + 1 too.  The two gaps at one n share the
    C(2n,n) sqrt(pi n)/4^n term and exp is monotone, so the first check is
    D4(n) < D2(n), crosswise on the integer pairs of the truncated exponents.
    gap2(n) = exp(D2(n)) - R(n) is evaluated once per n and precision: the
    gap2(n+1) of step n is reused as gap2(n) at step n+1.
    """
    n_lo = max(n_lo, 2)  # ratio gaps below n=2 are outside the monotone regime

    def decisions():
        # two binomials at a time: memory stays linear in the range
        gap2_next = None
        for (n, b), (n1, b1) in pairwise(central_binomials(n_lo, n_hi + 1)):
            (d4, den4), (d2, den2) = bd.exponent_pair(n, 2, 4), bd.exponent_pair(n, 2, 2)
            yield n, _exact(d4 * den2 < d2 * den4), "gap4 !< gap2"
            # gap2(n) is the previous step's gap2(n+1), with the precisions it reached
            gap2 = gap2_next or cache(partial(_ratio_gap, n, 2, b))
            gap2_next = cache(partial(_ratio_gap, n1, 2, b1))
            pair = lambda p: (gap2_next(p), gap2(p))
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


def __getattr__(name: str):
    """Import ``ProcessPoolExecutor`` at its first read (PEP 562) and keep it
    in the module globals: a process that never fans out never loads
    ``concurrent.futures`` and ``multiprocessing``."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _run_task(task) -> SweepReport:
    sweep, n_lo, n_hi, kwargs = task
    return sweep(n_lo, n_hi, **kwargs)


def run_verify(
    max_n: int,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
    policy: PrecisionPolicy = DEFAULT_POLICY,
    jobs: int = 1,
) -> list[SweepReport]:
    """Run the sandwich, dominance, alternation and order_improvement checks
    over 1..max_n (order_improvement from 2), reported in that order.

    A series order outside 1..MAX_SERIES_ORDER and ``max_n < 1`` are refused
    with :class:`DomainError` before any task starts.  Each check is one
    task over its whole range.  The tasks run through one process pool of
    ``min(jobs, tasks, os.cpu_count())`` workers when that is at least 2,
    and in this process otherwise.  Either way a check runs whole in one
    process: its report is a sequential run's, and its ``wall_time`` is its
    own.  The pool class is ``sweeps.ProcessPoolExecutor``, read at the call:
    imported at the first fan-out, unless a test or the tracer replaced it.
    """
    for order in orders:
        bd.check_series_order(order)
    if max_n < 1:
        raise DomainError("run_verify: max_n must be >= 1")
    checks = [
        (sandwich_sweep, 1, {"policy": policy}),
        (dominance_sweep, 1, {"policy": policy}),
        (alternation_sweep, 1, {"orders": orders, "policy": policy}),
        (order_improvement_sweep, 2, {"policy": policy}),
    ]
    tasks = [(sweep, n_lo, max_n, kwargs) for sweep, n_lo, kwargs in checks if n_lo <= max_n]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers < 2:
        return [_run_task(task) for task in tasks]
    with sys.modules[__name__].ProcessPoolExecutor(workers) as pool:
        return list(pool.map(_run_task, tasks))
