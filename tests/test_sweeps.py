import tracemalloc

import pytest

from binomcert import bounds, combinatorics, sweeps
from binomcert.combinatorics import central_binomial
from binomcert.interval import DEFAULT_POLICY, DomainError, PrecisionPolicy
from binomcert.sweeps import (
    alternation_sweep,
    dominance_sweep,
    general_r_sweep,
    order_improvement_sweep,
    run_verify,
    sandwich_sweep,
)
from helpers import direct_alternation, reference_alternation

TINY = PrecisionPolicy(4, 4)


def test_sandwich_small_range():
    rep = sandwich_sweep(1, 200)
    assert (rep.proved, rep.failed, rep.undecided) == (400, 0, 0)
    assert rep.failures == []
    assert 0 < rep.worst_rel_width < 2**-40
    assert rep.wall_time >= 0


def test_sandwich_undecided_when_starved():
    rep = sandwich_sweep(1, 1, policy=TINY)
    assert rep.undecided > 0
    assert rep.failed == 0
    assert rep.failures  # undecided instances are reported, not hidden


def test_dominance_counts_include_spot_checks():
    rep = dominance_sweep(1, 500)
    # 500 rational sign checks + interval spot checks at 1, 10, 100
    assert (rep.proved, rep.failed, rep.undecided) == (503, 0, 0)


def test_alternation_all_orders():
    rep = alternation_sweep(1, 100, (1, 2, 3, 4))
    assert (rep.proved, rep.failed, rep.undecided) == (400, 0, 0)


def test_alternation_respects_order_subset():
    rep = alternation_sweep(1, 50, (1, 2))
    assert rep.total == 100


def test_order_improvement():
    rep = order_improvement_sweep(2, 100)
    # 99 order-gap checks + 99 consecutive-decrease checks
    assert (rep.proved, rep.failed, rep.undecided) == (198, 0, 0)


def test_order_improvement_memory_is_linear():
    # An untraced run first fills the per-process caches (series coefficients
    # and pi) and the interpreter's free lists, which keep about 250 KiB
    # of freed tuples; the traced peak is then what the sweep itself holds.
    # Holding every C(2n, n) of the range peaked at 707 KiB here.
    order_improvement_sweep(2, 2000, TINY)
    tracemalloc.start()
    try:
        order_improvement_sweep(2, 2000, TINY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def test_general_r_small():
    rep = general_r_sweep((3, 4, 5), 12, (1, 2))
    assert (rep.proved, rep.failed, rep.undecided) == (72, 0, 0)


def test_run_verify_bundle():
    reports = run_verify(30, orders=(1, 2), jobs=1)
    by_name = {r.check: r for r in reports}
    assert set(by_name) == {"sandwich", "dominance", "alternation", "order_improvement"}
    assert all(r.failed == 0 and r.undecided == 0 for r in reports)
    assert by_name["sandwich"].total == 60
    assert by_name["alternation"].total == 60


def test_run_verify_rejects_bad_range():
    with pytest.raises(ValueError):
        run_verify(0)


def test_sweeps_refuse_n_below_one():
    # each claim holds for n >= 1 only: refused before any decision, not
    # recorded as a failed verdict at n = 0 or left to a deeper check
    for check, sweep in (
        ("dominance", lambda: dominance_sweep(0, 3)),
        ("sandwich", lambda: sandwich_sweep(0, 3)),
        ("alternation", lambda: alternation_sweep(-2, 3)),
    ):
        with pytest.raises(DomainError, match=f"^{check}: n_lo must be >= 1$"):
            sweep()
    assert order_improvement_sweep(0, 3).n_lo == 2  # clamped, not refused


def test_run_verify_refuses_before_any_sweep(monkeypatch):
    # a bad order was refused by alternation_sweep, after sandwich and dominance ran
    ran = []
    for name in ("sandwich_sweep", "dominance_sweep", "alternation_sweep", "order_improvement_sweep"):
        monkeypatch.setattr(sweeps, name, lambda *args, name=name, **kwargs: ran.append(name))
    for orders in ((25,), (1, 0)):
        with pytest.raises(DomainError, match="series order"):
            run_verify(5, orders=orders)
    with pytest.raises(DomainError, match="max_n"):
        run_verify(0)
    assert ran == []


def _strip_timing(rep):
    d = dict(vars(rep))
    d.pop("wall_time")
    return d


@pytest.mark.parametrize("policy", [DEFAULT_POLICY, TINY])
def test_sandwich_is_alternation_at_orders_1_and_2(policy):
    sandwich = _strip_timing(sandwich_sweep(1, 60, policy))
    alternation = _strip_timing(alternation_sweep(1, 60, (1, 2), policy))
    assert sandwich.pop("check") == "sandwich"
    assert alternation.pop("check") == "alternation"
    assert sandwich == alternation


# the starved policies leave verdicts undecided, and three of the four checks
# reach FAILURE_CAP, so the capped failure lists of the fanned-out run are
# compared too
@pytest.mark.parametrize("policy", [DEFAULT_POLICY, TINY, PrecisionPolicy(4, 8)])
def test_chunked_equals_sequential(policy):
    seq = [_strip_timing(r) for r in run_verify(120, policy=policy, jobs=1)]
    par = [_strip_timing(r) for r in run_verify(120, policy=policy, jobs=3)]
    assert [r["check"] for r in seq] == ["sandwich", "dominance", "alternation", "order_improvement"]
    assert par == seq


def test_run_verify_uses_one_pool_per_run(monkeypatch):
    made = []

    class CountingPool(sweeps.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 4)  # so 1-CPU runners cap nothing
    run_verify(30, jobs=2)
    assert made == [(2,)]  # one pool of two workers for all four tasks
    run_verify(30, jobs=1)
    assert made == [(2,)]


@pytest.fixture
def recording_pool(monkeypatch):
    """A stand-in for the pool: it forks nothing, maps in process and records
    the workers asked for and the tasks mapped."""

    class RecordingPool:
        asked, mapped = [], []

        def __init__(self, max_workers):
            self.asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            self.mapped.append(tasks)
            return map(fn, tasks)

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool


def test_run_verify_caps_pool_at_cpu_count(monkeypatch, recording_pool):
    seq = [_strip_timing(r) for r in run_verify(60, jobs=1)]
    assert recording_pool.asked == []
    for cpus, expected in ((2, [2]), (None, []), (64, [4])):
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
        recording_pool.asked.clear()
        reports = run_verify(60, jobs=500)
        assert recording_pool.asked == expected  # no pool of one worker
        assert [_strip_timing(r) for r in reports] == seq
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 64)
    recording_pool.asked.clear()
    run_verify(2, jobs=500)  # four tasks, one per check: the task count caps the pool
    assert recording_pool.asked == [4]


def test_run_verify_maps_one_task_per_check(monkeypatch, recording_pool):
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 4)
    calls = {"binomial": 0, "central_ratio": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(combinatorics, "binomial", counting("binomial", combinatorics.binomial))
    monkeypatch.setattr(bounds, "central_ratio", counting("central_ratio", bounds.central_ratio))
    run_verify(60, jobs=1)  # fills the Bernoulli cache, whose recurrence calls binomial
    calls.update(binomial=0, central_ratio=0)
    run_verify(60, jobs=1)
    sequential = dict(calls)
    calls.update(binomial=0, central_ratio=0)
    run_verify(60, jobs=3)
    [tasks] = recording_pool.mapped
    assert [(sweep.__name__, n_lo, n_hi) for sweep, n_lo, n_hi, _ in tasks] == [
        ("sandwich_sweep", 1, 60),
        ("dominance_sweep", 1, 60),
        ("alternation_sweep", 1, 60),
        ("order_improvement_sweep", 2, 60),
    ]
    # no C(2n, n) rebuilt and no gap2 evaluated twice at a range boundary
    assert calls == sequential


def test_order_gap_rational_verdict_matches_interval_route():
    # gap4(n) and gap2(n) share the C(2n,n) sqrt(pi n)/4^n term, so the sweep
    # decides gap4 < gap2 by the exponents alone; the interval route, which
    # subtracts that term from both sides, must reach the same verdict.
    for n in range(2, 301):
        b = central_binomial(n)
        interval_verdict, _width, _precision = sweeps._decide_less(
            lambda p: (sweeps._ratio_gap(n, 4, b, p), sweeps._ratio_gap(n, 2, b, p)),
            DEFAULT_POLICY,
        )
        assert bounds.general_exponent(n, 2, 4) < bounds.general_exponent(n, 2, 2)
        assert interval_verdict == "proved", n


def _verdicts(decisions):
    return [(n, verdict, tag) for n, (verdict, _width, _precision), tag in decisions]


@pytest.mark.parametrize("n_lo, n_hi", [(1, 300), (10_000, 10_003)])
def test_ratio_route_alternation_matches_bound_route(n_lo, n_hi):
    # exp(D_J(n)) against R(n) = C(2n,n) sqrt(pi n)/4^n is the bound
    # 4^n/sqrt(pi n) exp(D_J(n)) against C(2n,n), scaled by sqrt(pi n)/4^n
    orders = range(1, 7)
    ratio = _verdicts(sweeps._alternation(n_lo, n_hi, orders, DEFAULT_POLICY))
    reference = _verdicts(reference_alternation(n_lo, n_hi, orders, DEFAULT_POLICY))
    assert len(ratio) == 6 * (n_hi - n_lo + 1)
    assert ratio == reference


@pytest.mark.parametrize("policy", [TINY, PrecisionPolicy(16, 32)])
def test_ratio_route_alternation_agrees_when_starved(policy):
    # the ratio route may decide more instances, never a different verdict
    ratio = _verdicts(sweeps._alternation(1, 60, range(1, 7), policy))
    reference = _verdicts(reference_alternation(1, 60, range(1, 7), policy))
    decided = [(r, ref) for r, ref in zip(ratio, reference) if ref[1] != "undecided"]
    assert all(r == ref for r, ref in decided)
    assert all(verdict != "failed" for _, verdict, _ in ratio)
    if policy is not TINY:
        assert decided  # not vacuous: the reference decides some at 16-32 bits


def _counts(rep):
    return rep.proved, rep.failed, rep.undecided, rep.failures


# orders 1..20 at n <= 40: the links of orders >= 5 fail at small n, where the
# series does not yet envelop, so those orders fall back to direct decisions
@pytest.mark.parametrize(
    "orders, n_hi",
    [
        ((1, 2, 3, 4), 120),
        ((1, 3), 120),
        ((2, 4, 6), 120),
        ((5, 6), 120),
        (tuple(range(1, 21)), 40),
    ],
)
@pytest.mark.parametrize(
    "policy", [DEFAULT_POLICY, TINY, PrecisionPolicy(8, 64), PrecisionPolicy(64, 64)]
)
def test_chained_alternation_matches_direct_decisions(orders, n_hi, policy):
    # the top odd and even orders, warm-started, decide the lower orders
    # through exact links; every order decided on its own from
    # policy.initial must give the same counts and failures, in order
    chained = alternation_sweep(1, n_hi, orders, policy)
    direct = sweeps._report("alternation", 1, n_hi, direct_alternation(1, n_hi, orders, policy))
    assert _counts(chained) == _counts(direct)
    assert chained.total == len(orders) * n_hi


def test_alternation_decides_only_the_top_orders_warm_started(monkeypatch):
    # orders 1 and 2 follow from 3 and 4 at every n, and a top order starts
    # at the precision that decided it at the previous n
    precisions = []
    certainly_less = sweeps.certainly_less

    def counting(a, b):
        precisions.append(max(a.prec, b.prec))
        return certainly_less(a, b)

    monkeypatch.setattr(sweeps, "certainly_less", counting)
    rep = alternation_sweep(1, 1200, (1, 2, 3, 4))
    assert rep.proved == 4 * 1200
    # two interval decisions per n, plus one 64-bit attempt of each top order
    # at the first n that needs 128 bits: later n start at 128
    assert len(precisions) == 2 * 1200 + 2
    assert set(precisions) == {64, 128}


def test_alternation_restarts_a_top_order_where_it_stopped(monkeypatch):
    # a top order starts where its decision at n - 1 stopped, whatever the
    # verdict: at (8, 64) order 6 is left undecided at 64 bits from n = 21
    # on and order 5 from n = 32 on, and each later n takes one 64-bit
    # attempt of each; a restart from 8 bits after every undecided verdict
    # took 807
    precisions = []
    certainly_less = sweeps.certainly_less

    def counting(a, b):
        precisions.append(max(a.prec, b.prec))
        return certainly_less(a, b)

    monkeypatch.setattr(sweeps, "certainly_less", counting)
    rep = alternation_sweep(1, 120, (5, 6), PrecisionPolicy(8, 64))
    assert (rep.proved, rep.failed, rep.undecided) == (51, 0, 189)
    assert len(precisions) == 246


def test_order_improvement_evaluates_each_gap_once(monkeypatch):
    calls = []
    ratio_gap = sweeps._ratio_gap

    def counting(n, order, b, p):
        calls.append((n, order, p))
        return ratio_gap(n, order, b, p)

    monkeypatch.setattr(sweeps, "_ratio_gap", counting)
    rep = order_improvement_sweep(100, 199)
    assert rep.proved == 200
    # gap2(n+1) of step n is reused as gap2(n) of step n+1: n = 100..200 at p = 64
    assert len(calls) == 101
    assert sorted(set(calls)) == [(n, 2, 64) for n in range(100, 201)]


def _rebuilt_order_improvement(n_lo, n_hi, policy):
    """order_improvement_sweep with both gaps rebuilt for every decision."""

    def decisions():
        for n in range(n_lo, n_hi + 1):
            b, b1 = central_binomial(n), central_binomial(n + 1)
            d4_below_d2 = bounds.general_exponent(n, 2, 4) < bounds.general_exponent(n, 2, 2)
            yield n, sweeps._exact(d4_below_d2), "gap4 !< gap2"
            pair = lambda p: (sweeps._ratio_gap(n + 1, 2, b1, p), sweeps._ratio_gap(n, 2, b, p))
            yield n, sweeps._decide_less(pair, policy), "gap2 not decreasing"

    return sweeps._report("order_improvement", n_lo, n_hi, decisions())


def test_order_improvement_carry_matches_rebuilt_gaps():
    # several precision rounds per decision: the carried gap2(n) must be
    # gap2 at n itself, not at the n its step has moved on to
    policy = PrecisionPolicy(16, 1024)
    carried = _strip_timing(order_improvement_sweep(2, 200, policy))
    rebuilt = _strip_timing(_rebuilt_order_improvement(2, 200, policy))
    assert (carried["proved"], carried["failed"], carried["undecided"]) == (398, 0, 0)
    assert carried == rebuilt


def test_decide_less_measures_the_final_pair_only(monkeypatch):
    measured = []
    scaled_width = sweeps.ivl.scaled_width

    def counting(a, b):
        measured.append(a.prec)
        return scaled_width(a, b)

    monkeypatch.setattr(sweeps.ivl, "scaled_width", counting)
    rep = order_improvement_sweep(2, 200, PrecisionPolicy(16, 1024))
    assert rep.proved == 398  # 199 exact and 199 interval decisions
    assert len(measured) == 199
    assert max(measured) > 16  # not vacuous: some decisions escalated
