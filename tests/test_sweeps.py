import dataclasses
import tracemalloc

import pytest

from binomcert import bounds, sweeps
from binomcert.combinatorics import central_binomial
from binomcert.interval import DEFAULT_POLICY, PrecisionPolicy
from binomcert.sweeps import (
    alternation_sweep,
    dominance_sweep,
    general_r_sweep,
    order_improvement_sweep,
    run_verify,
    sandwich_sweep,
)

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
    # An untraced run first fills the per-process caches (series coefficients,
    # pi, exp(1/2)) and the interpreter's free lists, which keep about 250 KiB
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


def _strip_timing(rep):
    d = dataclasses.asdict(rep)
    d.pop("wall_time")
    return d


@pytest.mark.parametrize("policy", [DEFAULT_POLICY, TINY])
def test_sandwich_is_alternation_at_orders_1_and_2(policy):
    sandwich = _strip_timing(sandwich_sweep(1, 60, policy))
    alternation = _strip_timing(alternation_sweep(1, 60, (1, 2), policy))
    assert sandwich.pop("check") == "sandwich"
    assert alternation.pop("check") == "alternation"
    assert sandwich == alternation


def test_chunked_equals_sequential():
    seq = [_strip_timing(r) for r in run_verify(120, jobs=1)]
    par = [_strip_timing(r) for r in run_verify(120, jobs=3)]
    assert [r["check"] for r in seq] == list(sweeps.VERIFY_CHECKS)
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
    assert made == [(2,)]  # one pool of two workers for all eight tasks
    run_verify(30, jobs=1)
    assert made == [(2,)]


def test_run_verify_caps_pool_at_cpu_count(monkeypatch):
    # a recording stand-in for the pool: it forks nothing and maps in process
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", RecordingPool)
    seq = [_strip_timing(r) for r in run_verify(60, jobs=1)]
    for cpus, expected in ((2, 2), (None, 1), (64, 64)):
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
        asked.clear()
        reports = run_verify(60, jobs=500)
        assert asked == [expected]
        # chunking still follows jobs, so the reports equal a sequential run's
        assert [_strip_timing(r) for r in reports] == seq
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 64)
    asked.clear()
    run_verify(2, jobs=500)  # 7 one-n tasks: the task count caps the pool
    assert asked == [7]


def test_order_gap_rational_verdict_matches_interval_route():
    # gap4(n) and gap2(n) share the C(2n,n) sqrt(pi n)/4^n term, so the sweep
    # decides gap4 < gap2 by the exponents alone; the interval route, which
    # subtracts that term from both sides, must reach the same verdict.
    for n in range(2, 301):
        b = central_binomial(n)
        interval_verdict, _ = sweeps._decide_less(
            lambda p: (sweeps._ratio_gap(n, 4, b, p), sweeps._ratio_gap(n, 2, b, p)),
            DEFAULT_POLICY,
        )
        assert bounds.general_exponent(n, 2, 4) < bounds.general_exponent(n, 2, 2)
        assert interval_verdict == "proved", n


def test_merged_requires_same_check():
    a = sandwich_sweep(1, 5)
    b = dominance_sweep(1, 5)
    with pytest.raises(ValueError):
        a.merged(b)
