"""binomcert benchmark: one closed-loop caller timing the package's public API.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (and writes its spans under
``perfbench/out/``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The package is imported
from ``src/`` next to this directory; without it the benchmark exits 2.
See README.md for the workloads and what each metric is meant to show.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

MIN_OPS = 100  # so that ten latency samples lie beyond the 90th percentile
SETUP_SAMPLES = 5  # set-ups timed per run, each in a fresh interpreter
PROBE_TIMEOUT_S = 60


def _import_package() -> None:
    if not (ROOT / "src" / "binomcert" / "__init__.py").is_file():
        print(f"run.py: no package at {ROOT / 'src' / 'binomcert'}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def setup(workload: str, seed: int):
    """Import, build the round's inputs and run its first op once."""
    _import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    inputs = wl.make_round(seed)
    wl.run(inputs[0])
    return wl, inputs


def _probe_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return t1 - t0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_loop(wl, inputs, seconds: float, tracer=None):
    """Run whole rounds until ``seconds`` have passed and MIN_OPS ops are done
    (or 1.5 times ``seconds`` have passed).  Returns per-op latencies, the first
    round's outputs, counts and problems seen along the way."""
    perf = time.perf_counter
    latencies = []
    first = [None] * len(inputs)
    reference = [None] * len(inputs)
    attempted = failed = 0
    problems = []
    start = perf()
    round_walls = []
    while True:
        round_start = perf()
        for i, x in enumerate(inputs):
            if tracer is not None:
                tracer.op = attempted
            t0 = perf()
            try:
                out = wl.run(x)
            except Exception:
                out = None
                problems.append(f"op {x!r} raised:\n{traceback.format_exc()}")
            t1 = perf()
            latencies.append(t1 - t0)
            attempted += 1
            if out is None or wl.failed(out):
                failed += 1
                continue
            fp = wl.fingerprint(out)
            if not round_walls:
                first[i], reference[i] = out, fp
            elif fp != reference[i]:
                problems.append(f"op {x!r}: output differs from its first round")
            if tracer is not None and wl.name == "interactive":
                tracer.add("cli.bytes_out", len(out[1].encode()))
        now = perf()
        round_walls.append(now - round_start)
        elapsed = now - start
        if elapsed >= 1.5 * seconds or (elapsed >= seconds and attempted >= MIN_OPS):
            break
    return {
        "latencies": latencies,
        "wall": elapsed,
        "rounds": len(round_walls),
        "round_walls": round_walls,
        "attempted": attempted,
        "failed": failed,
        "first": first,
        "problems": problems,
    }


def _ops_per_s(loop) -> float:
    """Ops completed per round over the median round's wall time: a slow spell
    of the machine that spans a few rounds does not move it."""
    done_per_round = (loop["attempted"] - loop["failed"]) / loop["rounds"]
    return done_per_round / statistics.median(loop["round_walls"])


def _end_to_end(loop, setups) -> dict:
    lat_ms = [x * 1e3 for x in loop["latencies"]]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": _ops_per_s(loop), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(lat_ms, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": loop["peak_rss_mb"], "unit": "MB"},
    }


LAYER_UNITS = {
    "calls": "count/op", "steps": "count/op", "retries": "count/op", "verdicts": "count/op",
    "compares": "count/op", "cells": "count/op", "self_s": "s/op", "wall_s": "s/op",
    "child_cpu_s": "s/op", "us_per_call": "us", "alloc_peak_mb": "MB", "efficiency": "ratio",
    "rounds_per_verdict": "ratio", "decisive_ratio": "ratio", "bytes_out": "B/op",
    "ops_per_s": "1/s",
}


def _layer_unit(name: str) -> str:
    for part in reversed(name.split(".")):
        if part in LAYER_UNITS:
            return LAYER_UNITS[part]
    raise KeyError(name)


def run_traced(wl, inputs, args):
    import tracemalloc

    from tracing import Tracer

    for x in inputs:  # fill the program's caches, so each round counts the same
        wl.run(x)
    tracer = Tracer()
    tracer.install()
    try:
        origin = time.perf_counter()
        loop = timed_loop(wl, inputs, args.seconds, tracer)
        layers = tracer.metrics(loop["attempted"])
        layers["trace.ops_per_s"] = _ops_per_s(loop)
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{wl.name}-seed{args.seed}"
        tracer.write_spans(f"{stem}.spans.tsv", origin)
        record = {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "ops": loop["attempted"], "rounds": loop["rounds"], "wall_s": loop["wall"],
            "spans_dropped": tracer.dropped, "counts": tracer.counts,
            "self_s": tracer.self_s, "metrics": layers,
        }
        # one more round with allocation tracing, outside the figures above
        tracer.counts = {}
        tracemalloc.start()
        try:
            for x in inputs:
                wl.run(x)
        finally:
            tracemalloc.stop()
        layers["sweeps.alloc_peak_mb"] = tracer.counts.get("sweeps.alloc_peak_bytes", 0) / 2**20
    finally:
        tracer.uninstall()
    with open(f"{stem}.trace.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    return loop, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify", "high_n", "interactive"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    wl, inputs = setup(args.workload, args.seed)
    if args.trace:
        loop, metrics = run_traced(wl, inputs, args)
    else:
        loop = timed_loop(wl, inputs, args.seconds)
        loop["peak_rss_mb"] = _peak_rss_mb()  # before the checks load their oracle
    problems = loop["problems"] + wl.check(inputs, loop["first"], args.seed)
    if not args.trace:
        setups = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
        metrics = _end_to_end(loop, setups)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
