"""In-memory span tracer for the benchmark's traced mode.

The tracer wraps public functions of ``binomcert`` at every module attribute
that holds them, so calls made through a by-name import (``sweeps`` imports
``certainly_less``, ``cli`` imports ``render_significant``, ``run_verify``,
``build_table`` and ``build_errata``) are seen as well as calls through the
home module.  Each wrapped call is a span: layer, start, end, parent span
and the benchmark op it belongs to.  A layer's self time is its span's
duration minus the time its child spans cover.

Worker processes of ``sweeps``' process fan-out are forked from the traced
process.  The fork hook empties their copy of the tracer; a worker attaches
what it recorded to the report it returns, and the pool wrapper merges it
back, so layer figures on a fanned-out run cover every process.

Nothing here runs unless :meth:`Tracer.install` is called: an untraced
benchmark run executes the package unmodified.
"""

from __future__ import annotations

import functools
import os
import resource
import time
import tracemalloc
from array import array
from concurrent.futures import ProcessPoolExecutor

from binomcert import bounds, cli, combinatorics, errata, interval, sweeps, tables

# Every module whose attributes may hold a traced function.
MODULES = (combinatorics, interval, bounds, sweeps, tables, errata, cli)

# Precisions of the default escalation schedule, reported separately.
PRECISIONS = (64, 128, 256, 512)

# Spans kept for the trace file; aggregates keep counting past this.
MAX_SPANS = 1_000_000

BOUND_FUNCTIONS = (
    "agievich_general",
    "agievich_shifted",
    "agievich_central",
    "agievich_catalan",
    "sasvari_pair",
    "central_upper",
    "central_lower",
    "catalan_upper",
    "general_rs_bound",
    "central_ratio",
)
SWEEP_FUNCTIONS = (
    "sandwich_sweep",
    "dominance_sweep",
    "alternation_sweep",
    "order_improvement_sweep",
    "general_r_sweep",
)

LAYERS = (
    "combinatorics.binomial",
    "combinatorics.central_binomial",
    "combinatorics.recurrence",
    "interval.exp",
    "interval.sqrt",
    "interval.pi",
    "interval.from_rational",
    "interval.render",
    "bounds.eval",
    "sweeps",
    "sweeps.fanout",
    "tables.build",
    "errata.build",
    "cli",
)
_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}


class Tracer:
    """Spans and counts of one traced run, kept in memory until the end."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [child_seconds, span_id, layer]
        self.counts: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.op = 0
        self.in_child = False
        self.next_id = 1
        self.dropped = 0
        self._new_span_store()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _new_span_store(self) -> None:
        self.sp_id, self.sp_parent, self.sp_op = array("q"), array("q"), array("q")
        self.sp_layer = array("H")
        self.sp_t0, self.sp_t1 = array("d"), array("d")

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def open(self, layer: str) -> list:
        frame = [0.0, self.next_id, layer]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list, t0: float, t1: float) -> None:
        stack = self.stack
        stack.pop()
        dur = t1 - t0
        layer = frame[2]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - frame[0]
        parent = 0
        if stack:
            stack[-1][0] += dur
            parent = stack[-1][1]
        if len(self.sp_id) < MAX_SPANS:
            self.sp_id.append(frame[1])
            self.sp_parent.append(parent)
            self.sp_op.append(self.op)
            self.sp_layer.append(_LAYER_INDEX[layer])
            self.sp_t0.append(t0)
            self.sp_t1.append(t1)
        else:
            self.dropped += 1

    # -- fork support ----------------------------------------------------------

    def _reset(self) -> None:
        self.stack.clear()  # wrappers hold this list, so clear it in place
        self.counts = {}
        self.self_s = {}
        self.dropped = 0
        self._new_span_store()

    def _after_fork_in_child(self) -> None:
        self._reset()
        self.in_child = True

    def drain(self) -> dict:
        """Everything recorded so far, as plain data; the tracer starts empty."""
        out = {
            "counts": self.counts,
            "self_s": self.self_s,
            "dropped": self.dropped,
            "spans": (
                self.sp_id.tolist(),
                self.sp_parent.tolist(),
                self.sp_layer.tolist(),
                self.sp_t0.tolist(),
                self.sp_t1.tolist(),
            ),
        }
        self._reset()
        return out

    def merge(self, part: dict) -> None:
        """Fold in what a worker process recorded, under the open span."""
        for k, v in part["counts"].items():
            if k == "sweeps.alloc_peak_bytes":
                self.counts[k] = max(self.counts.get(k, 0), v)
            else:
                self.add(k, v)
        for k, v in part["self_s"].items():
            self.self_s[k] = self.self_s.get(k, 0.0) + v
        self.dropped += part["dropped"]
        ids, parents, layers, t0s, t1s = part["spans"]
        if not ids:
            return
        shift = self.next_id - min(ids)  # worker ids continue from the fork
        root = self.stack[-1][1] if self.stack else 0
        for sid, parent, layer, t0, t1 in zip(ids, parents, layers, t0s, t1s):
            if len(self.sp_id) >= MAX_SPANS:
                self.dropped += 1
                continue
            self.sp_id.append(sid + shift)
            self.sp_parent.append(parent + shift if parent else root)
            self.sp_op.append(self.op)
            self.sp_layer.append(layer)
            self.sp_t0.append(t0)
            self.sp_t1.append(t1)
        self.next_id = max(ids) + shift + 1

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, layer: str, after=None, on_error=None, outer_only=False):
        """Wrap fn in a span; ``after(args, out, seconds, outer)`` sees each result."""
        tr = self
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][2] != layer
            frame = tr.open(layer)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tr.close(frame, t0, perf())
                if on_error is not None:
                    on_error(exc)
                raise
            t1 = perf()
            tr.close(frame, t0, t1)
            if not outer_only or outer:
                tr.add(layer + ".calls")
            if after is not None:
                after(args, out, t1 - t0, outer)
            if tr.in_child and not stack and hasattr(out, "__dict__"):
                out._perfbench_trace = tr.drain()
            return out

        return wrapper

    def _recurrence(self, fn):
        """Wrap the ``central_binomials`` generator: one span per step."""
        tr = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = tr.open("combinatorics.recurrence")
                t0 = perf()
                try:
                    item = next(gen)
                except StopIteration:
                    tr.close(frame, t0, perf())
                    return
                except BaseException:
                    tr.close(frame, t0, perf())
                    raise
                tr.close(frame, t0, perf())
                tr.add("combinatorics.recurrence.steps")
                yield item

        return wrapper

    def _compare(self, fn):
        """Count ``certainly_less`` calls by precision and outcome (no span)."""
        tr = self
        unknown = interval.TriState.UNKNOWN

        @functools.wraps(fn)
        def wrapper(a, b):
            out = fn(a, b)
            tr.add("sweeps.compares")
            tr.add(f"sweeps.compares.p{max(a.prec, b.prec)}")
            if out is not unknown:
                tr.add("sweeps.decisive")
            return out

        return wrapper

    def _exp_after(self, args, out, seconds, outer):
        p = args[0].prec
        self.add(f"interval.exp.calls.p{p}")
        self.add(f"interval.exp.seconds.p{p}", seconds)

    def _bound_after(self, args, out, seconds, outer):
        if outer:
            self.add("bounds.eval.seconds", seconds)

    def _render_error(self, exc):
        if isinstance(exc, interval.NeedsMorePrecision):
            self.add("interval.render.retries")

    def _table_after(self, args, out, seconds, outer):
        self.add("tables.cells", sum(len(row.cells) for row in out.rows))

    def _sweep(self, fn):
        """Span for a sweep function, plus its verdicts and allocation peak."""
        tr = self

        def after(args, out, seconds, outer):
            tr.add("sweeps.verdicts", out.total)

        spanned = self._span(fn, "sweeps", after=after)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracemalloc.is_tracing():
                return spanned(*args, **kwargs)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = spanned(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
            # in a worker the report already carries the drained counts
            part = getattr(out, "_perfbench_trace", None)
            target = part["counts"] if part is not None else tr.counts
            target["sweeps.alloc_peak_bytes"] = max(
                target.get("sweeps.alloc_peak_bytes", 0), peak
            )
            return out

        return wrapper

    def _pool_class(self):
        tr = self
        perf = time.perf_counter

        class TracedPool(ProcessPoolExecutor):
            """The fan-out layer: pool lifetime, workers and their CPU time."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._bench_workers = self._max_workers
                self._bench_cpu0 = _children_cpu()
                self._bench_frame = tr.open("sweeps.fanout")
                self._bench_t0 = perf()

            def map(self, fn, *iterables, **kwargs):
                results = list(super().map(fn, *iterables, **kwargs))
                for r in results:
                    part = getattr(r, "__dict__", {}).pop("_perfbench_trace", None)
                    if part is not None:
                        tr.merge(part)
                return iter(results)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)  # joins the workers
                finally:
                    t1 = perf()
                    tr.close(self._bench_frame, self._bench_t0, t1)
                    wall = t1 - self._bench_t0
                    tr.add("sweeps.fanout.wall_s", wall)
                    tr.add("sweeps.fanout.worker_wall_s", wall * self._bench_workers)
                    tr.add("sweeps.fanout.child_cpu_s", _children_cpu() - self._bench_cpu0)

        return TracedPool

    # -- installation ----------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        os.register_at_fork(after_in_child=self._after_fork_in_child)
        span = self._span
        self._replace(combinatorics.binomial, span(combinatorics.binomial, "combinatorics.binomial"))
        self._replace(
            combinatorics.central_binomial,
            span(combinatorics.central_binomial, "combinatorics.central_binomial"),
        )
        self._replace(combinatorics.central_binomials, self._recurrence(combinatorics.central_binomials))
        self._replace(interval.exp, span(interval.exp, "interval.exp", after=self._exp_after))
        self._replace(interval.sqrt, span(interval.sqrt, "interval.sqrt"))
        self._replace(interval.pi, span(interval.pi, "interval.pi"))
        self._replace(interval.from_rational, span(interval.from_rational, "interval.from_rational"))
        self._replace(
            interval.render_significant,
            span(interval.render_significant, "interval.render", on_error=self._render_error),
        )
        self._replace(interval.certainly_less, self._compare(interval.certainly_less))
        for name in BOUND_FUNCTIONS:
            fn = getattr(bounds, name)
            self._replace(fn, span(fn, "bounds.eval", after=self._bound_after, outer_only=True))
        for name in SWEEP_FUNCTIONS:
            fn = getattr(sweeps, name)
            self._replace(fn, self._sweep(fn))
        self._replace(sweeps.run_verify, span(sweeps.run_verify, "sweeps"))
        self._replace(tables.build_table, span(tables.build_table, "tables.build", after=self._table_after))
        self._replace(errata.build_errata, span(errata.build_errata, "errata.build"))
        self._replace(cli.main, span(cli.main, "cli"))
        self._patches.append((sweeps, "ProcessPoolExecutor", sweeps.ProcessPoolExecutor))
        sweeps.ProcessPoolExecutor = self._pool_class()

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer figures; counts and times are per benchmark op."""
        c, s = self.counts, self.self_s

        def per_op(x):
            return x / ops

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "combinatorics.central_binomial.calls": per_op(c.get("combinatorics.central_binomial.calls", 0)),
            "combinatorics.central_binomial.self_s": per_op(s.get("combinatorics.central_binomial", 0.0)),
            "combinatorics.recurrence.steps": per_op(c.get("combinatorics.recurrence.steps", 0)),
            "combinatorics.recurrence.self_s": per_op(s.get("combinatorics.recurrence", 0.0)),
            "combinatorics.binomial.calls": per_op(c.get("combinatorics.binomial.calls", 0)),
            "combinatorics.binomial.self_s": per_op(s.get("combinatorics.binomial", 0.0)),
            "interval.exp.calls": per_op(c.get("interval.exp.calls", 0)),
            "interval.exp.self_s": per_op(s.get("interval.exp", 0.0)),
        }
        for p in PRECISIONS:
            m[f"interval.exp.calls.p{p}"] = per_op(c.get(f"interval.exp.calls.p{p}", 0))
        for p in PRECISIONS:
            m[f"interval.exp.us_per_call.p{p}"] = 1e6 * ratio(
                c.get(f"interval.exp.seconds.p{p}", 0.0), c.get(f"interval.exp.calls.p{p}", 0)
            )
        for layer in ("interval.sqrt", "interval.pi", "interval.from_rational"):
            m[layer + ".calls"] = per_op(c.get(layer + ".calls", 0))
            m[layer + ".self_s"] = per_op(s.get(layer, 0.0))
        m["interval.render.calls"] = per_op(c.get("interval.render.calls", 0))
        m["interval.render.retries"] = per_op(c.get("interval.render.retries", 0))
        m["interval.render.self_s"] = per_op(s.get("interval.render", 0.0))
        m["bounds.eval.calls"] = per_op(c.get("bounds.eval.calls", 0))
        m["bounds.eval.self_s"] = per_op(s.get("bounds.eval", 0.0))
        m["bounds.eval.us_per_call"] = 1e6 * ratio(
            c.get("bounds.eval.seconds", 0.0), c.get("bounds.eval.calls", 0)
        )
        compares = c.get("sweeps.compares", 0)
        verdicts = c.get("sweeps.verdicts", 0)
        m["sweeps.verdicts"] = per_op(verdicts)
        m["sweeps.compares"] = per_op(compares)
        for p in PRECISIONS:
            m[f"sweeps.compares.p{p}"] = per_op(c.get(f"sweeps.compares.p{p}", 0))
        m["sweeps.rounds_per_verdict"] = ratio(compares, verdicts)
        m["sweeps.decisive_ratio"] = ratio(c.get("sweeps.decisive", 0), compares)
        m["sweeps.self_s"] = per_op(s.get("sweeps", 0.0))
        m["sweeps.alloc_peak_mb"] = c.get("sweeps.alloc_peak_bytes", 0) / 2**20
        m["sweeps.fanout.wall_s"] = per_op(c.get("sweeps.fanout.wall_s", 0.0))
        m["sweeps.fanout.child_cpu_s"] = per_op(c.get("sweeps.fanout.child_cpu_s", 0.0))
        m["sweeps.fanout.efficiency"] = ratio(
            c.get("sweeps.fanout.child_cpu_s", 0.0), c.get("sweeps.fanout.worker_wall_s", 0.0)
        )
        m["tables.build.self_s"] = per_op(s.get("tables.build", 0.0))
        m["tables.cells"] = per_op(c.get("tables.cells", 0))
        m["errata.build.self_s"] = per_op(s.get("errata.build", 0.0))
        m["cli.self_s"] = per_op(s.get("cli", 0.0))
        m["cli.bytes_out"] = per_op(c.get("cli.bytes_out", 0))
        return m

    def write_spans(self, path: str, origin: float) -> None:
        """Spans as tab-separated lines; times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tlayer\tstart_s\tend_s\n")
            for sid, parent, op, layer, t0, t1 in zip(
                self.sp_id, self.sp_parent, self.sp_op, self.sp_layer, self.sp_t0, self.sp_t1
            ):
                fh.write(f"{sid}\t{parent}\t{op}\t{LAYERS[layer]}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\n")


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime
