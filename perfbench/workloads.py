"""The benchmark's three workloads: their seeded inputs, one op, and its checks.

Each workload builds one round of ops from the seed.  A run repeats that
round whole, so every round does the same work; inputs are stratified (a
fixed number of ops per cost class, with the seed choosing where inside each
class's narrow range an op falls) so that runs on different seeds do nearly
the same amount of work.  Ops call ``binomcert`` through module attributes
looked up at call time, which is where the traced mode wraps them.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

from binomcert import bounds, cli, combinatorics, sweeps

# ``oracle`` (and mpmath with it) is imported by the checks alone, after the
# timed loop, so that it adds nothing to set-up time or peak RSS.

VERIFY_CHECKS = ("sandwich", "dominance", "alternation", "order_improvement")


def _report_key(rep) -> tuple:
    return (rep.check, rep.n_lo, rep.n_hi, rep.proved, rep.failed, rep.undecided,
            tuple(rep.failures), rep.worst_rel_width)


def _enclosures(n: int, precisions=(64, 256)) -> dict:
    """The program's enclosures at n, keyed as ``oracle.sample_problems`` reads them."""
    out = {}
    for p in precisions:
        for j in (1, 2, 3, 4):
            f = bounds.central_lower if j % 2 else bounds.central_upper
            out[("lower" if j % 2 else "upper", j, p)] = f(n, j, p).value
        out[("ratio", 0, p)] = bounds.central_ratio(n, p)
        out[("agievich", 0, p)] = bounds.agievich_central(n, p).value
    return out


def _sample(n: int) -> list[str]:
    import oracle

    return oracle.sample_problems(n, combinatorics.central_binomial(n), _enclosures(n))


class Verify:
    """Blocks of consecutive n, each op certifying one block with all four
    verify checks through the exported sweep functions, plus one
    ``run_verify(max_n=M, jobs=2)`` per round: the only op through the
    process fan-out, with the same per-n work as the blocks."""

    name = "verify"
    BLOCK = 10
    # (low, high, blocks): one block per equal stratum of [low, high).  The
    # cost per n is flat on [750, 1500) and on [2000, 3000] and steps up
    # between.  With K ops per round the median is the middle sample of the
    # op ranked (K+1)/2 by cost and the 90th percentile lies near the middle
    # of the op ranked 0.9 K + 1/2, whenever K is 5 modulo 10; so each
    # workload's round has such a K and like-cost ops at those two ranks.
    # Here K = 4 + 7 + 3 blocks + 1 fan-out op: the median op is the middle
    # one of the seven middle blocks, and the 90th percentile the costliest
    # block, since the fan-out op (forking a pool per check) costs more.
    STRATA = ((1, 750, 4), (750, 1500, 7), (1500, 3000, 3))
    FANOUT_M = 24  # +-1, seeded

    def make_round(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        out = []
        for low, high, blocks in self.STRATA:
            width = (high - low) // blocks
            for i in range(blocks):
                lo = low + i * width + rng.randrange(width - self.BLOCK + 1)
                out.append(("block", lo, lo + self.BLOCK - 1))
        out.append(("fanout", self.FANOUT_M + rng.randint(-1, 1)))
        return out

    def run(self, op):
        if op[0] == "fanout":
            return sweeps.run_verify(op[1], jobs=2)
        _, lo, hi = op
        return [
            sweeps.sandwich_sweep(lo, hi),
            sweeps.dominance_sweep(lo, hi),
            sweeps.alternation_sweep(lo, hi),
            sweeps.order_improvement_sweep(max(2, lo), hi),
        ]

    def failed(self, out) -> bool:
        return False

    def fingerprint(self, out):
        return [_report_key(r) for r in out]

    def check(self, inputs, outputs, seed: int) -> list[str]:
        import oracle

        rng = random.Random(seed + 1)
        spots = sweeps.DOMINANCE_SPOT_CHECKS
        problems = []
        for op, reports in zip(inputs, outputs):
            if [r.check for r in reports] != list(VERIFY_CHECKS):
                problems.append(f"{op}: reports {[r.check for r in reports]}")
                continue
            lo, hi = (1, op[1]) if op[0] == "fanout" else op[1:]
            for check, rep in zip(VERIFY_CHECKS, reports):
                problems += oracle.report_problems(rep, check, lo, hi, spots)
            if op[0] == "fanout":
                problems += oracle.same_reports_problems(reports, sweeps.run_verify(hi, jobs=1))
            else:
                problems += _sample(rng.randint(lo, hi))
        return problems


class HighN:
    """Sandwich, alternation and order-improvement sweeps over short windows of
    n in the tens of thousands, one sweep call per op."""

    name = "high_n"
    CENTRES = (10_000, 13_000, 16_000, 19_000, 22_000)  # window starts within +-1%
    WINDOW = 4
    CHECKS = ("sandwich", "alternation", "order_improvement")

    def make_round(self, seed: int) -> list[tuple[str, int, int]]:
        rng = random.Random(seed)
        out = []
        for c in self.CENTRES:
            lo = c + rng.randint(-c // 100, c // 100)
            out += [(check, lo, lo + self.WINDOW - 1) for check in self.CHECKS]
        return out

    def run(self, op):
        check, lo, hi = op
        return getattr(sweeps, check + "_sweep")(lo, hi)

    def failed(self, out) -> bool:
        return False

    def fingerprint(self, out):
        return _report_key(out)

    def check(self, inputs, outputs, seed: int) -> list[str]:
        import oracle

        problems = []
        for (check, lo, hi), rep in zip(inputs, outputs):
            problems += oracle.report_problems(rep, check, lo, hi)
        for lo in sorted({lo for _, lo, _ in inputs}):
            problems += _sample(lo)
        return problems


# Bounds whose value has about 0.6 n decimal digits (a 4^n prefactor): at a
# given n they cost the same to render, so the medium and heavy classes draw
# from these alone.
CENTRAL_LIKE = (
    "AgievichShifted",
    "AgievichCentral",
    "AgievichCatalan",
    "SasvariLower",
    "SasvariUpper",
    "CentralOrderN",
    "CatalanOrderN",
)
ALL_BOUNDS = ("AgievichGeneral", *CENTRAL_LIKE, "GeneralRS")
FORMATS = ("md", "csv", "json")


class Interactive:
    """A fixed mix of ``table``, ``errata`` and ``bound`` commands, run in
    process through ``cli.main``.  Per round: every table and the errata
    report in each of md, csv and json, 16 light bounds (n up to 3000), 6
    medium bounds (n about 26000) and one heavy bound (n near 10^5): 35 ops.
    By cost the light bounds rank 1-16, errata 17-19, tables and medium
    bounds 20-34, so the median op is the middle errata report and the 90th
    percentile falls among the medium bounds and table1, whatever the seed."""

    name = "interactive"
    LIGHT = 16
    LIGHT_MAX_N = 3000
    MEDIUM = 6
    MEDIUM_N = (26_000, 26_500)
    HEAVY_N = (98_000, 100_000)

    def _bound(self, rng, name: str, n: int, digits: int) -> list[str]:
        argv = ["bound", str(n), name, f"--digits={digits}", f"--format={rng.choice(FORMATS)}"]
        if name == "AgievichGeneral":
            argv.append(f"--k={rng.randint(0, n)}")
        elif name == "AgievichShifted":
            argv.append(f"--k={rng.randint(-math.isqrt(n), math.isqrt(n))}")
        elif name == "CentralOrderN":
            argv.append(f"--order={rng.randint(1, 6)}")
        elif name == "CatalanOrderN":
            argv.append(f"--order={rng.choice((2, 4))}")
        elif name == "GeneralRS":
            argv += [f"--r={rng.randint(2, 5)}", f"--order={rng.randint(1, 2)}"]
        return argv

    def make_round(self, seed: int) -> list[list[str]]:
        rng = random.Random(seed)
        out = [["table", t, f"--format={f}"] for t in ("table1", "table2", "table3") for f in FORMATS]
        out += [["errata", f"--format={f}"] for f in FORMATS]
        start = rng.randrange(len(ALL_BOUNDS))
        top = math.log10(self.LIGHT_MAX_N)
        for i in range(self.LIGHT):
            # one n per stratum of log10 n in [0, log10 LIGHT_MAX_N]
            n = max(1, round(10 ** (top * (i + rng.random()) / self.LIGHT)))
            name = ALL_BOUNDS[(start + i) % len(ALL_BOUNDS)]
            out.append(self._bound(rng, name, n, rng.choice((6, 10, 14, 20))))
        for _ in range(self.MEDIUM):
            n = rng.randint(*self.MEDIUM_N)
            out.append(self._bound(rng, rng.choice(CENTRAL_LIKE), n, rng.choice((10, 14))))
        n = rng.randint(*self.HEAVY_N)
        out.append(self._bound(rng, rng.choice(CENTRAL_LIKE), n, 10))
        return out

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def failed(self, out) -> bool:
        return out[0] not in (0, 1)  # 2: undecided, 64: usage or internal error

    def fingerprint(self, out):
        return out

    def check(self, inputs, outputs, seed: int) -> list[str]:
        import oracle

        problems = []
        for argv, (rc, text) in zip(inputs, outputs):
            fmt = argv[-1].split("=")[1] if argv[0] != "bound" else None
            if argv[0] == "table":
                problems += oracle.table_output_problems(argv[1], fmt, rc, text)
            elif argv[0] == "errata":
                problems += oracle.errata_output_problems(fmt, rc, text)
            else:
                problems += oracle.bound_output_problems(argv, rc, text)
        return problems


WORKLOADS = {w.name: w for w in (Verify(), HighN(), Interactive())}
