"""Command-line verifier: reproduce the published tables, run certified
sweeps, evaluate single bounds, and emit the errata report.

Exit codes: 0 all checks proved/matched; 1 at least one failed or
mismatched; 2 undecided results present (always for ``verify``, under
``--strict`` for ``table`` and ``bound``, and for ``errata``, whose evidence
must be proved in full: it then prints one line on stderr and no payload);
64 usage or domain error; 70 internal error (any other exception, one line on
stderr); 73 the ``--out`` file could not be written (one line on stderr).

Output is deterministic: identical invocations produce byte-identical
payloads once ``--no-timing`` drops the wall-clock fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import bounds as bd
from .errata import ErrataEntry, build_errata
from .interval import (
    DEFAULT_POLICY,
    UNDETERMINED,
    NeedsMorePrecision,
    PrecisionPolicy,
    render_escalating,
)
from .sweeps import DEFAULT_ORDERS, run_verify
from .tables import TABLE_HEADERS, TABLE_IDS, TableReport, build_table

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70
EXIT_CANTCREAT = 73


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("md", "csv", "json"), default="md")
    common.add_argument("--out", metavar="PATH", help="write the payload to a file")
    common.add_argument(
        "--precision-init", type=int, default=DEFAULT_POLICY.initial, metavar="BITS"
    )
    common.add_argument(
        "--precision-max", type=int, default=DEFAULT_POLICY.maximum, metavar="BITS"
    )
    common.add_argument(
        "--strict",
        action="store_true",
        help="treat undecided rendering results as exit code 2",
    )
    common.add_argument(
        "--no-timing",
        action="store_true",
        help="omit wall-time fields for byte-identical output",
    )

    parser = _Parser(prog="binomcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser(
        "table",
        parents=[common],
        help="recompute a published table and grade every cell",
    )
    p_table.set_defaults(run=_cmd_table)
    p_table.add_argument("table_id", choices=TABLE_IDS)
    p_table.add_argument(
        "--digits",
        type=int,
        default=None,
        help="significant digits (default: as published; other values are a "
        "diagnostic mode and will not match the published strings)",
    )

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run certified sweep checks over 1..max-n"
    )
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--max-n", type=int, required=True, metavar="N")
    p_verify.add_argument(
        "--order",
        type=int,
        action="append",
        metavar="J",
        help="series order for the alternation check (repeatable; default "
        f"{' '.join(map(str, DEFAULT_ORDERS))})",
    )
    p_verify.add_argument(
        "--jobs", type=int, default=1, help="partition the n-range over processes"
    )

    p_bound = sub.add_parser(
        "bound", parents=[common], help="evaluate one named bound at one point"
    )
    p_bound.set_defaults(run=_cmd_bound)
    p_bound.add_argument("n", type=int)
    p_bound.add_argument("name", choices=[b.value for b in bd.BoundName])
    p_bound.add_argument("--digits", type=int, default=10)
    p_bound.add_argument("--k", type=int, default=0, help="offset for the Gaussian-form bounds")
    p_bound.add_argument("--r", type=int, default=3, help="ratio r for GeneralRS (s := n)")
    p_bound.add_argument(
        "--order",
        type=int,
        default=None,
        help="series order J for CentralOrderN/CatalanOrderN (odd J = lower "
        "bound), or N for GeneralRS",
    )

    p_errata = sub.add_parser(
        "errata", parents=[common], help="emit the reproducible discrepancies"
    )
    p_errata.set_defaults(run=_cmd_errata)
    return parser


def _policy(args) -> PrecisionPolicy:
    return PrecisionPolicy(args.precision_init, args.precision_max)


def _exit_code(failed: bool, undecided: bool) -> int:
    return EXIT_FAILED if failed else EXIT_UNDECIDED if undecided else EXIT_OK


def _emit(args, doc, header, rows, md) -> None:
    """Write the payload in the requested ``--format`` to ``--out`` or stdout.

    ``doc`` is the json document, ``header`` and ``rows`` the csv table and
    ``md()`` builds the markdown text; only the requested format is rendered.
    """
    if args.format == "json":
        payload = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        payload = buf.getvalue()
    else:
        payload = md()
    if not args.out:
        sys.stdout.write(payload)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"binomcert: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(EXIT_CANTCREAT) from None


# -- table rendering -----------------------------------------------------------


def _table_md(report: TableReport) -> str:
    headers = TABLE_HEADERS[report.table_id]
    lines = [
        f"# {report.table_id} reproduction ({report.digits} significant digits)",
        "",
        "| " + " | ".join(headers) + " | status |",
        "|" + "---|" * (len(headers) + 1),
    ]
    for row in report.rows:
        shown = []
        bad = []
        for cell in row.cells:
            text = cell.rendered
            if cell.status == "mismatch":
                text += f" [published {cell.expected}]"
                bad.append(f"MISMATCH:{cell.column}")
            elif cell.status == "undecided":
                bad.append(f"UNDECIDED:{cell.column}")
            shown.append(text)
        lines.append(
            "| " + " | ".join([row.label, *shown, " ".join(bad) or "ok"]) + " |"
        )
    c = report.counts()
    lines += [
        "",
        f"cells: {c['match']} match, {c['mismatch']} mismatch, {c['undecided']} undecided",
        "",
    ]
    return "\n".join(lines)


_TABLE_CSV_HEADER = ("table", "n", "column", "rendered", "expected", "status")


def _cmd_table(args) -> int:
    report = build_table(args.table_id, args.digits, _policy(args))
    c = report.counts()
    rows = []
    for row in report.rows:
        flat: dict = {"n": row.n, "label": row.label}
        for cell in row.cells:
            flat[cell.column] = cell.rendered
            flat[f"{cell.column}_expected"] = cell.expected
            flat[f"{cell.column}_status"] = cell.status
        rows.append(flat)
    doc = {"table": report.table_id, "digits": report.digits, "counts": c, "rows": rows}
    cells = (
        (report.table_id, row.n, cell.column, cell.rendered, cell.expected, cell.status)
        for row in report.rows
        for cell in row.cells
    )
    _emit(args, doc, _TABLE_CSV_HEADER, cells, lambda: _table_md(report))
    return _exit_code(c["mismatch"] > 0, c["undecided"] > 0 and args.strict)


# -- verify rendering ------------------------------------------------------------


def _verify_md(rows: list[dict], cols: list[str]) -> str:
    lines = [
        "# certified sweep verification",
        "",
        "| " + " | ".join(cols) + " |",
        "|" + "---|" * len(cols),
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(row[c]) for c in cols) + " |")
    for row in rows:
        for f in row["failures"]:
            lines.append(f"- {row['check']} {f}")
    lines.append("")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    orders = tuple(args.order) if args.order else DEFAULT_ORDERS
    for j in orders:
        if not 1 <= j <= bd.MAX_SERIES_ORDER:
            raise ValueError(f"order {j} outside 1..{bd.MAX_SERIES_ORDER}")
    reports = run_verify(args.max_n, orders, _policy(args), jobs=args.jobs)
    rows = []
    for rep in reports:
        row = {
            "check": rep.check,
            "n_lo": rep.n_lo,
            "n_hi": rep.n_hi,
            "proved": rep.proved,
            "failed": rep.failed,
            "undecided": rep.undecided,
            "worst_rel_width": f"{rep.worst_rel_width:.3e}",
            "failures": [f"n={n}: {what}" for n, what in rep.failures],
        }
        if not args.no_timing:
            row["wall_time_s"] = f"{rep.wall_time:.2f}"
        rows.append(row)
    cols = ["check", "n_lo", "n_hi", "proved", "failed", "undecided", "worst_rel_width"]
    if not args.no_timing:
        cols.append("wall_time_s")
    doc = {"max_n": args.max_n, "checks": rows}
    table = ([row[c] for c in cols] for row in rows)
    _emit(args, doc, cols, table, lambda: _verify_md(rows, cols))
    return _exit_code(
        any(rep.failed for rep in reports), any(rep.undecided for rep in reports)
    )


# -- bound rendering -------------------------------------------------------------


def _evaluate_named_bound(args, p: int) -> bd.BoundResult:
    name = bd.BoundName(args.name)
    n, k, r = args.n, args.k, args.r
    order = args.order
    if name is bd.BoundName.AGIEVICH_GENERAL:
        return bd.agievich_general(n, k, p)
    if name is bd.BoundName.AGIEVICH_SHIFTED:
        return bd.agievich_shifted(n, k, p)
    if name is bd.BoundName.AGIEVICH_CENTRAL:
        return bd.agievich_central(n, p)
    if name is bd.BoundName.AGIEVICH_CATALAN:
        return bd.agievich_catalan(n, p)
    if name is bd.BoundName.SASVARI_LOWER:
        return bd.sasvari_pair(n, p)[0]
    if name is bd.BoundName.SASVARI_UPPER:
        return bd.sasvari_pair(n, p)[1]
    if name is bd.BoundName.CENTRAL_ORDER_N:
        j = 2 if order is None else order
        return bd.central_lower(n, j, p) if j % 2 else bd.central_upper(n, j, p)
    if name is bd.BoundName.CATALAN_ORDER_N:
        return bd.catalan_upper(n, 2 if order is None else order, p)
    if name is bd.BoundName.GENERAL_RS:
        return bd.general_rs_bound(r, n, 1 if order is None else order, p)
    raise ValueError(f"unhandled bound {name}")  # pragma: no cover


def _cmd_bound(args) -> int:
    evaluated = []  # the result of each precision tried; the last one is reported

    def value_at(p: int):
        evaluated.append(_evaluate_named_bound(args, p))
        return evaluated[-1].value

    rendered = render_escalating(value_at, args.digits, _policy(args))
    result = evaluated[-1]
    name, params, exponent = result.name.value, dict(result.parameters), str(result.exponent)
    doc = {
        "bound": name,
        "parameters": params,
        "digits": args.digits,
        "value": rendered,
        "exponent": exponent,
    }
    pairs = [f"{k}={v}" for k, v in params.items()]
    _emit(
        args,
        doc,
        doc.keys(),
        [(name, ";".join(pairs), args.digits, rendered, exponent)],
        lambda: f"{name}({', '.join(pairs)})\nvalue    = {rendered}\nexponent = {exponent}\n",
    )
    return _exit_code(False, rendered == UNDETERMINED and args.strict)


# -- errata rendering ------------------------------------------------------------

_ERRATA_FIELDS = ("location", "classification", "paper_value", "computed_value", "evidence")


def _errata_md(entries: list[ErrataEntry]) -> str:
    lines = ["# reproducible discrepancies against recomputation", ""]
    for i, e in enumerate(entries, start=1):
        lines += [
            f"## {i}. [{e.classification}] {e.location}",
            "",
            f"- published: `{e.paper_value}`",
            f"- computed:  `{e.computed_value}`",
            f"- evidence:  {e.evidence}",
            "",
        ]
    return "\n".join(lines)


def _cmd_errata(args) -> int:
    entries = build_errata(_policy(args))
    rows = [[getattr(e, f) for f in _ERRATA_FIELDS] for e in entries]
    docs = [dict(zip(_ERRATA_FIELDS, row)) for row in rows]
    _emit(args, docs, _ERRATA_FIELDS, rows, lambda: _errata_md(entries))
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.precision_init < 2 or args.precision_init > args.precision_max:
            raise ValueError("need 2 <= --precision-init <= --precision-max")
        return args.run(args)
    except NeedsMorePrecision as exc:
        print(f"binomcert: undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except ValueError as exc:
        print(f"binomcert: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"binomcert: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
