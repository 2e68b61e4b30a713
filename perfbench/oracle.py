"""Correctness checks for the benchmark, computed apart from the package.

Reference values come from mpmath (transcendentals), ``math.comb`` (exact
binomials), Akiyama-Tanigawa (Bernoulli numbers) and the bound formulas as
the paper states them.  Nothing here imports ``binomcert``: the checkers
take the program's outputs as plain data (strings, report objects, interval
endpoints) and return a list of problems, empty when the output is right.

Rendered decimals are read from their leading digits and their length, never
through ``int()`` or ``Fraction()`` of the whole string, so plain renderings
past Python's 4300-digit int-to-str limit and scientific renderings both
pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

import mpmath

# Working precision of the reference values, in bits.  The enclosures under
# test carry at most 512 + a few bits per endpoint, so endpoints convert to
# mpf exactly and a reference error of 2**-1100 cannot move a verdict.
REF_BITS = 1100


# -- exact reference values ------------------------------------------------------


def bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0..B_m by the Akiyama-Tanigawa triangle (B_1 = +1/2 convention; the
    even-index values, the only ones used here, agree with every convention)."""
    row = [Fraction(0)] * (m + 1)
    out = []
    for i in range(m + 1):
        row[i] = Fraction(1, i + 1)
        for j in range(i, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


_B = bernoulli_numbers(48)


def series_coefficient(j: int) -> Fraction:
    """t_j = -B_2j (4^j - 1) / (j (2j - 1) 4^j) of the central correction series."""
    return -_B[2 * j] * (4**j - 1) / (j * (2 * j - 1) * 4**j)


def central_exponent(n: int, order: int) -> Fraction:
    """sum_{j <= order} t_j / n^(2j - 1)."""
    return sum((series_coefficient(j) / n ** (2 * j - 1) for j in range(1, order + 1)), Fraction(0))


def general_exponent(s: int, r: int, order: int) -> Fraction:
    """D_order(s, r) = sum_j B_2j/(2j(2j-1)) [(rs)^-(2j-1) - s^-(2j-1) - ((r-1)s)^-(2j-1)]."""
    total = Fraction(0)
    for j in range(1, order + 1):
        e = 2 * j - 1
        total += _B[2 * j] / (2 * j * e) * (
            Fraction(1, (r * s) ** e) - Fraction(1, s**e) - Fraction(1, ((r - 1) * s) ** e)
        )
    return total


# -- reference values in mpmath ------------------------------------------------------


def _mp(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def _central(n: int, exponent: Fraction) -> mpmath.mpf:
    """4^n / sqrt(pi n) * exp(exponent)."""
    return mpmath.mpf(4) ** n / mpmath.sqrt(mpmath.pi * n) * mpmath.exp(_mp(exponent))


def central_ratio(n: int) -> mpmath.mpf:
    """C(2n, n) sqrt(pi n) / 4^n."""
    return mpmath.mpf(math.comb(2 * n, n)) * mpmath.sqrt(mpmath.pi * n) / mpmath.mpf(4) ** n


def general_rs(r: int, s: int, growth_sq: Fraction, exponent: Fraction) -> mpmath.mpf:
    """growth_sq^s / sqrt(2(1 - 1/r) pi s) * exp(exponent)."""
    scale = mpmath.mpf(growth_sq.numerator) ** s / mpmath.mpf(growth_sq.denominator) ** s
    return scale / mpmath.sqrt(mpmath.mpf(2 * (r - 1)) / r * mpmath.pi * s) * mpmath.exp(_mp(exponent))


def bound_spec(name: str, n: int, k: int = 0, r: int = 3, order: int | None = None):
    """(printed parameters, exact exponent, mpmath value) of a named bound, from
    the paper's formulas.  Call under the mpmath precision the value needs."""
    if name == "AgievichGeneral":
        e = Fraction(-((2 * k - n) ** 2), 2 * n) + Fraction(23, 18 * n)
        v = mpmath.mpf(2) ** n / mpmath.sqrt(mpmath.pi * n / 2) * mpmath.exp(_mp(e))
        return {"n": n, "k": k}, e, v
    if name == "AgievichShifted":
        e = Fraction(-(k * k), n) + Fraction(23, 36 * n)
        return {"n": n, "k": k}, e, _central(n, e)
    if name in ("AgievichCentral", "AgievichCatalan"):
        e = Fraction(23, 36 * n)
        v = _central(n, e)
        return {"n": n}, e, (v / (n + 1) if name == "AgievichCatalan" else v)
    if name in ("SasvariLower", "SasvariUpper"):
        e = central_exponent(n, 1 if name == "SasvariLower" else 2)
        return {"n": n}, e, _central(n, e)
    if name == "CentralOrderN":
        e = central_exponent(n, order)
        return {"n": n, "order": order}, e, _central(n, e)
    if name == "CatalanOrderN":
        e = central_exponent(n, order)
        return {"n": n, "order": order}, e, _central(n, e) / (n + 1)
    if name == "GeneralRS":
        e = general_exponent(n, r, 2 * order)
        v = general_rs(r, n, Fraction(r**r, (r - 1) ** (r - 1)), e)
        return {"r": r, "s": n, "order": order}, e, v
    raise ValueError(f"unknown bound {name!r}")


# -- rendered decimals ---------------------------------------------------------------

_DECIMAL = re.compile(r"(-?)(\d+)(?:\.(\d+))?(?:[eE]([+-]?\d+))?")


def parse_rendered(text: str, digits: int) -> tuple[int, int, int]:
    """Read a rendering of ``digits`` significant digits as (sign, sig, q):
    the printed value is sign * sig * 10**q and its ulp is 10**q.

    Only the leading ``digits`` digits are converted to an int; the position
    of the leading digit comes from the string's length.  Trailing zeros of
    a plain integer rendering are padding.  Raises ValueError on a string
    that is not such a rendering.
    """
    m = _DECIMAL.fullmatch(text)
    if m is None:
        raise ValueError(f"not a decimal: {text[:40]!r}")
    sign = -1 if m.group(1) else 1
    whole, frac, exp10 = m.group(2), m.group(3) or "", int(m.group(4) or 0)
    body = (whole + frac).lstrip("0")
    if not body:
        raise ValueError("zero has no significant digits")
    lead = exp10 - len(frac) + len(body) - 1  # decimal exponent of the leading digit
    sig, rest = body[:digits], body[digits:]
    if len(sig) < digits:
        raise ValueError(f"{text[:40]!r} shows fewer than {digits} significant digits")
    if rest and (frac or rest.strip("0")):
        raise ValueError(f"{text[:40]!r} shows more than {digits} significant digits")
    return sign, int(sig), lead - digits + 1


def rendering_problems(text: str, digits: int, ref: mpmath.mpf, what: str) -> list[str]:
    """The printed value must lie within half an ulp of the reference value."""
    try:
        sign, sig, q = parse_rendered(text, digits)
    except ValueError as exc:
        return [f"{what}: {exc}"]
    scaled = ref * mpmath.power(10, -q)  # the reference in units of the ulp
    if abs(sign * sig - scaled) > mpmath.mpf(0.5) * (1 + mpmath.mpf(2) ** -200):
        return [f"{what}: printed {text[:24]}... is {float(sign * sig - scaled):.3g} ulp off"]
    return []


# -- CLI outputs ---------------------------------------------------------------------


def bound_output_problems(argv: list[str], rc: int, out: str) -> list[str]:
    """``binomcert bound N NAME [--k K] [--r R] [--order J] [--digits D] --format F``."""
    n, name = int(argv[1]), argv[2]
    opts = _options(argv[3:])
    digits = int(opts.get("--digits", 10))
    fmt = opts.get("--format", "md")
    k, r = int(opts.get("--k", 0)), int(opts.get("--r", 3))
    order = opts.get("--order")
    if order is None:
        order = {"CentralOrderN": 2, "CatalanOrderN": 2, "GeneralRS": 1}.get(name)
    else:
        order = int(order)
    if rc != 0:
        return [f"bound {n} {name}: exit code {rc}, expected 0"]
    try:
        doc = _parse_bound(out, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"bound {n} {name}: unreadable {fmt} output ({exc})"]
    with mpmath.workdps(60):
        params, exponent, ref = bound_spec(name, n, k, r, order)
        problems = []
        if doc["bound"] != name:
            problems.append(f"bound {n} {name}: prints bound name {doc['bound']!r}")
        if doc["parameters"] != params:
            problems.append(f"bound {n} {name}: parameters {doc['parameters']} != {params}")
        if doc["digits"] is not None and int(doc["digits"]) != digits:
            problems.append(f"bound {n} {name}: digits {doc['digits']} != {digits}")
        if Fraction(doc["exponent"]) != exponent:
            problems.append(f"bound {n} {name}: exponent {doc['exponent']} != {exponent}")
        problems += rendering_problems(doc["value"], digits, ref, f"bound {n} {name} value")
    return problems


def _options(args: list[str]) -> dict[str, str]:
    out = {}
    for a in args:
        if a.startswith("--") and "=" in a:
            key, value = a.split("=", 1)
            out[key] = value
    return out


def _parse_bound(out: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["bound", "parameters", "digits", "value", "exponent"] or len(rows) != 2:
            raise ValueError("unexpected csv layout")
        name, params, digits, value, exponent = rows[1]
        pairs = [p.split("=") for p in params.split(";")]
        return {
            "bound": name,
            "parameters": {key: int(v) for key, v in pairs},
            "digits": digits,
            "value": value,
            "exponent": exponent,
        }
    lines = out.splitlines()
    m = re.fullmatch(r"(\w+)\((.*)\)", lines[0])
    if m is None or not lines[1].startswith("value    = ") or not lines[2].startswith("exponent = "):
        raise ValueError("unexpected md layout")
    pairs = [p.split("=") for p in m.group(2).split(", ")]
    return {
        "bound": m.group(1),
        "parameters": {key: int(v) for key, v in pairs},
        "digits": None,  # md does not print the digit count
        "value": lines[1][len("value    = "):],
        "exponent": lines[2][len("exponent = "):],
    }


# Published tables: significant digits and, per column, the reference value.
TABLE_DIGITS = {"table1": 10, "table2": 14, "table3": 14}
TABLE_COLUMNS = {
    "table1": ("central_binomial", "agievich_central", "sasvari_upper"),
    "table2": ("central_ratio", "exp_order2", "exp_order4"),
    "table3": ("catalan", "catalan_order2", "catalan_order4"),
}
EXACT_COLUMNS = {"central_binomial", "catalan"}
# the published cell with a dropped digit: the one mismatch a correct run reports
KNOWN_MISMATCH = ("table1", 5, "agievich_central")


def _table_reference(column: str, n: int):
    if column == "central_binomial":
        return math.comb(2 * n, n)
    if column == "catalan":
        return math.comb(2 * n, n) // (n + 1)
    if column == "agievich_central":
        return _central(n, Fraction(23, 36 * n))
    if column == "sasvari_upper":
        return _central(n, central_exponent(n, 2))
    if column == "central_ratio":
        return central_ratio(n)
    if column in ("exp_order2", "exp_order4"):
        return mpmath.exp(_mp(central_exponent(n, int(column[-1]))))
    if column in ("catalan_order2", "catalan_order4"):
        return _central(n, central_exponent(n, int(column[-1]))) / (n + 1)
    raise ValueError(column)


def table_output_problems(table_id: str, fmt: str, rc: int, out: str) -> list[str]:
    """Every cell right to its published digit count, statuses consistent, and
    the exit code 1 only for the one known bad published cell."""
    try:
        cells = _parse_table(table_id, fmt, out)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{table_id} {fmt}: unreadable output ({exc})"]
    digits = TABLE_DIGITS[table_id]
    want = [(n, col) for n in range(1, 11) for col in TABLE_COLUMNS[table_id]]
    if [(n, col) for n, col, _, _, _ in cells] != want:
        return [f"{table_id} {fmt}: cells are not rows 1..10 x {TABLE_COLUMNS[table_id]}"]
    problems = []
    mismatches = set()
    with mpmath.workdps(60):
        for n, col, rendered, expected, status in cells:
            where = f"{table_id} {fmt} n={n} {col}"
            ref = _table_reference(col, n)
            if col in EXACT_COLUMNS:
                if rendered != str(ref):
                    problems.append(f"{where}: {rendered} != {ref}")
            else:
                problems += rendering_problems(rendered, digits, ref, where)
            if status not in ("match", "mismatch"):
                problems.append(f"{where}: status {status}")
            if status == "mismatch":
                mismatches.add((table_id, n, col))
            if expected is not None and (status == "match") != (rendered == expected):
                problems.append(f"{where}: status {status} for {rendered!r} vs published {expected!r}")
    allowed = {KNOWN_MISMATCH} if table_id == KNOWN_MISMATCH[0] else set()
    if mismatches != allowed:
        problems.append(f"{table_id} {fmt}: mismatches {sorted(mismatches)}, expected {sorted(allowed)}")
    if rc != (1 if allowed else 0):
        problems.append(f"{table_id} {fmt}: exit code {rc}")
    return problems


def _parse_table(table_id: str, fmt: str, out: str) -> list[tuple]:
    """(n, column, rendered, published or None, status) per cell."""
    columns = TABLE_COLUMNS[table_id]
    cells = []
    if fmt == "json":
        doc = json.loads(out)
        for row in doc["rows"]:
            for col in columns:
                cells.append((row["n"], col, row[col], row[f"{col}_expected"], row[f"{col}_status"]))
        return cells
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["table", "n", "column", "rendered", "expected", "status"]:
            raise ValueError("unexpected csv header")
        return [(int(n), col, rendered, expected, status) for _, n, col, rendered, expected, status in rows[1:]]
    body = [line for line in out.splitlines() if line.startswith("| ") and not line.startswith("| n |")]
    for n, line in enumerate(body, start=1):
        parts = line[2:-2].split(" | ")
        flags = parts[-1].split()
        for col, text in zip(columns, parts[1:-1]):
            rendered, _, published = text.partition(" [published ")
            status = "mismatch" if f"MISMATCH:{col}" in flags else "match"
            if f"UNDECIDED:{col}" in flags:
                status = "undecided"
            cells.append((n, col, rendered, published[:-1] if published else None, status))
    return cells


def errata_output_problems(fmt: str, rc: int, out: str) -> list[str]:
    """The five discrepancies, each backed by a value recomputed here."""
    try:
        entries = _parse_errata(fmt, out)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"errata {fmt}: unreadable output ({exc})"]
    problems = [f"errata {fmt}: exit code {rc}"] if rc != 0 else []
    kinds = sorted(e["classification"] for e in entries)
    if kinds != ["coefficient", "dropped_digit", "formula", "formula", "sign"]:
        return problems + [f"errata {fmt}: classifications {kinds}"]
    by_kind = {}
    for e in entries:
        by_kind.setdefault(e["classification"], []).append(e)

    b6 = str(_B[6])
    sign = by_kind["sign"][0]
    if sign["computed_value"] != b6 or sign["paper_value"] != "-" + b6:
        problems.append(f"errata {fmt}: B_6 entry {sign['paper_value']} -> {sign['computed_value']}, B_6 = {b6}")

    coeff = by_kind["coefficient"][0]["evidence"]
    printed_j1 = str(_B[2] / (2**2 - 1))
    if f"evaluates to {printed_j1}," not in coeff or f"t_1 = {series_coefficient(1)}," not in coeff:
        problems.append(f"errata {fmt}: coefficient evidence lacks {printed_j1} or t_1")

    with mpmath.workdps(60):
        dropped = by_kind["dropped_digit"][0]
        computed = dropped["computed_value"]
        problems += rendering_problems(
            computed, 10, _central(5, Fraction(23, 36 * 5)), f"errata {fmt} dropped-digit value"
        )
        if dropped["paper_value"] != computed[1:]:
            problems.append(f"errata {fmt}: {dropped['paper_value']} is not {computed} less its leading digit")

        growth = _find_entry(by_kind["formula"], "growth factor")
        prefactor = _find_entry(by_kind["formula"], "prefactor")
        if growth is None or prefactor is None:
            return problems + [f"errata {fmt}: formula entries not found"]
        ev = growth["evidence"]
        r, s = 3, 5
        d2 = general_exponent(s, r, 2)
        checks = [
            (r"C\(15,5\) = (\d+)", None, math.comb(15, 5)),
            (r"gives the bound (\S+) \(holds", 12, general_rs(r, s, Fraction(27, 4), d2)),
            (r"gives (\S+) under d\^\(2s\)", 12, general_rs(r, s, Fraction(9), d2)),
            (r"gives (\S+) < \d+, violating", 12, general_rs(r, s, Fraction(3), d2)),
        ]
        d2_at_1 = central_exponent(1, 2)
        pref = [
            (r"gives (\S+) < 2 = C\(2,1\)", 11, 2 / mpmath.sqrt(mpmath.pi) * mpmath.exp(_mp(d2_at_1))),
            (r"gives (\S+) > 2", 11, 4 / mpmath.sqrt(mpmath.pi) * mpmath.exp(_mp(d2_at_1))),
        ]
        for text, items in ((ev, checks), (prefactor["evidence"], pref)):
            for pattern, digits, ref in items:
                m = re.search(pattern, text)
                if m is None:
                    problems.append(f"errata {fmt}: evidence lacks {pattern!r}")
                elif digits is None:
                    if int(m.group(1)) != ref:
                        problems.append(f"errata {fmt}: {m.group(0)} but C(15,5) = {ref}")
                else:
                    problems += rendering_problems(m.group(1), digits, ref, f"errata {fmt} {pattern}")
    return problems


def _find_entry(entries: list[dict], word: str):
    for e in entries:
        if word in e["location"]:
            return e
    return None


def _parse_errata(fmt: str, out: str) -> list[dict]:
    keys = ("location", "classification", "paper_value", "computed_value", "evidence")
    if fmt == "json":
        return [{k: e[k] for k in keys} for e in json.loads(out)]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if tuple(rows[0]) != keys:
            raise ValueError("unexpected csv header")
        return [dict(zip(keys, row)) for row in rows[1:]]
    entries = []
    for block in out.split("\n## ")[1:]:
        lines = block.splitlines()
        m = re.fullmatch(r"\d+\. \[(\w+)\] (.*)", lines[0])
        if m is None:
            raise ValueError("unexpected md heading")
        fields = {}
        for line in lines[1:]:
            fm = re.fullmatch(r"- (published|computed|evidence):\s+(.*)", line)
            if fm:
                fields[fm.group(1)] = fm.group(2)
        entries.append(
            {
                "location": m.group(2),
                "classification": m.group(1),
                "paper_value": fields["published"].strip("`"),
                "computed_value": fields["computed"].strip("`"),
                "evidence": fields["evidence"],
            }
        )
    return entries


# -- sweeps ----------------------------------------------------------------------------


def expected_verdicts(check: str, n_lo: int, n_hi: int, orders=(1, 2, 3, 4), spots=()) -> int:
    """Verdicts a sweep over [n_lo, n_hi] must report, by the check's definition."""
    width = n_hi - n_lo + 1
    if check == "sandwich":
        return 2 * width  # lower(1) < exact and exact < upper(2)
    if check == "dominance":
        return width + sum(1 for s in spots if n_lo <= s <= n_hi)  # one per n, plus spot points
    if check == "alternation":
        return len(set(orders)) * width  # one per order
    if check == "order_improvement":
        return 2 * (n_hi - max(2, n_lo) + 1)  # gap4 < gap2, gap2(n+1) < gap2(n)
    raise ValueError(check)


def report_problems(rep, check: str, n_lo: int, n_hi: int, spots=()) -> list[str]:
    """A sweep report over [n_lo, n_hi]: every verdict proved, count as defined."""
    lo = max(2, n_lo) if check == "order_improvement" else n_lo
    where = f"{check} [{n_lo}, {n_hi}]"
    problems = []
    if (rep.check, rep.n_lo, rep.n_hi) != (check, lo, n_hi):
        problems.append(f"{where}: report covers {rep.check} [{rep.n_lo}, {rep.n_hi}]")
    if rep.failed or rep.undecided or rep.failures:
        problems.append(f"{where}: {rep.failed} failed, {rep.undecided} undecided, {rep.failures[:3]}")
    want = expected_verdicts(check, n_lo, n_hi, spots=spots)
    if rep.proved != want:
        problems.append(f"{where}: {rep.proved} proved, the range implies {want}")
    return problems


def same_reports_problems(parallel, sequential) -> list[str]:
    """A fanned-out run must report exactly what the sequential run reports."""
    def key(r):
        return (r.check, r.n_lo, r.n_hi, r.proved, r.failed, r.undecided, list(r.failures))

    got, want = [key(r) for r in parallel], [key(r) for r in sequential]
    return [] if got == want else [f"fan-out reports {got} != sequential {want}"]


def _dyadic(d) -> mpmath.mpf:
    return mpmath.ldexp(mpmath.mpf(d.man), d.exp)


def _contains(iv, ref) -> bool:
    return _dyadic(iv.lo) <= ref <= _dyadic(iv.hi)


def sample_problems(n: int, comb_value: int, enclosures: dict) -> list[str]:
    """At one sample n: the program's C(2n, n) equals ``math.comb``; each of its
    enclosures contains the reference value; and the inequalities the sweeps
    certify at n hold in the reference arithmetic.

    ``enclosures`` maps ("lower", J) / ("upper", J) / ("ratio",) / ("agievich",)
    to the program's intervals at n.
    """
    exact = math.comb(2 * n, n)
    problems = []
    if comb_value != exact:
        problems.append(f"n={n}: central_binomial differs from math.comb")
    with mpmath.workprec(REF_BITS):
        refs = {}
        for key in enclosures:
            if key[0] in ("lower", "upper"):
                refs[key] = _central(n, central_exponent(n, key[1]))
            elif key[0] == "ratio":
                refs[key] = central_ratio(n)
            elif key[0] == "agievich":
                refs[key] = _central(n, Fraction(23, 36 * n))
        for key, iv in enclosures.items():
            if not _contains(iv, refs[key]):
                problems.append(f"n={n}: {key} enclosure misses the reference value")
        b = mpmath.mpf(exact)
        for j in (1, 2, 3, 4):
            v = _central(n, central_exponent(n, j))
            if (v < b) != (j % 2 == 1):
                problems.append(f"n={n}: order-{j} bound on the wrong side of C(2n,n)")
        if not _central(n, central_exponent(n, 2)) < _central(n, Fraction(23, 36 * n)):
            problems.append(f"n={n}: order-2 bound not below the Gaussian-form bound")
        if n >= 2:
            ratio = central_ratio(n)
            gap2 = mpmath.exp(_mp(central_exponent(n, 2))) - ratio
            gap4 = mpmath.exp(_mp(central_exponent(n, 4))) - ratio
            gap2_next = mpmath.exp(_mp(central_exponent(n + 1, 2))) - central_ratio(n + 1)
            if not gap4 < gap2:
                problems.append(f"n={n}: gap4 not below gap2")
            if not gap2_next < gap2:
                problems.append(f"n={n}: gap2 not decreasing")
    return problems
