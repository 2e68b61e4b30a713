"""Self-test of the benchmark's checkers: each accepts the program's real
output and rejects a corrupted copy of it (a flipped verdict, a wrong count,
an altered digit, a wrong exit code, a fan-out result that differs from the
sequential one).

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Exit code 0 when every case behaves as expected, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys

from run import _import_package

_import_package()

import oracle  # noqa: E402
from binomcert import combinatorics, sweeps  # noqa: E402
from workloads import Interactive, Verify, _enclosures, _sample  # noqa: E402

results: list[bool] = []


def expect(name: str, problems: list[str], reject: bool) -> None:
    ok = bool(problems) == reject
    results.append(ok)
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({problems[0][:90]})" if problems else ""))


def altered(rep, **changes):
    out = copy.deepcopy(rep)
    for k, v in changes.items():
        setattr(out, k, v)
    return out


def sweep_cases() -> None:
    lo, hi = 95, 104  # holds the dominance spot point n = 100
    spots = sweeps.DOMINANCE_SPOT_CHECKS
    reps = Verify().run(("block", lo, hi))
    for check, rep in zip(("sandwich", "dominance", "alternation", "order_improvement"), reps):
        expect(f"{check} [{lo}, {hi}] as computed", oracle.report_problems(rep, check, lo, hi, spots), False)
    sand, dom = reps[0], reps[1]
    flipped = altered(sand, proved=sand.proved - 1, failed=1, failures=[(97, "exact !< upper(2)")])
    expect("sandwich with one verdict flipped", oracle.report_problems(flipped, "sandwich", lo, hi), True)
    expect("sandwich with one verdict too many",
           oracle.report_problems(altered(sand, proved=sand.proved + 1), "sandwich", lo, hi), True)
    expect("dominance without its spot point",
           oracle.report_problems(altered(dom, proved=dom.proved - 1), "dominance", lo, hi, spots), True)
    expect("sandwich report of another range",
           oracle.report_problems(altered(sand, n_lo=lo + 1), "sandwich", lo, hi), True)

    expect("sample n=97 as computed", _sample(97), False)
    exact = combinatorics.central_binomial(97)
    expect("sample n=97 with C(2n,n) off by one",
           oracle.sample_problems(97, exact + 1, _enclosures(97, (64,))), True)
    expect("sample n=97 with the enclosures of n=98",
           oracle.sample_problems(97, exact, _enclosures(98, (64,))), True)
    swapped = _enclosures(97, (64,))
    swapped[("lower", 1, 64)], swapped[("upper", 2, 64)] = swapped[("upper", 2, 64)], swapped[("lower", 1, 64)]
    expect("sample n=97 with lower and upper swapped", oracle.sample_problems(97, exact, swapped), True)

    par = sweeps.run_verify(12, jobs=2)
    seq = sweeps.run_verify(12, jobs=1)
    expect("run_verify(12, jobs=2) against jobs=1", oracle.same_reports_problems(par, seq), False)
    bad = [altered(par[0], failures=[(3, "lower(1) !< exact")])] + par[1:]
    expect("fan-out run with a failure the sequential run lacks", oracle.same_reports_problems(bad, seq), True)


def _cli(argv):
    return Interactive().run(argv)


def _bump_last_digit(text: str, value: str) -> str:
    """Replace every occurrence of ``value`` by the value with its last significant digit changed."""
    digits = value.rstrip("0") if "." not in value else value
    i = len(digits) - 1
    while not digits[i].isdigit():
        i -= 1
    bumped = digits[:i] + str((int(digits[i]) + 1) % 10) + digits[i + 1:] + value[len(digits):]
    return text.replace(value, bumped)


def bound_cases() -> None:
    for fmt in ("md", "csv", "json"):
        argv = ["bound", "1234", "SasvariUpper", "--digits=10", f"--format={fmt}"]
        rc, out = _cli(argv)
        expect(f"bound 1234 SasvariUpper {fmt} as computed", oracle.bound_output_problems(argv, rc, out), False)
    argv = ["bound", "300", "GeneralRS", "--digits=14", "--format=json", "--r=4", "--order=2"]
    rc, out = _cli(argv)
    doc = json.loads(out)
    expect("bound 300 GeneralRS as computed", oracle.bound_output_problems(argv, rc, out), False)
    bad = dict(doc, value=_bump_last_digit(doc["value"], doc["value"]))
    expect("bound with its last digit altered", oracle.bound_output_problems(argv, rc, json.dumps(bad)), True)
    bad = dict(doc, exponent=doc["exponent"] + "1")
    expect("bound with a wrong exponent", oracle.bound_output_problems(argv, rc, json.dumps(bad)), True)
    expect("bound exiting 64", oracle.bound_output_problems(argv, 64, out), True)

    argv = ["bound", "20000", "AgievichCentral", "--digits=10", "--format=json"]
    rc, out = _cli(argv)
    doc = json.loads(out)
    expect("bound 20000 AgievichCentral (plain, zero-padded)", oracle.bound_output_problems(argv, rc, out), False)
    value = doc["value"]
    sci = f"{value[0]}.{value[1:10]}e+{len(value) - 1}"
    expect("the same value in scientific notation",
           oracle.bound_output_problems(argv, rc, json.dumps(dict(doc, value=sci))), False)
    padded = value[:-1] + "1"
    expect("a padded value with a stray non-zero digit",
           oracle.bound_output_problems(argv, rc, json.dumps(dict(doc, value=padded))), True)
    expect("the padded value one digit short",
           oracle.bound_output_problems(argv, rc, json.dumps(dict(doc, value=value[:-1]))), True)


def table_cases() -> None:
    for table in ("table1", "table2", "table3"):
        for fmt in ("md", "csv", "json"):
            rc, out = _cli(["table", table, f"--format={fmt}"])
            expect(f"{table} {fmt} as computed", oracle.table_output_problems(table, fmt, rc, out), False)
    for fmt in ("md", "csv", "json"):
        rc, out = _cli(["table", "table2", f"--format={fmt}"])
        expect(f"table2 {fmt} with one digit altered",
               oracle.table_output_problems("table2", fmt, rc, _bump_last_digit(out, "0.93998560298663")), True)
    rc, out = _cli(["table", "table3", "--format=csv"])
    expect("table3 with C_5 = 43", oracle.table_output_problems("table3", "csv", rc, out.replace(",42,42,", ",43,43,")), True)
    rc, out = _cli(["table", "table1", "--format=json"])
    expect("table1 exiting 0 despite its mismatch", oracle.table_output_problems("table1", "json", 0, out), True)
    doc = json.loads(out)
    doc["rows"][6]["sasvari_upper_status"] = "mismatch"
    expect("table1 with a second mismatch", oracle.table_output_problems("table1", "json", rc, json.dumps(doc)), True)
    doc = json.loads(out)
    doc["rows"][4]["agievich_central_status"] = "match"
    expect("table1 passing its bad published cell",
           oracle.table_output_problems("table1", "json", rc, json.dumps(doc)), True)


def errata_cases() -> None:
    for fmt in ("md", "csv", "json"):
        rc, out = _cli(["errata", f"--format={fmt}"])
        expect(f"errata {fmt} as computed", oracle.errata_output_problems(fmt, rc, out), False)
    rc, out = _cli(["errata", "--format=md"])
    expect("errata with the dropped-digit value altered",
           oracle.errata_output_problems("md", rc, _bump_last_digit(out, "293.5845534")), True)
    expect("errata with a growth-factor bound altered",
           oracle.errata_output_problems("md", rc, _bump_last_digit(out, "3003.00076151")), True)
    rc, out = _cli(["errata", "--format=json"])
    doc = json.loads(out)
    doc[0]["computed_value"] = "-1/42"
    expect("errata with B_6 of the wrong sign", oracle.errata_output_problems("json", rc, json.dumps(doc)), True)


def main() -> int:
    sweep_cases()
    bound_cases()
    table_cases()
    errata_cases()
    failed = results.count(False)
    print(f"{len(results) - failed} of {len(results)} cases as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
