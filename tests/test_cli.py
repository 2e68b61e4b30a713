"""Golden tests of the ``binomcert`` command line.

Each case runs ``cli.main`` in-process and compares its stdout byte for byte,
its stderr and its exit code with the files under ``tests/golden/cli``:
``<case>.out`` holds the stdout, ``status.json`` the exit code and stderr.
After an intended output change, rewrite them with

    PYTHONPATH=src python tests/test_cli.py

and review the diff before committing it.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from binomcert import cli
from binomcert.sweeps import DEFAULT_ORDERS

GOLDEN = Path(__file__).parent / "golden" / "cli"

STARVED = "--precision-init 4 --precision-max 4"
ORDERS_17_20 = "--order 17 --order 18 --order 19 --order 20"

BOUNDS = {
    "AgievichGeneral": "10 AgievichGeneral --k 2",
    "AgievichShifted": "10 AgievichShifted --k 1",
    "AgievichCentral": "10 AgievichCentral",
    "AgievichCatalan": "10 AgievichCatalan",
    "SasvariLower": "10 SasvariLower",
    "SasvariUpper": "10 SasvariUpper",
    "CentralOrderN": "10 CentralOrderN --order 3",
    "CatalanOrderN": "10 CatalanOrderN --order 4",
    "GeneralRS": "5 GeneralRS --r 3 --order 2 --digits 12",
}


def _cases() -> dict[str, str]:
    cases = {}
    for fmt in ("md", "csv", "json"):
        for table_id in ("table1", "table2", "table3"):
            cases[f"{table_id}.{fmt}"] = f"table {table_id} --format {fmt}"
        cases[f"errata.{fmt}"] = f"errata --format {fmt}"
        cases[f"verify.{fmt}"] = f"verify --max-n 40 --no-timing --format {fmt}"
        cases[f"verify_orders.{fmt}"] = (
            f"verify --max-n 40 --order 3 --order 1 --no-timing --format {fmt}"
        )
        for name, args in BOUNDS.items():
            cases[f"bound_{name}.{fmt}"] = f"bound {args} --format {fmt}"
        cases[f"bound_starved.{fmt}"] = f"bound 10 SasvariUpper {STARVED} --strict --format {fmt}"
        cases[f"table1_starved.{fmt}"] = f"table table1 {STARVED} --strict --format {fmt}"
    cases.update(
        {
            # default orders and a big n whose value pads with zeros
            "bound_CentralOrderN_default.md": "bound 7 CentralOrderN",
            "bound_CatalanOrderN_default.md": "bound 7 CatalanOrderN",
            "bound_GeneralRS_default.md": "bound 6 GeneralRS",
            "bound_big_n.md": "bound 2000 SasvariUpper --digits 12",
            # more digits than the default policy can pin down
            "bound_huge_digits.md": "bound 10 SasvariUpper --digits 200",
            "bound_huge_digits_strict.md": "bound 10 SasvariUpper --digits 200 --strict",
            "table2_digits5.md": "table table2 --digits 5",
            "table3_starved_lenient.md": f"table table3 {STARVED}",
            "verify_starved.md": f"verify --max-n 3 {STARVED} --no-timing",
            "verify_starved_jobs2.md": f"verify --max-n 3 {STARVED} --no-timing --jobs 2",
            # exp(D_19(1)) is about 2**(-9.7e11): compared and measured
            # without an integer as wide as that exponent
            "verify_orders_17_20.md": f"verify --max-n 3 {ORDERS_17_20} --no-timing",
            "verify_orders_17_20_starved.md": (
                f"verify --max-n 3 {ORDERS_17_20} {STARVED} --no-timing"
            ),
            "verify_jobs0.md": "verify --max-n 40 --jobs 0 --no-timing",
            "verify_jobs2.md": "verify --max-n 40 --jobs 2 --no-timing",
            # evidence that cannot be proved is refused, not printed as "?"
            "errata_starved.md": "errata --precision-init 2 --precision-max 4",
            # usage and domain errors
            "usage_bound_n0.md": "bound 0 AgievichCentral",
            "usage_verify_order25.md": "verify --max-n 10 --order 25",
            "usage_bound_order25.md": "bound 10 CentralOrderN --order 25",
            # an explicit --order 0 is refused, not replaced by the default order
            "usage_bound_central_order0.md": "bound 10 CentralOrderN --order 0",
            "usage_bound_catalan_order0.md": "bound 10 CatalanOrderN --order 0",
            "usage_bound_generalrs_order0.md": "bound 5 GeneralRS --order 0",
            "usage_bound_r1.md": "bound 5 GeneralRS --r 1",
            "usage_bound_generalrs_order11.md": "bound 5 GeneralRS --order 11",
            "usage_catalan_order3.md": "bound 10 CatalanOrderN --order 3",
            "usage_max_n0.md": "verify --max-n 0",
            "usage_table_digits0.md": "table table1 --digits 0",
            "usage_bound_digits0.md": "bound 10 SasvariUpper --digits 0",
            "usage_bound_digits5000.md": "bound 10 SasvariUpper --digits 5000",
            "usage_init_over_max.md": "table table1 --precision-init 128 --precision-max 64",
            "usage_init_below_2.md": "bound 10 SasvariUpper --precision-init 1",
            "usage_precision_over_cap.md": (
                "bound 5 SasvariUpper --precision-init 99999 --precision-max 100000"
            ),
            # values whose plain rendering would be too long to print
            "usage_bound_order19_n1.md": "bound 1 CentralOrderN --order 19",
            "usage_bound_order20_n1.md": "bound 1 CentralOrderN --order 20",
            "usage_bound_shifted_k100000.md": "bound 5 AgievichShifted --k 100000",
            # refused in well under a second, before any power of 4^n or
            # (r^r/(r-1)^(r-1))^s of a billion digits is built
            "usage_bound_n1e9.md": "bound 1000000000 SasvariUpper",
            "usage_bound_n1e10.md": "bound 10000000000 SasvariUpper",
            "usage_bound_generalrs_s1e9.md": "bound 1000000000 GeneralRS --r 3",
            # 10**400 and 10**200 do not fit a float: refused from integer
            # estimates, not crashed on a float conversion
            "usage_bound_n1e400.md": f"bound {10**400} SasvariUpper",
            "usage_bound_generalrs_s1e400.md": f"bound {10**400} GeneralRS --r 3",
            "usage_bound_shifted_k1e200.md": f"bound 5 AgievichShifted --k {10**200}",
            # refused before r^(rs) of 20 and 233 million bits is built
            "usage_bound_generalrs_r1e6.md": "bound 1 GeneralRS --r 1000000",
            "usage_bound_generalrs_r1e7.md": "bound 1 GeneralRS --r 10000000",
            # an --out file that cannot be created is not a failed check
            "out_unwritable.md": "bound 5 SasvariUpper --out /nonexistent_dir/x.md",
            # exp of a wide interval at 4 to 16 bits, of a large negative
            # argument (about -180, 9 halvings) and of a large positive one
            # (about 289, 10 halvings)
            "bound_exp_wide_input.md": (
                "bound 40 AgievichGeneral --k 0 --precision-init 4 --precision-max 16 --digits 3"
            ),
            "bound_exp_negative_k.md": "bound 5 AgievichShifted --k 30",
            "bound_exp_positive_k.md": "bound 1 CentralOrderN --order 12",
        }
    )
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _status() -> dict:
    return json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    code, out, err = _run(CASES[case].split())
    expected = _status()[case]
    assert (code, err) == (expected["exit"], expected["stderr"])
    assert out.encode() == (GOLDEN / f"{case}.out").read_bytes()


def test_every_golden_file_has_a_case():
    assert set(_status()) == set(CASES)
    assert {p.name[: -len(".out")] for p in GOLDEN.glob("*.out")} == set(CASES)


@pytest.mark.parametrize(
    "case", ["table1.md", "errata.csv", "verify.json", "bound_GeneralRS.json"]
)
def test_out_path_writes_stdout_bytes(case, tmp_path):
    target = tmp_path / "payload"
    code, out, err = _run(CASES[case].split() + ["--out", str(target)])
    assert (code, out, err) == (_status()[case]["exit"], "", "")
    assert target.read_bytes() == (GOLDEN / f"{case}.out").read_bytes()


def test_verify_jobs_do_not_change_output():
    golden = (GOLDEN / "verify.md.out").read_bytes()
    assert (GOLDEN / "verify_jobs0.md.out").read_bytes() == golden
    assert (GOLDEN / "verify_jobs2.md.out").read_bytes() == golden
    # unproved verdicts too: the failure lists come in the sequential order
    starved = (GOLDEN / "verify_starved.md.out").read_bytes()
    assert (GOLDEN / "verify_starved_jobs2.md.out").read_bytes() == starved


def test_consecutive_calls_share_no_state(tmp_path):
    # one parser serves every call; no option of one call may reach the next
    verify = "verify --max-n 5 --no-timing --format json".split()

    def alternation_proved(argv):
        checks = json.loads(_run(argv)[1])["checks"]
        return next(c["proved"] for c in checks if c["check"] == "alternation")

    assert alternation_proved(verify + ["--order", "3"]) == 5
    assert alternation_proved(verify) == 5 * len(DEFAULT_ORDERS)

    assert _run("bound 10 AgievichShifted --k 3".split())[1].startswith("AgievichShifted(n=10, k=3)\n")
    assert _run("bound 10 AgievichShifted".split())[1].startswith("AgievichShifted(n=10, k=0)\n")

    target = tmp_path / "payload"
    argv = CASES["bound_SasvariUpper.md"].split()
    assert _run(argv + ["--out", str(target)]) == (0, "", "")
    golden = (GOLDEN / "bound_SasvariUpper.md.out").read_text(encoding="utf-8")
    assert _run(argv) == (0, golden, "")
    assert target.read_text(encoding="utf-8") == golden


def test_argparse_errors_are_usage_errors():
    for argv in (["table", "table9"], ["bound", "5", "NoSuchBound"], ["verify"], []):
        assert _run(argv)[0] == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "error", [RuntimeError("boom"), ZeroDivisionError("boom"), ValueError("boom")]
)
def test_internal_errors_exit_70(monkeypatch, error):
    def broken(*args):
        raise error

    monkeypatch.setattr(cli.bd, "agievich_central", broken)
    code, out, err = _run(CASES["bound_AgievichCentral.md"].split())
    assert (code, out) == (cli.EXIT_SOFTWARE, "")
    assert err == f"binomcert: internal error: {type(error).__name__}: boom\n"


def _corner_inputs() -> list[tuple[int, str]]:
    lines = (Path(__file__).parent / "corner_inputs.txt").read_text(encoding="utf-8").splitlines()
    return [
        (int(code), args)
        for code, args in (line.split("\t") for line in lines if line and line[0] != "#")
    ]


@pytest.mark.parametrize("code, args", _corner_inputs())
def test_corner_input_exit_code(code, args):
    # CI runs the same list whole-process, each under a 2-second limit
    assert _run(args.split())[0] == code


def test_module_entry_point_passes_the_exit_code():
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "binomcert.cli", *CASES["table1_starved.md"].split()],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        check=False,
    )
    assert proc.returncode == cli.EXIT_UNDECIDED
    assert proc.stdout.encode() == (GOLDEN / "table1_starved.md.out").read_bytes()


def _write_goldens() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    status = {}
    for case, args in sorted(CASES.items()):
        code, out, err = _run(args.split())
        (GOLDEN / f"{case}.out").write_bytes(out.encode())
        status[case] = {"exit": code, "stderr": err}
    (GOLDEN / "status.json").write_text(
        json.dumps(status, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    _write_goldens()
