"""The package's record types and what importing it loads.

The records are plain classes and ``typing.NamedTuple``s, not dataclasses,
and the process pool is imported at the first fan-out: a command that never
forks loads neither ``dataclasses`` nor ``concurrent.futures``.  These tests
pin the contracts the records kept through that change.
"""

import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import binomcert
from binomcert import bounds, cli, errata, sweeps, tables
from binomcert.errata import ErrataEntry, build_errata
from binomcert.interval import (
    DEFAULT_POLICY,
    MAX_PRECISION,
    DomainError,
    Dyadic,
    IntervalReal,
    PrecisionPolicy,
    from_int,
)

SRC = Path(binomcert.__file__).parents[1]


def test_import_loads_no_pool_and_no_dataclasses():
    probe = """
import sys
import binomcert
import binomcert.cli
loaded = [m for m in ("concurrent.futures", "multiprocessing", "dataclasses") if m in sys.modules]
from binomcert import sweeps
pool = sweeps.ProcessPoolExecutor
import concurrent.futures
print(loaded, pool is concurrent.futures.ProcessPoolExecutor)
"""
    proc = subprocess.run(  # -S: no site hook loads a module before binomcert does
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
        check=True,
    )
    assert proc.stdout == "[] True\n"


def test_sweeps_module_has_no_other_lazy_attribute():
    with pytest.raises(AttributeError, match="no attribute 'ThreadPoolExecutor'"):
        sweeps.ThreadPoolExecutor


def test_interval_checks_its_arguments():
    one, two = Dyadic(1, 0), Dyadic(1, 1)
    with pytest.raises(ValueError, match="lo > hi"):
        IntervalReal(two, one, 64)
    with pytest.raises(ValueError, match="precision must be >= 2"):
        IntervalReal(one, two, 1)
    iv = IntervalReal(one, two, 2)
    assert (iv.lo, iv.hi, iv.prec) == (one, two, 2)


def test_interval_is_immutable():
    iv = IntervalReal(Dyadic(1, 0), Dyadic(3, 0), 64)
    for name in ("lo", "hi", "prec", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(iv, name, Dyadic(2, 0))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(iv, name)
    assert (iv.lo, iv.hi, iv.prec) == (Dyadic(1, 0), Dyadic(3, 0), 64)


def test_interval_equality_and_hash_are_by_value():
    a = IntervalReal(Dyadic(1, 0), Dyadic(3, 0), 64)
    b = IntervalReal(Dyadic(1, 0), Dyadic(3, 0), 64)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert from_int(5, 64) == from_int(5, 64)  # built unchecked, by _ordered
    assert from_int(5, 64) != from_int(5, 128)
    assert a != IntervalReal(Dyadic(1, 0), Dyadic(5, 0), 64)
    assert a != (Dyadic(1, 0), Dyadic(3, 0), 64)  # never equal to a tuple
    assert pickle.loads(pickle.dumps(a)) == a


def test_precision_policy_contract():
    assert DEFAULT_POLICY == PrecisionPolicy() == PrecisionPolicy(64, 512)
    assert (PrecisionPolicy().initial, PrecisionPolicy().maximum) == (64, 512)
    assert hash(PrecisionPolicy(8, 64)) == hash(PrecisionPolicy(initial=8, maximum=64))
    assert PrecisionPolicy(8, 64) != PrecisionPolicy(8, 128)
    for initial, maximum in ((1, 64), (128, 64), (64, MAX_PRECISION + 1)):
        with pytest.raises(DomainError):
            PrecisionPolicy(initial, maximum)
        with pytest.raises(DomainError):
            PrecisionPolicy()._replace(initial=initial, maximum=maximum)
    policy = PrecisionPolicy(4, 16)
    assert pickle.loads(pickle.dumps(policy)) == policy  # checked again on the way in
    with pytest.raises(AttributeError):
        policy.initial = 2


def test_sweep_report_keeps_a_dict_pickles_and_compares_by_fields():
    rep = sweeps.alternation_sweep(1, 5, (1, 2), PrecisionPolicy(4, 4))
    assert rep.undecided and rep.failures  # a report with every field set
    assert vars(rep)["check"] == "alternation"
    copy = pickle.loads(pickle.dumps(rep))
    assert copy == rep and copy is not rep
    copy._stash = "not a field"  # as a tracer stashes its data on a report
    assert copy == rep
    copy.failures = copy.failures[:-1]
    assert copy != rep
    assert rep != vars(rep)


def test_named_tuple_records_refuse_assignment():
    cell = tables.Cell("c", "1.0", "1.0", "match")
    records = [
        bounds.central_upper(10, 2, 64),
        cell,
        tables.TableRow(1, "n=1", (cell,)),
        tables.TableReport("table1", 10, ()),
        ErrataEntry("where", "1", "2", "sign", "why"),
    ]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


def test_errata_refuses_a_wrong_bernoulli_6(monkeypatch, capsys):
    monkeypatch.setattr(errata, "bernoulli", lambda m: Fraction(-1, 42))
    with pytest.raises(ArithmeticError, match="B_6 = -1/42"):  # not an assert: kept under -O
        build_errata()
    assert cli.main(["errata"]) == cli.EXIT_SOFTWARE
    assert capsys.readouterr() == ("", "binomcert: internal error: ArithmeticError: "
                                   "errata: the recurrence gives B_6 = -1/42, not 1/42\n")
