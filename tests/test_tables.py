import pytest

from binomcert.interval import PrecisionPolicy
from binomcert.tables import (
    TABLE_COLUMNS,
    TABLE_DIGITS,
    UNDETERMINED,
    build_table,
)

# the one published cell that does not survive recomputation (see the errata)
KNOWN_MISMATCHES = {("table1", 5, "agievich_central")}


@pytest.mark.parametrize("table_id", ["table1", "table2", "table3"])
def test_reproduction_matches_except_known_cells(table_id):
    report = build_table(table_id)
    assert report.digits == TABLE_DIGITS[table_id]
    assert len(report.rows) == 10
    for row in report.rows:
        for cell in row.cells:
            key = (table_id, row.n, cell.column)
            if key in KNOWN_MISMATCHES:
                assert cell.status == "mismatch", key
            else:
                assert cell.status == "match", (key, cell.rendered, cell.expected)


def test_counts():
    assert build_table("table1").counts() == {"match": 29, "mismatch": 1, "undecided": 0}
    assert build_table("table2").counts() == {"match": 30, "mismatch": 0, "undecided": 0}
    assert build_table("table3").counts() == {"match": 30, "mismatch": 0, "undecided": 0}


def test_known_bad_cell_rendering():
    report = build_table("table1")
    row5 = next(r for r in report.rows if r.n == 5)
    cell = next(c for c in row5.cells if c.column == "agievich_central")
    assert cell.rendered == "293.5845534"
    assert cell.expected == "93.5845534"
    assert cell.status == "mismatch"


def test_row_labels():
    assert build_table("table3").rows[0].label == "C_1"
    assert build_table("table1").rows[0].label == "1"


def test_undecided_under_starved_precision():
    report = build_table("table2", policy=PrecisionPolicy(4, 4))
    for row in report.rows:
        for cell in row.cells:
            assert cell.status == "undecided"
            assert cell.rendered == UNDETERMINED


def test_exact_cells_survive_starved_precision():
    report = build_table("table1", policy=PrecisionPolicy(4, 4))
    for row in report.rows:
        assert row.cells[0].status == "match"  # integer column needs no intervals
        assert row.cells[1].status == "undecided"


def test_custom_digits_is_diagnostic_mode():
    report = build_table("table2", digits=6)
    for row in report.rows:
        for cell in row.cells:
            assert cell.status == "mismatch"  # published strings carry 14 digits
            assert len(cell.rendered.replace(".", "").lstrip("0")) == 6


def test_bad_arguments():
    with pytest.raises(ValueError):
        build_table("table9")
    with pytest.raises(ValueError):
        build_table("table1", digits=0)
