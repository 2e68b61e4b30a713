"""Digit-for-digit reproduction of the three published reference tables.

Expected cell strings are embedded verbatim from the published tables (10
significant digits for table1, 14 for table2/table3) and every cell is
recomputed with certified interval arithmetic at escalating precision, so a
``match`` status is a proof that the printed decimal is the round-half-even
rendering of the true value.  One cell is known-bad upstream: table1 row
n=5 in the Gaussian-form-bound column drops a leading digit; it is kept
verbatim so the comparison fails loudly and feeds the errata report.
"""

from __future__ import annotations

from typing import NamedTuple

from . import bounds as bd
from . import interval as ivl
from .combinatorics import catalan, central_binomial
from .interval import DEFAULT_POLICY, UNDETERMINED, PrecisionPolicy, render_escalating

__all__ = [
    "TABLE_IDS",
    "TABLE_DIGITS",
    "TABLE_COLUMNS",
    "UNDETERMINED",
    "Cell",
    "TableRow",
    "TableReport",
    "build_table",
]

TABLE_IDS = ("table1", "table2", "table3")

TABLE_DIGITS = {"table1": 10, "table2": 14, "table3": 14}

# column ids (stable, machine-facing) and display headers (as published)
TABLE_COLUMNS = {
    "table1": ("central_binomial", "agievich_central", "sasvari_upper"),
    "table2": ("central_ratio", "exp_order2", "exp_order4"),
    "table3": ("catalan", "catalan_order2", "catalan_order4"),
}

TABLE_HEADERS = {
    "table1": ("n", "C(2n,n)", "U_A(n)", "U_S(n)"),
    "table2": ("n", "Exact", "Bound N=1", "Bound N=2"),
    "table3": ("n", "C_n", "Bound N=1", "Bound N=2"),
}

# Published strings, rows n = 1..10.
_TABLE1 = {
    1: ("2", "4.275146228", "2.001982123"),
    2: ("6", "8.785429701", "6.000250574"),
    3: ("20", "25.79485257", "20.00011914"),
    4: ("70", "84.72303658", "70.00010214"),
    5: ("252", "93.5845534", "252.0001224"),
    6: ("924", "1049.430558", "924.0001819"),
    7: ("3432", "3827.665444", "3432.000314"),
    8: ("12870", "14159.34751", "12870.00061"),
    9: ("48620", "52926.51245", "48620.00127"),
    10: ("184756", "199421.3118", "184756.0029"),
}

_TABLE2 = {
    1: ("0.88622692545276", "0.88710523105688", "0.88677114441088"),
    2: ("0.93998560298663", "0.94002485899037", "0.93998766871395"),
    3: ("0.95936878869983", "0.95937450378689", "0.95936885517397"),
    4: ("0.96931069971395", "0.96931211408847", "0.96931070519255"),
    5: ("0.97535007714523", "0.97535055078797", "0.97535007791724"),
    6: ("0.97940560431422", "0.97940579711995", "0.97940560446817"),
    7: ("0.98231617716265", "0.98231626711057", "0.98231617720181"),
    8: ("0.98450640547183", "0.98450645187199", "0.98450640548375"),
    9: ("0.98621413686019", "0.98621416271614", "0.98621413686436"),
    10: ("0.98758292882616", "0.98758294414165", "0.98758292882778"),
}

_TABLE3 = {
    1: ("1", "1.0009910617460", "1.0006140853347"),
    2: ("2", "2.0000835246915", "2.0000043952318"),
    3: ("5", "5.0000297856629", "5.0000003464472"),
    4: ("14", "14.000020428169", "14.000000079129"),
    5: ("42", "42.000020395749", "42.000000033244"),
    6: ("132", "132.00002598551", "132.00000002075"),
    7: ("429", "429.00003928232", "429.00000001710"),
    8: ("1430", "1430.0000673964", "1430.0000000173"),
    9: ("4862", "4862.0001274689", "4862.0000000205"),
    10: ("16796", "16796.000260473", "16796.000000028"),
}

_EXPECTED = {"table1": _TABLE1, "table2": _TABLE2, "table3": _TABLE3}


class Cell(NamedTuple):
    column: str
    rendered: str
    expected: str | None
    status: str  # match | mismatch | undecided


class TableRow(NamedTuple):
    n: int
    label: str
    cells: tuple[Cell, ...]


class TableReport(NamedTuple):
    table_id: str
    digits: int
    rows: tuple[TableRow, ...]

    def counts(self) -> dict[str, int]:
        out = {"match": 0, "mismatch": 0, "undecided": 0}
        for row in self.rows:
            for cell in row.cells:
                out[cell.status] += 1
        return out


def _cell_makers(table_id: str, n: int):
    """Per column, the exact integer of an exact column, else the builder of
    the cell's interval at precision p."""
    if table_id == "table1":
        return (
            central_binomial(n),
            lambda p: bd.agievich_central(n, p).value,
            lambda p: bd.central_upper(n, 2, p).value,
        )
    if table_id == "table2":
        d2 = bd.exponent_pair(n, 2, 2)
        d4 = bd.exponent_pair(n, 2, 4)
        return (
            lambda p: bd.central_ratio(n, p),
            lambda p: ivl.exp(ivl.from_rational(d2, p)),
            lambda p: ivl.exp(ivl.from_rational(d4, p)),
        )
    return (  # table3
        catalan(n),
        lambda p: bd.catalan_upper(n, 2, p).value,
        lambda p: bd.catalan_upper(n, 4, p).value,
    )


def build_table(
    table_id: str,
    digits: int | None = None,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> TableReport:
    """Recompute a full table and grade every cell against the published string.

    ``digits`` defaults to the published significant-digit count; overriding
    it is a diagnostic mode in which non-integer cells will generally not
    match the embedded strings.
    """
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id {table_id!r}")
    if digits is None:
        digits = TABLE_DIGITS[table_id]
    columns = TABLE_COLUMNS[table_id]
    rows = []
    for n in range(1, 11):
        makers = _cell_makers(table_id, n)
        cells = []
        for col, maker, expected in zip(columns, makers, _EXPECTED[table_id][n]):
            if isinstance(maker, int):
                rendered = str(maker)
            else:
                rendered = render_escalating(maker, digits, policy)
            if rendered == UNDETERMINED:
                status = "undecided"
            elif rendered == expected:
                status = "match"
            else:
                status = "mismatch"
            cells.append(Cell(col, rendered, expected, status))
        label = f"C_{n}" if table_id == "table3" else str(n)
        rows.append(TableRow(n, label, tuple(cells)))
    return TableReport(table_id, digits, tuple(rows))
