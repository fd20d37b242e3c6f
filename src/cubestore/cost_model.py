"""Speed cost model for point lookups: sorted table versus compressed array.

The figure of merit Q is the expected number of key comparisons (or page
reads) a table lookup needs divided by the number of multiplications the
array lookup needs for the same cell.  A binary search over r sorted rows
costs about log2(r) - 1 comparisons; a B-tree of minimal degree t costs
at most log_t((r + 1) / 2) + 1 page reads.  The array side pays k - 1
multiplications per lookup, discounted by p, the ratio of a comparison's
cost to a multiplication's cost:

    q_plain(r, k, p) = (log2(r) - 1) / ((k - 1) / p + 1)
    q_btree(r, k, p, t) = (log_t((r + 1) / 2) + 1) / ((k - 1) / p + 1)

As p grows the denominator tends to 1 and q_plain approaches
log2(r) - 1; at p = 1 it equals (log2(r) - 1) / k.

The t of a built index follows its separator width, the table's 4 bytes
per key field: t = 170 for three fields in 4 KB pages, 102 for five.
Its leaves are the table's blocks of B >= 2 rows, so the bound counts
the block a lookup reads as its last page.

q_plain counts key comparisons, not file reads.  TableStore's binary
search still makes about log2 r comparisons, but it reads only one key
per block of rows it skips and then one whole block, so its reads are
about log2(r / B) + 1 for blocks of B rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .files import csv_writer, replacing

DEFAULT_P_VALUES = (1.0, 10.0, 100.0, 500.0, 1000.0, 1500.0)
DEFAULT_R_VALUES = (10**3, 10**4, 10**5, 10**6, 10**7)
DEFAULT_K_VALUES = (5, 10, 15, 20, 25)
DEFAULT_T = 89


def _check(p: float, t: int = DEFAULT_T, r: int = 2, k: int = 1,
           min_rows: int = 1) -> None:
    """Reject model arguments outside their domain, in the order r, k, p, t."""
    if r < min_rows:
        raise ParameterError(f"row count must be at least {min_rows}, got {r}")
    if k < 1:
        raise ParameterError(f"key length must be at least 1, got {k}")
    if not p > 0:
        raise ParameterError(f"cost ratio p must be positive, got {p}")
    if t < 2:
        raise ParameterError(f"minimal degree t must be at least 2, got {t}")


def q_plain(r: int, k: int, p: float) -> float:
    """Speed quotient of a binary-searched table against the array."""
    _check(p, r=r, k=k, min_rows=2)
    return (math.log2(r) - 1) / ((k - 1) / p + 1)


def q_btree(r: int, k: int, p: float, t: int = DEFAULT_T) -> float:
    """Speed quotient of a B-tree indexed table against the array."""
    _check(p, t, r, k)
    return (math.log((r + 1) / 2, t) + 1) / ((k - 1) / p + 1)


def round2(x: float) -> float:
    """Round to 2 decimals, halves away from zero."""
    return math.copysign(math.floor(abs(x) * 100 + 0.5), x) / 100


@dataclass(frozen=True)
class CostTable:
    """One quotient grid: rows are r values, columns are key lengths."""

    title: str
    kind: str  # "plain" or "btree"
    p: float
    t: int | None
    r_values: tuple[int, ...]
    k_values: tuple[int, ...]
    cells: tuple[tuple[float, ...], ...]  # rounded to 2 decimals


def emit_cost_tables(p_values=None, r_values=None, k_values=None,
                     t: int = DEFAULT_T) -> list[CostTable]:
    """Build the quotient tables: one per p value, plus one B-tree table.

    The B-tree table uses the last p of the list (1500 with defaults) and
    the given minimal degree.
    """
    p_values = tuple(p_values) if p_values else DEFAULT_P_VALUES
    r_values = tuple(r_values) if r_values else DEFAULT_R_VALUES
    k_values = tuple(k_values) if k_values else DEFAULT_K_VALUES
    for p in p_values:
        _check(p, t)
    tables = []
    for p in p_values:
        cells = tuple(
            tuple(round2(q_plain(r, k, p)) for k in k_values) for r in r_values
        )
        tables.append(CostTable(f"p = {p:g}", "plain", p, None, r_values, k_values, cells))
    p = p_values[-1]
    cells = tuple(
        tuple(round2(q_btree(r, k, p, t)) for k in k_values) for r in r_values
    )
    tables.append(
        CostTable(f"B-tree index, p = {p:g}, t = {t}", "btree", p, t, r_values, k_values, cells)
    )
    return tables


def format_cost_table(table: CostTable) -> str:
    """Render one table as aligned plain text."""
    r_width = max(len(f"{r:,}") for r in table.r_values)
    r_width = max(r_width, 1)
    col_width = max(8, *(len(f"k={k}") for k in table.k_values))
    lines = [table.title]
    header = " " * r_width + "".join(f"k={k}".rjust(col_width) for k in table.k_values)
    lines.append(header)
    for r, row in zip(table.r_values, table.cells):
        lines.append(
            f"{r:,}".rjust(r_width) + "".join(f"{q:.2f}".rjust(col_width) for q in row)
        )
    return "\n".join(lines)


def cost_tables_text(tables) -> str:
    return "\n\n".join(format_cost_table(t) for t in tables)


def write_cost_csv(tables, prefix) -> list[str]:
    """Write one UTF-8 CSV file per table next to the path prefix, each all or nothing."""
    paths = []
    for table in tables:
        if table.kind == "plain":
            name = f"{prefix}_p{table.p:g}.csv"
        else:
            name = f"{prefix}_btree_p{table.p:g}_t{table.t}.csv"
        with replacing(name) as f:
            writer = csv_writer(f)
            writer.writerow(["r"] + [f"k={k}" for k in table.k_values])
            for r, row in zip(table.r_values, table.cells):
                writer.writerow([r] + [f"{q:.2f}" for q in row])
        paths.append(name)
    return paths
