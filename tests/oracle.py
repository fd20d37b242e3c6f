"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: dense materialization, full
enumeration, linear scans.  Tests compare the fast production code
against these, never the other way round.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from fractions import Fraction
from itertools import product


def enumerate_box(cards):
    """All coordinate tuples of a box in logical order.

    Logical order is defined by two properties: the first cell is
    (1, ..., 1), and stepping to the next logical position increments
    dimension 1, carrying into higher dimensions like an odometer.
    itertools.product varies its last factor fastest, so feeding the
    dimensions in reverse and flipping each tuple enumerates exactly
    that order.
    """
    ranges = [range(1, c + 1) for c in reversed(cards)]
    return [tuple(reversed(t)) for t in product(*ranges)]


def linearize_by_enumeration(indices, cards) -> int:
    """1-based logical position by brute-force enumeration."""
    return enumerate_box(cards).index(tuple(indices)) + 1


def dense_array(cells, total_cells: int):
    """Materialize the full logical array: a list of records or None."""
    out = [None] * total_cells
    for position, record in cells:
        assert 1 <= position <= total_cells
        assert out[position - 1] is None, "duplicate cell"
        out[position - 1] = record
    return out


def header_runs(occupied, total_cells: int):
    """Expected header entries, derived from the dense occupancy map.

    A run is a maximal stretch of empty cells followed by a maximal
    stretch of nonempty cells; its entry records the logical position of
    the run's last nonempty cell and the total number of empty cells
    seen so far.  The final entry always covers the whole array: if the
    last run does not already end at the last cell, an entry
    (total_cells, total_cells - r) is appended.
    """
    occupied = sorted(occupied)
    bitmap = [False] * total_cells
    for position in occupied:
        bitmap[position - 1] = True
    entries = []
    empties = 0
    i = 0
    while i < total_cells:
        while i < total_cells and not bitmap[i]:
            empties += 1
            i += 1
        if i == total_cells:
            break
        while i < total_cells and bitmap[i]:
            i += 1
        entries.append((i, empties))
    terminal = (total_cells, total_cells - len(occupied))
    if not entries or entries[-1] != terminal:
        entries.append(terminal)
    return entries


def decode_header_by_scan(data: bytes):
    """Reference header decode: (entries, None), or (None, first bad index).

    Unpacks one little-endian (end, empties) pair per 16 bytes and checks
    each entry against its predecessor, the first against a virtual
    (0, 0) entry: ends strictly increase, empty counts never decrease,
    and every run except the terminal one holds at least one record.  An
    empty header is bad at index 0.
    """
    assert len(data) % 16 == 0
    entries = list(struct.iter_unpack("<QQ", data))
    if not entries:
        return None, 0
    prev_end, prev_empties = 0, 0
    for pos, (end, empties) in enumerate(entries):
        last = pos == len(entries) - 1
        if end <= prev_end:
            return None, pos
        if empties < prev_empties:
            return None, pos
        filled_now = end - empties
        filled_before = prev_end - prev_empties
        if filled_now < filled_before or (not last and filled_now == filled_before):
            return None, pos
        prev_end, prev_empties = end, empties
    return entries, None


def locate_by_scan(occupied, position: int):
    """Physical record ordinal of a logical position, or None if empty."""
    occupied = sorted(occupied)
    pos = bisect_left(occupied, position)
    if pos < len(occupied) and occupied[pos] == position:
        return pos + 1
    return None


def logical_by_scan(occupied, ordinal: int) -> int:
    """Logical position of the ordinal-th stored record."""
    return sorted(occupied)[ordinal - 1]


def table_lookup_by_scan(rows, indices):
    """1-based record number of a key in a sorted row list, or None."""
    for recno, (key, _) in enumerate(rows, start=1):
        if tuple(key) == tuple(indices):
            return recno
    return None


def space_ratio_by_bytes(record_width: int, row_bytes: int,
                         r: int, cell_total: int) -> Fraction:
    """Uncompressed-array bytes over table bytes, exactly."""
    return Fraction(cell_total * record_width, r * row_bytes)
