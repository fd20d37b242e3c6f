"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: dense materialization, full
enumeration, linear scans.  Tests compare the fast production code
against these, never the other way round.
"""

from __future__ import annotations

import re
import struct
from bisect import bisect_left
from datetime import datetime, timezone
from fractions import Fraction
from itertools import product
from pathlib import Path

from cubestore.dataset import MANIFEST_NAME, Manifest
from cubestore.errors import DuplicateKeyError, MalformedInputError
from cubestore.linearizer import linearize
from cubestore.relation_model import (
    KIND_FLOAT,
    KIND_INT,
    KIND_TEXT,
    MeasureColumn,
    RecordCodec,
    compute_active_domains,
)
from cubestore.table_store import (
    BTreeMeta,
    _INTERNAL,
    _MAGIC,
    _META,
    _NODE_HEADER,
    _VERSION,
    resolve_page_size,
    write_table,
)


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


def bitmap_file_bytes(occupied, total_cells: int) -> bytes:
    """Expected presence-bitmap header file of the occupied positions.

    Preamble: u64 0, the ASCII bytes "PRESENCE", u64 total_cells; then
    one bit per cell, cell p at bit (p - 1) % 8 of byte (p - 1) // 8,
    with the bits past the last cell left zero.
    """
    body = [0] * ((total_cells + 7) // 8)
    for position in occupied:
        body[(position - 1) // 8] += 2 ** ((position - 1) % 8)
    return struct.pack("<Q8sQ", 0, b"PRESENCE", total_cells) + bytes(body)


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


def binary_search_rows(table: bytes, key_bytes: int, row_bytes: int, key: bytes):
    """Reference plain binary search over a table file's bytes, one row per probe.

    Returns the 1-based record number of the row holding key, or None.
    """
    lo, hi = 1, len(table) // row_bytes
    while lo <= hi:
        mid = (lo + hi) // 2
        off = (mid - 1) * row_bytes
        row_key = table[off : off + key_bytes]
        if row_key == key:
            return mid
        if row_key < key:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def btree_lookup_by_pages(index: bytes, table: bytes, row_bytes: int, coords):
    """Reference B-tree lookup over an index file's and its table's bytes.

    The key is the coordinates, last first, in 4 big-endian bytes each.
    Walks from the root through every internal node, as index_levels
    decodes them, with a linear scan of its separators down to a block
    number j, then scans the rows of block j, which start at row
    (j - 1) * B + 1 for B = max(2, page size // row bytes).  Returns the
    record number of the key, or None.
    """
    _, _, _, page_size, _, width, node, _, entries, height = _META.unpack_from(index, 0)
    if not node:
        return None
    key = b"".join(i.to_bytes(4, "big") for i in reversed(coords))
    nodes = {page_no: (separators, children)
             for level in index_levels(index) for page_no, separators, children in level}
    for _ in range(height):
        separators, children = nodes[node]
        child = 0
        while child < len(separators) and separators[child] <= key:
            child += 1
        node = children[child]
    b = max(2, page_size // row_bytes)
    for recno in range((node - 1) * b + 1, min(node * b, entries) + 1):
        off = (recno - 1) * row_bytes
        if table[off : off + width] == key:
            return recno
    return None


def node_offset(page_size: int, page_no: int) -> int:
    """Byte offset of node page page_no (1-based): after the metadata header."""
    return _META.size + (page_no - 1) * page_size


def index_levels(index: bytes) -> list[list[tuple[int, list[bytes], list[int]]]]:
    """An index's internal nodes, level by level from the root, in key order.

    Each node is (page number, separators, child numbers), decoded by
    slicing the page.  No child number is stored: pages run level by
    level from the bottom, so a level's children are, in order, the
    pages just before its first, as many as its nodes have children,
    and the bottom level's are the blocks from 1 on.
    """
    _, _, _, page_size, _, width, root, _, _, height = _META.unpack_from(index, 0)
    hdr = _NODE_HEADER.size
    levels = []
    pages = [root]
    for depth in range(height, 0, -1):
        level = []
        for page_no in pages:
            off = node_offset(page_size, page_no)
            _, count = _NODE_HEADER.unpack_from(index, off)
            separators = [index[off + hdr + i * width : off + hdr + (i + 1) * width]
                          for i in range(count)]
            level.append((page_no, separators, []))
        total = sum(len(separators) + 1 for _, separators, _ in level)
        first = pages[0] - total if depth > 1 else 1
        for _, separators, children in level:
            children += range(first, first + len(separators) + 1)
            first += len(separators) + 1
        levels.append(level)
        pages = [child for _, _, children in level for child in children]
    return levels


def fences_in_order(index: bytes, first_key: bytes) -> list[bytes]:
    """The key each leaf block must start with, in key order, by a recursive walk.

    The leftmost block's is the table's first key, and every other
    block's is the separator just before it in an in-order walk of the
    nodes index_levels decodes.  A valid index's fences strictly ascend.
    """
    *_, root, _, _, height = _META.unpack_from(index, 0)
    nodes = {page_no: (separators, children)
             for level in index_levels(index) for page_no, separators, children in level}
    fences = [first_key]

    def walk(page_no: int, depth: int) -> None:
        separators, children = nodes[page_no]
        for i, child in enumerate(children):
            if i:
                fences.append(separators[i - 1])
            if depth > 1:
                walk(child, depth - 1)

    if height:
        walk(root, height)
    return fences


def space_ratio_by_bytes(record_width: int, row_bytes: int,
                         r: int, cell_total: int) -> Fraction:
    """Uncompressed-array bytes over table bytes, exactly."""
    return Fraction(cell_total * record_width, r * row_bytes)


def unescape_by_scan(line: str) -> str:
    r"""Undo a .dim line's escapes one character at a time.

    \n becomes a newline and \\ a backslash; any other backslash, lone or
    trailing, is kept as it is.
    """
    out = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "\\" and i + 1 < len(line):
            nxt = line[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def _infer_column(name: str, values) -> MeasureColumn:
    """Pick int64, float64, or text for a column from its distinct values."""
    as_int = all(
        _INT_RE.match(v) and _I64_MIN <= int(v) <= _I64_MAX for v in values
    )
    if as_int and values:
        return MeasureColumn(name, KIND_INT, 8)
    if values:
        try:
            for v in values:
                float(v)
            return MeasureColumn(name, KIND_FLOAT, 8)
        except ValueError:
            pass
    width = max((len(v.encode("utf-8")) for v in values), default=1)
    return MeasureColumn(name, KIND_TEXT, max(width, 1))


def _declared_column(name: str, spec: str, values) -> MeasureColumn:
    kind, _, width = spec.partition(":")
    if kind == KIND_INT:
        return MeasureColumn(name, KIND_INT, 8)
    if kind == KIND_FLOAT:
        return MeasureColumn(name, KIND_FLOAT, 8)
    if kind == KIND_TEXT:
        if width:
            return MeasureColumn(name, KIND_TEXT, int(width))
        inferred = max((len(v.encode("utf-8")) for v in values), default=1)
        return MeasureColumn(name, KIND_TEXT, max(inferred, 1))
    raise MalformedInputError(f"unknown column type {spec!r} for {name}")


def encode_row(row, key_dirs) -> tuple[tuple[int, ...], tuple]:
    """Dictionary-encode the key of one row.

    Returns (key indices, measure values).  The first len(key_dirs) fields
    are translated through the directories; the rest are returned as-is.
    A key-only row yields the presence value (1,) as its measures.
    """
    k = len(key_dirs)
    t = tuple(row)
    if len(t) < k:
        raise MalformedInputError(f"row has {len(t)} fields, key needs {k}")
    indices = tuple(d.index_of(v) for d, v in zip(key_dirs, t))
    measures = t[k:] if len(t) > k else (1,)
    return indices, measures


def ingest_rows_in_memory(column_names, rows, key_columns, out_dir,
                          schema_name: str = "relation", types=None) -> Manifest:
    """Reference ingest: hold every row, encode each one, sort the encoded list.

    Keeps the raw rows, a reordered copy, a set of all rows (through
    compute_active_domains) and one (position, indices, record) per row.
    The production ingest must write the same bytes and raise the same
    error classes.
    """
    column_names = list(column_names)
    if len(set(column_names)) != len(column_names):
        raise MalformedInputError("duplicate column names in the input")
    key_columns = list(key_columns)
    if not key_columns:
        raise MalformedInputError("at least one key column is required")
    positions = {}
    for name in key_columns:
        if name not in column_names:
            raise MalformedInputError(f"key column {name!r} is not in the input")
        if name in positions:
            raise MalformedInputError(f"key column {name!r} given twice")
        positions[name] = column_names.index(name)
    measure_names = [c for c in column_names if c not in positions]
    order = [positions[name] for name in key_columns]
    order += [column_names.index(name) for name in measure_names]

    reordered = []
    arity = len(column_names)
    for row in rows:
        row = tuple(row)
        if len(row) != arity:
            raise MalformedInputError(
                f"row has {len(row)} fields, header has {arity}"
            )
        reordered.append(tuple(row[i] for i in order))
    if not reordered:
        raise MalformedInputError("the input has no data rows")

    domains = compute_active_domains(reordered)
    k = len(key_columns)
    key_dirs = domains[:k]
    cards = tuple(len(d) for d in key_dirs)

    types = dict(types or {})
    unknown = set(types) - set(measure_names)
    if unknown:
        raise MalformedInputError(f"type overrides for unknown columns: {sorted(unknown)}")
    columns = []
    for name, domain in zip(measure_names, domains[k:]):
        if name in types:
            columns.append(_declared_column(name, types[name], domain.values))
        else:
            columns.append(_infer_column(name, domain.values))

    codec = RecordCodec(columns) if columns else RecordCodec.presence()
    encoded = []
    for row in reordered:
        indices, measures = encode_row(row, key_dirs)
        if columns:
            measures = tuple(
                col.from_text(v) for col, v in zip(columns, measures)
            )
        encoded.append((linearize(indices, cards), indices, codec.pack(measures)))
    encoded.sort(key=lambda cell: cell[0])
    for a, b in zip(encoded, encoded[1:]):
        if a[0] == b[0]:
            raise DuplicateKeyError(f"two rows share the key {a[1]}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(
        schema_name=schema_name,
        n=len(column_names),
        k=k,
        cards=cards,
        key_columns=tuple(key_columns),
        measure_columns=tuple(columns),
        r=len(encoded),
        built_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    for i, directory in enumerate(key_dirs, start=1):
        path = out / f"dim_{i}.dim"
        path.write_bytes(directory._encoded(path))
    with open(out / manifest.table_file, "wb") as f:
        write_table(
            ((indices, record) for _, indices, record in encoded),
            f, cards, codec.record_width,
        )
    (out / MANIFEST_NAME).write_bytes(manifest._encoded())
    return manifest


def _balanced_chunks(items: list, cap: int, minimum: int) -> list[list]:
    """Split into chunks of at most cap items, rebalancing the tail.

    All chunks except a lone one hold at least `minimum` items; the last
    two chunks are evenly split when the tail would underflow.
    """
    if len(items) <= cap:
        return [items]
    chunks = [items[i : i + cap] for i in range(0, len(items), cap)]
    if len(chunks[-1]) < minimum:
        merged = chunks[-2] + chunks[-1]
        half = len(merged) // 2
        chunks[-2] = merged[:half]
        chunks[-1] = merged[half:]
    return chunks


def build_index_in_memory(table: bytes, out_path, k: int, record_width: int,
                          page_size: int | None = None) -> BTreeMeta:
    """Reference B-tree bulk load: list every key, block and page, then write.

    The production build streams the table's block keys and must write
    the same bytes: the 48-byte metadata header, then one page per
    node, its header and separators, no child numbers; with no node,
    the header padded with zeros to one page.  Block j holds
    B = max(2, page size // row bytes) rows from row (j - 1) * B + 1 on;
    the bottom level's children are block numbers and its separators the
    first keys of blocks 2, 3, ...  The children are only tracked here,
    as (first key, number) pairs, to pick each node's separators.
    """
    page_size = resolve_page_size(page_size)
    key_bytes = 4 * k
    row = key_bytes + record_width
    t = (page_size - _NODE_HEADER.size) // (2 * key_bytes)  # 2t - 1 separators fit a page
    assert t >= 2, "page too small"
    b = max(2, page_size // row)
    keys = [table[off : off + key_bytes] for off in range(0, len(table), row)]
    pages: list[bytes] = []

    def internal_page(children) -> bytes:
        buf = bytearray(page_size)
        _NODE_HEADER.pack_into(buf, 0, _INTERNAL, len(children) - 1)
        off = _NODE_HEADER.size
        for key, _ in children[1:]:
            buf[off : off + key_bytes] = key
            off += key_bytes
        return bytes(buf)

    level = [(keys[i], i // b + 1) for i in range(0, len(keys), b)]
    height = 0
    while len(level) > 1:
        parents = []
        for chunk in _balanced_chunks(level, 2 * t, t):
            pages.append(internal_page(chunk))
            parents.append((chunk[0][0], len(pages)))
        level = parents
        height += 1
    root = level[0][1] if level else 0

    meta = BTreeMeta(page_size, t, key_bytes, root, len(pages), len(keys), height)
    header = _META.pack(_MAGIC, _VERSION, 0, page_size, t, key_bytes,
                        meta.root, meta.node_count, meta.entry_count, meta.height)
    with open(out_path, "wb") as f:
        f.write(header if pages else header.ljust(page_size, b"\0"))
        for page in pages:
            f.write(page)
    return meta
