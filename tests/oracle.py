"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: dense materialization, full
enumeration, linear scans.  Tests compare the fast production code
against these, never the other way round.
"""

from __future__ import annotations

import struct
import zlib
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
    RelationSchema,
    compute_active_domains,
)
from cubestore.table_store import (
    DEFAULT_PAGE_SIZE,
    BTreeMeta,
    _INTERNAL,
    _MAGIC,
    _META,
    _NODE_HEADER,
    _VERSION,
    _index_pages,
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


def bitmap_body(occupied, total_cells: int) -> bytes:
    """One bit per cell, cell p at bit (p - 1) % 8 of byte (p - 1) // 8,
    with the bits past the last cell left zero."""
    body = [0] * ((total_cells + 7) // 8)
    for position in occupied:
        body[(position - 1) // 8] += 2 ** ((position - 1) % 8)
    return bytes(body)


PAGE_CELLS = 32768


def header_pages(occupied, total_cells: int) -> list:
    """(page number, its sorted cell offsets, its cell count) of each page holding a cell."""
    pages = {}
    for position in sorted(occupied):
        pages.setdefault((position - 1) // PAGE_CELLS, []).append((position - 1) % PAGE_CELLS)
    return [(g, offsets, min(PAGE_CELLS, total_cells - g * PAGE_CELLS))
            for g, offsets in sorted(pages.items())]


def container_of(offsets, cells: int) -> bytes:
    """A page's container: nothing when full, u16 offsets when 2c is below
    its bitmap bytes, else its bitmap."""
    bitmap = bitmap_body([o + 1 for o in offsets], cells)
    if len(offsets) == cells:
        return b""
    if 2 * len(offsets) < len(bitmap):
        return struct.pack(f"<{len(offsets)}H", *offsets)
    return bitmap


def header_file_bytes(occupied, total_cells: int, edit=None) -> bytes:
    """Expected header file of the occupied positions.

    Preamble: the ASCII bytes "HDRPAGES", u64 total_cells, u64 number of
    pages of 32,768 cells that hold a cell; then per such page, in page
    order, the entry u64 page, u16 count, u16 0, u32 CRC32 of those 12
    bytes and the container; then the containers, container_of each.
    edit(page, container), if given, returns each page's container
    before its CRC is taken, to make a damaged file whose CRCs hold.
    """
    pages = header_pages(occupied, total_cells)
    index, containers = b"", b""
    for g, offsets, cells in pages:
        container = container_of(offsets, cells)
        if edit is not None:
            container = edit(g, container)
        head = struct.pack("<QHH", g, len(offsets), 0)
        index += head + struct.pack("<I", zlib.crc32(head + container))
        containers += container
    return struct.pack("<8sQQ", b"HDRPAGES", total_cells, len(pages)) + index + containers


def decode_header_by_scan(data: bytes):
    """Reference header decode: the sorted stored positions, or None for a bad file.

    Reads the preamble, then each entry and its container in turn, and
    checks everything the format fixes: the magic, total_cells >= 1,
    pages ascending inside the box, each count in 1..the page's cells,
    zero pad bytes, each CRC, an offset list ascending below the page's
    cells, zero bitmap padding bits, each page holding its count, and
    the file ending with the last container.
    """
    if len(data) < 24 or data[:8] != b"HDRPAGES":
        return None
    total, n = struct.unpack_from("<QQ", data, 8)
    if total < 1 or len(data) < 24 + 16 * n:
        return None
    offset = 24 + 16 * n
    occupied = []
    prev = -1
    for i in range(n):
        g, c, pad, crc = struct.unpack_from("<QHHI", data, 24 + 16 * i)
        if g <= prev or g * PAGE_CELLS >= total or pad:
            return None
        prev = g
        cells = min(PAGE_CELLS, total - g * PAGE_CELLS)
        bitmap = (cells + 7) // 8
        if not 1 <= c <= cells:
            return None
        size = 0 if c == cells else 2 * c if 2 * c < bitmap else bitmap
        container = data[offset : offset + size]
        offset += size
        if len(container) != size or zlib.crc32(data[24 + 16 * i : 24 + 16 * i + 12]
                                                 + container) != crc:
            return None
        if size == 0:
            offsets = list(range(cells))
        elif size < bitmap:
            offsets = list(struct.unpack(f"<{c}H", container))
            if any(a >= b for a, b in zip(offsets, offsets[1:])) or offsets[-1] >= cells:
                return None
        else:
            offsets = [o for o in range(8 * bitmap) if container[o // 8] >> (o % 8) & 1]
            if len(offsets) != c or offsets[-1] >= cells:
                return None
        occupied += [g * PAGE_CELLS + o + 1 for o in offsets]
    return occupied if offset == len(data) else None


def locate_by_scan(occupied, position: int):
    """Physical record ordinal of a logical position, or None if empty."""
    occupied = sorted(occupied)
    pos = bisect_left(occupied, position)
    if pos < len(occupied) and occupied[pos] == position:
        return pos + 1
    return None


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


def framed_by_rebuild(data: bytes, meta: BTreeMeta, levels) -> bool:
    """Whether data is what _index_pages writes over the separators stored in it.

    The rule open used before it compared only the bytes outside the
    separators: read each node's separators where the shape (meta, and
    levels, each level's node sizes from the bottom) puts them, assemble
    the leaf fences from the root down, rebuild the whole file from them
    and compare.  The leftmost fence is never written, so any key serves.
    """
    width, hdr = meta.key_bytes, _NODE_HEADER.size
    fences, end = [bytes(width)], meta.node_count
    for sizes in reversed(levels):
        start, below = end - len(sizes), []
        for node, fence, n in zip(range(start, end), fences, sizes):
            off = node_offset(meta.page_size, node + 1) + hdr
            below.append(fence)
            below += [data[off + i * width : off + (i + 1) * width] for i in range(n - 1)]
        fences, end = below, start
    return data == b"".join(_index_pages(meta, levels, fences))


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


_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1
_DIGITS = "0123456789"


def _digits_from(text: str, i: int) -> int:
    """The index just past the run of ASCII digits that starts at text[i]."""
    while i < len(text) and text[i] in _DIGITS:
        i += 1
    return i


def number_kind_by_scan(text: str):
    """KIND_INT, KIND_FLOAT or None: what the number grammar makes of text.

    Reads text one character at a time: an optional sign, ASCII digits,
    then for a float an optional "." with digits (a digit on one side at
    least) and an optional e or E, sign and digits.  A sign and digits
    alone is an int when it fits int64, else a float.  nan, inf and -inf
    are floats, and a finite literal that overflows float64 is no number.
    """
    if text in ("nan", "inf", "-inf"):
        return KIND_FLOAT
    start = 1 if text[:1] in ("+", "-") else 0
    i = _digits_from(text, start)
    digits = i - start
    if digits and i == len(text):
        if _I64_MIN <= int(text) <= _I64_MAX:
            return KIND_INT
    elif text[i : i + 1] == ".":
        point = i + 1
        i = _digits_from(text, point)
        digits += i - point
    if not digits:
        return None
    if text[i : i + 1] in ("e", "E"):
        after_sign = i + 1 + (text[i + 1 : i + 2] in ("+", "-"))
        i = _digits_from(text, after_sign)
        if i == after_sign:
            return None
    if i != len(text) or abs(float(text)) == float("inf"):
        return None
    return KIND_FLOAT


def _infer_column(name: str, values) -> MeasureColumn:
    """Pick int64, float64, or text for a column from its distinct values."""
    kinds = {number_kind_by_scan(v) for v in values}
    if kinds == {KIND_INT}:
        return MeasureColumn(name, KIND_INT, 8)
    if kinds and None not in kinds:
        return MeasureColumn(name, KIND_FLOAT, 8)
    width = max((len(v.encode("utf-8")) for v in values), default=1)
    return MeasureColumn(name, KIND_TEXT, max(width, 1))


def _declared_column(name: str, spec: str, values) -> MeasureColumn:
    """The column spec declares; only text takes a width, an int of the grammar above 0."""
    kind, colon, width = spec.partition(":")
    if kind not in (KIND_INT, KIND_FLOAT, KIND_TEXT):
        raise MalformedInputError(f"unknown column type {spec!r} for {name}")
    if colon:
        if kind != KIND_TEXT or number_kind_by_scan(width) != KIND_INT or int(width) < 1:
            raise MalformedInputError(f"bad width in {spec!r} for {name}")
        return MeasureColumn(name, KIND_TEXT, int(width))
    if kind != KIND_TEXT:
        return MeasureColumn(name, kind, 8)
    inferred = max((len(v.encode("utf-8")) for v in values), default=1)
    return MeasureColumn(name, KIND_TEXT, max(inferred, 1))


def encode_row(row, key_dirs) -> tuple[tuple[int, ...], tuple]:
    """Dictionary-encode the key of one row.

    Returns (key indices, measure values).  The first len(key_dirs) fields
    are translated through the directories; the rest are returned as-is.
    A key-only row yields no measures, which its codec packs as 0x01.
    """
    k = len(key_dirs)
    t = tuple(row)
    if len(t) < k:
        raise MalformedInputError(f"row has {len(t)} fields, key needs {k}")
    indices = tuple(d.index_of(v) for d, v in zip(key_dirs, t))
    measures = t[k:]
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

    codec = RecordCodec(columns)
    encoded = []
    for row in reordered:
        indices, measures = encode_row(row, key_dirs)
        measures = tuple(col.from_text(v) for col, v in zip(columns, measures))
        encoded.append((linearize(indices, cards), indices, codec.pack(measures)))
    encoded.sort(key=lambda cell: cell[0])
    for a, b in zip(encoded, encoded[1:]):
        if a[0] == b[0]:
            raise DuplicateKeyError(f"two rows share the key {a[1]}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(
        schema_name=schema_name,
        key_columns=tuple(key_columns),
        schema=RelationSchema(cards, tuple(columns)),
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
                          page_size: int = DEFAULT_PAGE_SIZE) -> BTreeMeta:
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
