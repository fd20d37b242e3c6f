"""Sorted fixed-width table file with a bulk-loaded disk B-tree index.

Table file (.tbl): r fixed-width rows, no file header.  A row is the
encoded key followed by the measure record.  Each key coordinate is a
4-byte big-endian unsigned integer and the coordinates are stored most
significant dimension first (i_k, ..., i_1), so comparing the raw key
bytes equals comparing logical positions and the file is sorted both
ways at once.

Index file (.btx), version 3: fixed-size pages.  Page 0 is metadata
(magic "CBTX", version, page size, minimal degree, key width, root page,
node count, entry count, height; all little-endian).  An index key is
the table key with each field cut to w bytes, w in {1, 2, 4} the fewest
that hold every coordinate stored in the table; the cut keys sort as
the table's keys do.  w is not stored apart: the key width is k * w.
Pages 1..m hold nodes, each starting with a type byte, a pad byte and a
16-bit key count.  A leaf is that, four zero pad bytes and the 8-byte
record number of its first key (16 bytes, "<BxHxxxxQ"), then its keys
back to back: the index covers the sorted table, so the i-th key of a
leaf is row first + i and no record number is stored per key.  An
internal node is the 8-byte header ("<BxHxxxx"), its separator keys,
then its child page numbers; each separator is the smallest key of the
child subtree to its right.  The tree is bulk-loaded bottom up from the
sorted stream.  The minimal degree t is derived from the page size and
key width so that 2t children fit an internal page; every internal node
except the root has t to 2t children.  A leaf holds up to L = (page
size - 16) // key bytes keys, always more than 2t - 1, and every leaf
except a lone root holds at least t - 1.  Fewer, fuller leaves only
lower the height, so a lookup still visits at most
ceil(log_t((r + 1) / 2)) + 1 nodes.  At open time the metadata page and
every internal node are read, checked and held in memory (about one
separator per leaf), so a lookup bisects the levels above the leaves in
memory and reads one leaf page, which bisect_left searches through
precomputed key slices.  The leaf's type, count (1..L) and record range
(within the entry count) are checked before it is searched.

Both lookups first encode the key with a key kernel
(linearizer.key_kernel), compiled straight-line code for the box's k
that range-checks every coordinate and packs them last dimension
first: the B-tree's packs w-byte fields, the binary search's 4-byte
ones.  Coordinates outside the box, of the wrong count or not ints
raise RangeError with linearize's message, as ArrayStore.get_cell
does, so the two representations agree on them too.  An in-box
coordinate too wide for w bytes is stored in no row, so the B-tree
answers None for it.  write_table packs its rows' keys through the
4-byte kernel; encode_key stays the reference.

The plain binary search uses no index.  It splits the rows into blocks
of B = max(2, DEFAULT_PAGE_SIZE // row bytes) rows and bisects the
blocks' first keys, reading each key it compares with one key-sized
pread; then it reads the one block that can hold the key and bisects
its rows in memory.  Both searches run inside C-level bisect calls.
The comparisons stay about log2 r, the q_plain model's count, while
the file reads fall to about log2(r / B) + 1.  A key probe is not
length-checked: a probe cut short by a truncated file compares low,
which only steers the search to a later block, and that block's read
is checked.  No table key is read or held at open.
"""

from __future__ import annotations

import math
import os
import struct
from bisect import bisect_left, bisect_right
from functools import partial
from pathlib import Path
from typing import NamedTuple

from .errors import (
    DatasetError,
    DuplicateKeyError,
    MalformedInputError,
    NotSortedError,
    ParameterError,
    RangeError,
    StorageError,
)
from .linearizer import cell_count, key_kernel

KEY_FIELD_WIDTH = 4  # bytes per dictionary-encoded key field in the table
CHILD_WIDTH = 8

DEFAULT_PAGE_SIZE = 4096
MAX_PAGE_SIZE = 65536  # a leaf then holds at most 65,520 keys of 1 byte
PAGE_SIZE_ENV = "CUBESTORE_PAGE_SIZE"

_MAGIC = b"CBTX"
_VERSION = 3
_META = struct.Struct("<4sHHIIIQQQI")
_NODE_HEADER = struct.Struct("<BxHxxxx")  # type, key count
_LEAF_HEADER = struct.Struct("<BxHxxxxQ")  # type, key count, first record number
_LEAF = 0
_INTERNAL = 1
_PLUS_ONE = bytes(range(1, 256)) + b"\xff"

_FIELD_CODES = {1: "B", 2: "H", 4: "I"}  # struct code of a w-byte key field

_KEY_PACKERS: dict[tuple[int, int], struct.Struct] = {}


def _key_packer(k: int, width: int = KEY_FIELD_WIDTH) -> struct.Struct:
    packer = _KEY_PACKERS.get((k, width))
    if packer is None:
        packer = _KEY_PACKERS[k, width] = struct.Struct(f">{k}{_FIELD_CODES[width]}")
    return packer


def encode_key(indices) -> bytes:
    """Pack coordinates into comparable key bytes, last dimension first."""
    return _key_packer(len(indices)).pack(*reversed(indices))


def decode_key(raw: bytes, k: int) -> tuple[int, ...]:
    return tuple(reversed(_key_packer(k).unpack(raw)))


def resolve_page_size(page_size: int | None = None) -> int:
    """Explicit argument, else the CUBESTORE_PAGE_SIZE variable, else 4096."""
    if page_size is None:
        env = os.environ.get(PAGE_SIZE_ENV)
        page_size = int(env) if env else DEFAULT_PAGE_SIZE
    if page_size < _META.size or page_size < 64:
        raise ParameterError(f"page size {page_size} is too small")
    if page_size > MAX_PAGE_SIZE:
        raise ParameterError(
            f"page size {page_size} is too large; a node's 16-bit key count "
            f"allows at most {MAX_PAGE_SIZE}"
        )
    return page_size


def min_degree(page_size: int, key_bytes: int) -> int:
    """Minimal degree t such that an internal node of 2t children fits in one page."""
    t = (page_size - _NODE_HEADER.size) // (2 * (key_bytes + CHILD_WIDTH))
    if t < 2:
        raise ParameterError(
            f"page size {page_size} cannot hold a B-tree of {key_bytes}-byte keys"
        )
    return t


def leaf_capacity(page_size: int, key_bytes: int) -> int:
    """Keys L that fill a leaf page after its header; L > 2t - 1 for any valid t."""
    return (page_size - _LEAF_HEADER.size) // key_bytes


def _bisect_probes(n: int) -> bytes:
    """Keys bisect compares over n items, indexed by the position it returns.

    A probe splits a range of m items into m // 2 on its left and
    m - m // 2 - 1 on its right.  The ranges on one level differ in
    size by at most one, so the memo holds two sizes per level and the
    table is built by C-level bytes operations.
    """
    memo = {0: b"\0"}

    def probes(m: int) -> bytes:
        if m not in memo:
            half = m // 2
            memo[m] = (probes(half) + probes(m - half - 1)).translate(_PLUS_ONE)
        return memo[m]

    return probes(n)


def _key_slices(first: int, step: int, count: int, width: int) -> list[slice]:
    """Slices of count width-byte keys, step bytes apart from byte first on."""
    end = first + count * step
    return list(map(slice, range(first, end, step), range(first + width, end + width, step)))


def worst_case_page_reads(r: int, t: int) -> int:
    """Upper bound on node pages read by one lookup in an r-entry index."""
    if r < 1:
        return 1
    return max(math.ceil(math.log((r + 1) / 2, t)), 0) + 1


class BTreeMeta(NamedTuple):
    page_size: int
    t: int
    key_bytes: int
    root: int
    node_count: int
    entry_count: int
    height: int  # edges from root to leaf; 0 for a root-only tree


def write_table(cells, out, cards, record_width: int) -> int:
    """Write (coordinates, record) cells as sorted fixed-width rows.

    The stream must be strictly ascending in key order; returns the row
    count.  Coordinates go through the box's key kernel, so a bad one
    raises linearize's RangeError.  Equal keys are duplicates,
    descending keys are a sort error.
    """
    key_of = key_kernel(cards, _key_packer(len(cards)).pack)
    prev = b""
    count = 0
    for indices, record in cells:
        key = key_of(indices)
        if key == prev:
            raise DuplicateKeyError(f"duplicate key {tuple(indices)}")
        if key < prev:
            raise NotSortedError(f"key {tuple(indices)} out of order; stream must ascend")
        if len(record) != record_width:
            raise MalformedInputError(
                f"record for key {tuple(indices)} is {len(record)} bytes, "
                f"expected {record_width}"
            )
        out.write(key + record)
        prev = key
        count += 1
    return count


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


def build_index(keys, out_path, key_bytes: int, page_size: int | None = None) -> BTreeMeta:
    """Bulk-load a B-tree over a sorted stream of key bytes.

    The i-th key of the stream belongs to record number i.  The stream
    is read once.  Each leaf of up to L = leaf_capacity keys is written
    as soon as the leaf after it fills; one full leaf is held back so
    that the last one or two leaves go through _balanced_chunks together
    and come out as if the whole stream had, each with at least t - 1
    keys.  Memory holds those two leaves and one (first key, page
    number) pair per leaf, the bottom of the internal levels, which
    _balanced_chunks splits into nodes of t to 2t children.  Pages are
    numbered in write order (leaves, then each internal level); the
    metadata page 0 is written last.
    """
    page_size = resolve_page_size(page_size)
    t = min_degree(page_size, key_bytes)
    cap = leaf_capacity(page_size, key_bytes)

    def leaf_page(chunk, first: int) -> bytes:
        page = _LEAF_HEADER.pack(_LEAF, len(chunk), first) + b"".join(chunk)
        return page.ljust(page_size, b"\0")

    def internal_page(children) -> bytes:
        buf = bytearray(page_size)
        _NODE_HEADER.pack_into(buf, 0, _INTERNAL, len(children) - 1)
        off = _NODE_HEADER.size
        for key, _ in children[1:]:
            buf[off : off + key_bytes] = key
            off += key_bytes
        for _, page_no in children:
            struct.pack_into("<Q", buf, off, page_no)
            off += CHILD_WIDTH
        return bytes(buf)

    with open(out_path, "wb") as f:
        f.seek(page_size)
        level = []  # (first key, page number) of each node written on this level
        entry_count = 0

        def write_leaf(leaf) -> None:
            nonlocal entry_count
            f.write(leaf_page(leaf, entry_count + 1))
            entry_count += len(leaf)
            level.append((leaf[0], len(level) + 1))

        held: list = []  # a full leaf, written once the next one fills
        chunk: list = []
        for key in keys:
            chunk.append(key)
            if len(chunk) == cap:
                if held:
                    write_leaf(held)
                held, chunk = chunk, []
        tail = held + chunk
        if tail:
            for leaf in _balanced_chunks(tail, cap, t - 1):
                write_leaf(leaf)
        node_count = len(level)
        height = 0
        while len(level) > 1:
            parents = []
            for children in _balanced_chunks(level, 2 * t, t):
                f.write(internal_page(children))
                node_count += 1
                parents.append((children[0][0], node_count))
            level = parents
            height += 1
        root = level[0][1] if level else 0
        meta = BTreeMeta(page_size, t, key_bytes, root, node_count, entry_count, height)
        head = bytearray(page_size)
        head[: _META.size] = _META.pack(
            _MAGIC, _VERSION, 0, page_size, t, key_bytes,
            meta.root, meta.node_count, meta.entry_count, meta.height,
        )
        f.seek(0)
        f.write(head)
    return meta


def _table_blocks(fd, name, row: int, rows: int):
    """Yield the first `rows` rows of an open table file as blocks of up to 2048 rows."""
    end = rows * row
    step = row * 2048
    for off in range(0, end, step):
        size = min(step, end - off)
        block = os.pread(fd, size, off)
        if len(block) != size:
            raise StorageError(
                f"{name}: short read of {size} bytes at offset {off}; "
                f"the file changed size while being read"
            )
        yield block


def _block_cells(blocks, k: int, row: int):
    """Decode (coordinates, record) from each row of each block."""
    key_bytes = k * KEY_FIELD_WIDTH
    for block in blocks:
        for off in range(0, len(block), row):
            yield decode_key(block[off : off + key_bytes], k), block[off + key_bytes : off + row]


def _table_rows(f, row: int) -> int:
    """Row count of an open table file; a partial row raises StorageError naming it."""
    size = os.fstat(f.fileno()).st_size
    if size % row:
        raise StorageError(f"{f.name}: size {size} is not a multiple of the {row}-byte row")
    return size // row


def _iter_table_blocks(tbl_path, row: int):
    """Stream a table file of row-byte rows as blocks of up to 2048 whole rows."""
    try:
        f = open(tbl_path, "rb")
    except OSError as exc:
        raise StorageError(f"cannot open {tbl_path}: {exc}") from None
    with f:
        yield from _table_blocks(f.fileno(), tbl_path, row, _table_rows(f, row))


def iter_table_cells(tbl_path, k: int, record_width: int):
    """Stream (coordinates, record) from a sorted table file."""
    row = k * KEY_FIELD_WIDTH + record_width
    return _block_cells(_iter_table_blocks(tbl_path, row), k, row)


def _field_width(blocks, k: int, row: int) -> int:
    """Fewest bytes, 1, 2 or 4, that hold every key field of a table's rows.

    A 4-byte big-endian field fits in w bytes when its first 4 - w bytes
    are zero; each test compares one strided slice of a block, one byte
    per row, with zeros.
    """
    width = 1
    for block in blocks:
        zeros = bytes(len(block) // row)
        for field in range(0, k * KEY_FIELD_WIDTH, KEY_FIELD_WIDTH):
            if block[field::row] != zeros or block[field + 1 :: row] != zeros:
                return 4
            if block[field + 2 :: row] != zeros:
                width = 2
    return width


def _index_keys(blocks, k: int, row: int, width: int):
    """Each row's key with every field cut to its last `width` bytes.

    Key byte i of every row in a block is copied in one strided slice
    assignment; the keys are then sliced from the packed block.
    """
    key_bytes = k * width
    sources = [field + KEY_FIELD_WIDTH - width + b
               for field in range(0, k * KEY_FIELD_WIDTH, KEY_FIELD_WIDTH)
               for b in range(width)]
    for block in blocks:
        packed = bytearray(len(block) // row * key_bytes)
        for i, source in enumerate(sources):
            packed[i::key_bytes] = block[source::row]
        packed = bytes(packed)
        yield from (packed[off : off + key_bytes] for off in range(0, len(packed), key_bytes))


def build_index_from_table(tbl_path, btx_path, k: int, record_width: int,
                           page_size: int | None = None) -> BTreeMeta:
    """Index an existing sorted table file, with key fields cut to w bytes.

    A first pass over the table finds w (_field_width), a second
    streams the cut keys into build_index.
    """
    row = k * KEY_FIELD_WIDTH + record_width
    blocks = _iter_table_blocks(tbl_path, row)
    try:
        width = _field_width(blocks, k, row)
    finally:
        blocks.close()
    keys = _index_keys(_iter_table_blocks(tbl_path, row), k, row, width)
    return build_index(keys, btx_path, k * width, page_size)


def build_table(cells, tbl_path, btx_path, cards, record_width: int,
                page_size: int | None = None) -> int:
    """Write the sorted row file and its index in one go; returns the row count."""
    with open(tbl_path, "wb") as f:
        count = write_table(cells, f, cards, record_width)
    build_index_from_table(tbl_path, btx_path, len(cards), record_width, page_size)
    return count


class TableStore:
    """Read handle over a sorted table file and its optional B-tree index.

    Reads go through pread.  The internal B-tree nodes are decoded once
    at open, so btree_lookup reads only its leaf page from the index;
    last_page_reads still counts every node visited, height + 1.
    binary_search_lookup reads from the table file only: one first key
    per block it compares, then one block of up to B rows.
    last_row_reads counts those .tbl reads, at most
    ceil(log2(blocks)) + 1, which is at most floor(log2 r) + 1; it comes
    from a per-table table of bisect's probe counts, so the lookup does
    no counting of its own.  The per-lookup counters are plain
    attributes and not thread-safe.
    """

    def __init__(self, tbl_file, cards, record_width: int, btx_file=None):
        self._tbl = tbl_file
        self._tbl_fd = tbl_file.fileno()
        self.cards = tuple(cards)
        cell_count(self.cards)
        self._key = key_kernel(self.cards, _key_packer(len(self.cards)).pack)
        self.record_width = record_width
        self.key_bytes = len(self.cards) * KEY_FIELD_WIDTH
        self.row_bytes = self.key_bytes + record_width
        self.row_count = _table_rows(tbl_file, self.row_bytes)
        # binary_search_lookup: blocks of B rows, about one default page each
        self._block_rows = max(2, DEFAULT_PAGE_SIZE // self.row_bytes)
        block_bytes = self._block_rows * self.row_bytes
        blocks = -(-self.row_count // self._block_rows)
        self._block_starts = range(block_bytes, blocks * block_bytes, block_bytes)
        self._block_probes = _bisect_probes(len(self._block_starts))
        self._read_key = partial(os.pread, self._tbl_fd, self.key_bytes)
        self._row_keys = _key_slices(0, self.row_bytes, min(self._block_rows, self.row_count),
                                     self.key_bytes)
        self._btx = btx_file
        self._btx_fd = btx_file.fileno() if btx_file else None
        self.meta: BTreeMeta | None = None
        # internal page number -> (separator keys, child page numbers)
        self._internal: dict[int, tuple[list[bytes], list[int]]] = {}
        self.leaf_capacity = 0
        self._leaf_keys: list[slice] = []
        if btx_file is not None:
            self.meta = self._read_meta()
            width = self.meta.key_bytes
            k = len(self.cards)
            self._index_key = key_kernel(self.cards, _key_packer(k, width // k).pack)
            self._load_internal_nodes()
            self.leaf_capacity = leaf_capacity(self.meta.page_size, width)
            # a leaf holds at most L keys and no more than the table's rows
            self._leaf_keys = _key_slices(_LEAF_HEADER.size, width,
                                          min(self.leaf_capacity, self.row_count), width)
        self.last_page_reads = 0
        self.last_row_reads = 0

    @classmethod
    def open(cls, tbl_path, cards, record_width: int, btx_path=None) -> "TableStore":
        try:
            tbl = open(tbl_path, "rb")
        except OSError as exc:
            raise StorageError(f"cannot open {tbl_path}: {exc}") from None
        btx = None
        if btx_path is not None:
            try:
                btx = open(btx_path, "rb")
            except OSError as exc:
                tbl.close()
                raise StorageError(f"cannot open {btx_path}: {exc}") from None
        try:
            return cls(tbl, cards, record_width, btx)
        except Exception:
            tbl.close()
            if btx:
                btx.close()
            raise

    def close(self) -> None:
        self._tbl.close()
        if self._btx:
            self._btx.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _read_meta(self) -> BTreeMeta:
        name = self._btx.name
        raw = os.pread(self._btx_fd, _META.size, 0)
        if len(raw) != _META.size:
            raise StorageError(f"{name}: index file is truncated")
        magic, version, _, page_size, t, key_bytes, root, nodes, entries, height = (
            _META.unpack(raw)
        )
        if magic != _MAGIC:
            raise StorageError(f"{name}: bad index magic {magic!r}")
        if version != _VERSION:
            raise StorageError(
                f"{name}: unsupported index version {version}, expected {_VERSION}; "
                f"rebuild it with `cubestore build --only table`"
            )
        k = len(self.cards)
        if key_bytes not in (k, 2 * k, 4 * k):
            raise StorageError(
                f"{name}: index keys are {key_bytes} bytes, not 1, 2 or 4 bytes "
                f"for each of the table's {k} key fields"
            )
        if entries != self.row_count:
            raise StorageError(
                f"{name}: index covers {entries} rows, table holds {self.row_count}"
            )
        size = os.fstat(self._btx_fd).st_size
        if size != (nodes + 1) * page_size:
            raise StorageError(
                f"{name}: size {size} is not {nodes + 1} pages of {page_size} bytes"
            )
        if not (1 <= root <= nodes if entries else root == 0):
            raise StorageError(f"{name}: root page {root} is invalid for "
                               f"{nodes} nodes and {entries} entries")
        try:
            expected_t = min_degree(page_size, key_bytes)
        except ParameterError:
            expected_t = None
        if t != expected_t:
            raise StorageError(
                f"{name}: minimal degree {t} does not match page size {page_size}"
            )
        return BTreeMeta(page_size, t, key_bytes, root, nodes, entries, height)

    def _load_internal_nodes(self) -> None:
        """Decode and check every internal node, level by level from the root.

        Each page may be reached once, so a corrupt child pointer or
        height cannot make the walk loop.
        """
        meta = self.meta
        if not meta.root:
            return
        name = self._btx.name
        width = meta.key_bytes
        hdr = _NODE_HEADER.size
        level = [meta.root]
        seen = {meta.root}
        for _ in range(meta.height):
            below = []
            for page_no in level:
                page = self._read_page(page_no)
                node_type, count = _NODE_HEADER.unpack_from(page, 0)
                if node_type != _INTERNAL or not 1 <= count <= 2 * meta.t - 1:
                    raise StorageError(f"{name}: page {page_no} is not an internal node")
                end = hdr + count * width
                separators = [page[off : off + width] for off in range(hdr, end, width)]
                if any(a >= b for a, b in zip(separators, separators[1:])):
                    raise StorageError(f"{name}: page {page_no} separators are not ascending")
                children = list(struct.unpack_from(f"<{count + 1}Q", page, end))
                for child in children:
                    if not 1 <= child <= meta.node_count or child in seen:
                        raise StorageError(
                            f"{name}: page {page_no} has invalid child page {child}"
                        )
                    seen.add(child)
                self._internal[page_no] = (separators, children)
                below += children
            level = below

    def _read_page(self, page_no: int) -> bytes:
        page = os.pread(self._btx_fd, self.meta.page_size, page_no * self.meta.page_size)
        if len(page) != self.meta.page_size:
            raise StorageError(f"{self._btx.name}: short read of index page {page_no}")
        return page

    def btree_lookup(self, indices) -> int | None:
        """Record number of a key, or None when no row has it.

        Coordinates outside the box raise RangeError.  An in-box
        coordinate too wide for the index's w-byte fields answers None
        without reading a page: no stored row holds it.
        """
        meta = self.meta
        if meta is None:
            raise DatasetError("no B-tree index is attached to this table")
        try:
            key = self._index_key(indices)
        except struct.error:
            self.last_page_reads = 0
            return None
        page_no = meta.root
        if not page_no:
            self.last_page_reads = 0
            return None
        internal = self._internal
        for _ in range(meta.height):
            separators, children = internal[page_no]
            page_no = children[bisect_right(separators, key)]
        page = self._read_page(page_no)
        node_type, count, first = _LEAF_HEADER.unpack_from(page, 0)
        if (node_type != _LEAF or not 1 <= count <= self.leaf_capacity
                or not 1 <= first <= meta.entry_count - count + 1):
            raise StorageError(
                f"{self._btx.name}: page {page_no} is not a valid leaf "
                f"(type {node_type}, {count} keys from record {first})"
            )
        self.last_page_reads = meta.height + 1
        keys = self._leaf_keys
        i = bisect_left(keys, key, 0, count, key=page.__getitem__)
        if i < count and page[keys[i]] == key:
            return first + i
        return None

    def binary_search_lookup(self, indices) -> int | None:
        """Record number of a key by bisecting the row file directly.

        bisect_right picks the last block whose first key is not above
        the key; one length-checked pread reads it for bisect_left.
        Coordinates outside the box raise RangeError.
        """
        key = self._key(indices)
        if not self.row_count:
            self.last_row_reads = 0
            return None
        j = bisect_right(self._block_starts, key, key=self._read_key)
        first = j * self._block_rows
        rows = min(self._block_rows, self.row_count - first)
        block = os.pread(self._tbl_fd, rows * self.row_bytes, first * self.row_bytes)
        if len(block) != rows * self.row_bytes:
            raise StorageError(
                f"{self._tbl.name}: short read of rows {first + 1}..{first + rows} "
                f"at offset {first * self.row_bytes}"
            )
        self.last_row_reads = self._block_probes[j] + 1
        keys = self._row_keys
        i = bisect_left(keys, key, 0, rows, key=block.__getitem__)
        if i < rows and block[keys[i]] == key:
            return first + i + 1
        return None

    def read_row(self, recno: int) -> tuple[tuple[int, ...], bytes]:
        """Decoded coordinates and raw measure record of a 1-based row."""
        if not 1 <= recno <= self.row_count:
            raise RangeError(f"record number {recno} outside 1..{self.row_count}")
        raw = os.pread(self._tbl_fd, self.row_bytes, (recno - 1) * self.row_bytes)
        if len(raw) != self.row_bytes:
            raise StorageError(f"{self._tbl.name}: short read of row {recno}")
        return decode_key(raw[: self.key_bytes], len(self.cards)), raw[self.key_bytes :]

    def read_measures(self, recno: int) -> bytes:
        """Raw measure record of a 1-based row; the key is not read."""
        if not 1 <= recno <= self.row_count:
            raise RangeError(f"record number {recno} outside 1..{self.row_count}")
        data = os.pread(self._tbl_fd, self.record_width,
                        (recno - 1) * self.row_bytes + self.key_bytes)
        if len(data) != self.record_width:
            raise StorageError(f"{self._tbl.name}: short read of the record of row {recno}")
        return data

    def iter_rows(self):
        """Yield (coordinates, record) in stored (logical) order."""
        blocks = _table_blocks(self._tbl_fd, self._tbl.name, self.row_bytes, self.row_count)
        return _block_cells(blocks, len(self.cards), self.row_bytes)

    def iter_nodes(self):
        """Yield (page number, is_leaf, key count) for every index node."""
        if self.meta is None:
            raise DatasetError("no B-tree index is attached to this table")
        for page_no in range(1, self.meta.node_count + 1):
            page = self._read_page(page_no)
            node_type, count = _NODE_HEADER.unpack_from(page, 0)
            yield page_no, node_type == _LEAF, count
