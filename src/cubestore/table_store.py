"""Sorted fixed-width table file with a bulk-loaded disk B-tree index.

Table file (.tbl): r fixed-width rows, no file header.  A row is the
encoded key followed by the measure record.  Each key coordinate is a
4-byte big-endian unsigned integer and the coordinates are stored most
significant dimension first (i_k, ..., i_1), so comparing the raw key
bytes equals comparing logical positions and the file is sorted both
ways at once.

Index file (.btx): fixed-size pages.  Page 0 is metadata (magic "CBTX",
page size, minimal degree, key width, root page, node count, entry
count, height; all little-endian).  Pages 1..m hold nodes: an 8-byte
node header (type byte, pad, 16-bit key count, pad), then for leaves
key/record-number entries and for internal nodes the separator keys
followed by the child page numbers.  Leaves carry (key, record number);
internal nodes carry separators only, each separator being the smallest
key of the child subtree to its right.  The tree is bulk-loaded bottom
up from the sorted stream; every node except the root keeps between
t - 1 and 2t - 1 keys, where the minimal degree t is derived from the
page size.  A lookup therefore visits at most ceil(log_t((r + 1) / 2)) + 1
nodes.  At open time the metadata page and every internal node are read,
checked and held in memory (about one separator per leaf), so a lookup
bisects the levels above the leaves in memory and reads one leaf page,
which bisect_left searches through precomputed key slices.

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
from itertools import count
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
from .linearizer import cell_count

KEY_FIELD_WIDTH = 4  # bytes per dictionary-encoded key field
RECNO_WIDTH = 8
CHILD_WIDTH = 8

DEFAULT_PAGE_SIZE = 4096
PAGE_SIZE_ENV = "CUBESTORE_PAGE_SIZE"

_MAGIC = b"CBTX"
_VERSION = 1
_META = struct.Struct("<4sHHIIIQQQI")
_NODE_HEADER = struct.Struct("<BxHxxxx")
_LEAF = 0
_INTERNAL = 1
_PLUS_ONE = bytes(range(1, 256)) + b"\xff"

_KEY_PACKERS: dict[int, struct.Struct] = {}


def _key_packer(k: int) -> struct.Struct:
    packer = _KEY_PACKERS.get(k)
    if packer is None:
        packer = _KEY_PACKERS[k] = struct.Struct(f">{k}I")
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
    return page_size


def min_degree(page_size: int, key_bytes: int) -> int:
    """Minimal degree t such that any node of 2t - 1 keys fits in one page."""
    t = (page_size - _NODE_HEADER.size) // (2 * (key_bytes + RECNO_WIDTH))
    if t < 2:
        raise ParameterError(
            f"page size {page_size} cannot hold a B-tree of {key_bytes}-byte keys"
        )
    return t


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
    count.  Equal keys are duplicates, descending keys are a sort error.
    """
    k = len(cards)
    pack = _key_packer(k).pack
    prev = b""
    count = 0
    for indices, record in cells:
        if len(indices) != k:
            raise RangeError(f"expected {k} coordinates, got {len(indices)}")
        for pos, (i, c) in enumerate(zip(indices, cards)):
            if not 1 <= i <= c:
                raise RangeError(f"coordinate {pos + 1} is {i}, outside 1..{c}")
        key = pack(*reversed(indices))
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


def build_index(entries, out_path, key_bytes: int, page_size: int | None = None) -> BTreeMeta:
    """Bulk-load a B-tree over a sorted (key bytes, record number) stream.

    The stream is read once.  Each leaf is written as soon as the leaf
    after it fills; one full leaf is held back so that the last one or
    two leaves go through _balanced_chunks together and come out as if
    the whole stream had.  Memory holds those two leaves and one (first
    key, page number) pair per leaf, the bottom of the internal levels,
    which _balanced_chunks splits as before.  Pages are numbered in
    write order (leaves, then each internal level); the metadata page 0
    is written last.
    """
    page_size = resolve_page_size(page_size)
    t = min_degree(page_size, key_bytes)
    cap = 2 * t - 1

    def leaf_page(chunk) -> bytes:
        buf = bytearray(page_size)
        _NODE_HEADER.pack_into(buf, 0, _LEAF, len(chunk))
        off = _NODE_HEADER.size
        for key, recno in chunk:
            buf[off : off + key_bytes] = key
            struct.pack_into("<Q", buf, off + key_bytes, recno)
            off += key_bytes + RECNO_WIDTH
        return bytes(buf)

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
        held: list = []  # a full leaf, written once the next one fills
        chunk: list = []
        for entry in entries:
            chunk.append(entry)
            if len(chunk) == cap:
                if held:
                    f.write(leaf_page(held))
                    level.append((held[0][0], len(level) + 1))
                held, chunk = chunk, []
        tail = held + chunk
        entry_count = len(level) * cap + len(tail)
        if tail:
            for leaf in _balanced_chunks(tail, cap, t - 1):
                f.write(leaf_page(leaf))
                level.append((leaf[0][0], len(level) + 1))
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


def _iter_table_blocks(tbl_path, row: int):
    """Stream a table file of row-byte rows as blocks of up to 2048 whole rows."""
    try:
        f = open(tbl_path, "rb")
    except OSError as exc:
        raise StorageError(f"cannot open {tbl_path}: {exc}") from None
    with f:
        size = os.fstat(f.fileno()).st_size
        if size % row:
            raise StorageError(
                f"{tbl_path}: size {size} is not a multiple of the {row}-byte row"
            )
        yield from _table_blocks(f.fileno(), tbl_path, row, size // row)


def iter_table_cells(tbl_path, k: int, record_width: int):
    """Stream (coordinates, record) from a sorted table file."""
    row = k * KEY_FIELD_WIDTH + record_width
    return _block_cells(_iter_table_blocks(tbl_path, row), k, row)


def build_index_from_table(tbl_path, btx_path, k: int, record_width: int,
                           page_size: int | None = None) -> BTreeMeta:
    """Index an existing sorted table file."""
    key_bytes = k * KEY_FIELD_WIDTH
    row = key_bytes + record_width
    keys = (block[off : off + key_bytes]
            for block in _iter_table_blocks(tbl_path, row)
            for off in range(0, len(block), row))
    return build_index(zip(keys, count(1)), btx_path, key_bytes, page_size)


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
        self.record_width = record_width
        self.key_bytes = len(self.cards) * KEY_FIELD_WIDTH
        self.row_bytes = self.key_bytes + record_width
        size = os.fstat(self._tbl_fd).st_size
        if size % self.row_bytes:
            raise StorageError(
                f"table size {size} is not a multiple of the {self.row_bytes}-byte row"
            )
        self.row_count = size // self.row_bytes
        # binary_search_lookup: blocks of B rows, about one default page each
        self._block_rows = max(2, DEFAULT_PAGE_SIZE // self.row_bytes)
        block_bytes = self._block_rows * self.row_bytes
        blocks = -(-self.row_count // self._block_rows)
        self._block_starts = range(block_bytes, blocks * block_bytes, block_bytes)
        self._block_probes = _bisect_probes(len(self._block_starts))
        self._read_key = partial(os.pread, self._tbl_fd, self.key_bytes)
        self._row_keys = _key_slices(0, self.row_bytes, self._block_rows, self.key_bytes)
        self._btx = btx_file
        self._btx_fd = btx_file.fileno() if btx_file else None
        self.meta: BTreeMeta | None = None
        # internal page number -> (separator keys, child page numbers)
        self._internal: dict[int, tuple[list[bytes], list[int]]] = {}
        self._leaf_keys: list[slice] = []
        if btx_file is not None:
            self.meta = self._read_meta()
            self._load_internal_nodes()
            self._leaf_keys = _key_slices(_NODE_HEADER.size, self.key_bytes + RECNO_WIDTH,
                                          2 * self.meta.t - 1, self.key_bytes)
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
            raise StorageError(f"{name}: unsupported index version {version}")
        if key_bytes != self.key_bytes:
            raise StorageError(
                f"{name}: index keys are {key_bytes} bytes, table keys are {self.key_bytes}"
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
        width = self.key_bytes
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

    def _read_row(self, recno: int) -> bytes:
        data = os.pread(self._tbl_fd, self.row_bytes, (recno - 1) * self.row_bytes)
        if len(data) != self.row_bytes:
            raise StorageError(f"{self._tbl.name}: short read of row {recno}")
        return data

    def btree_lookup(self, indices) -> int | None:
        """Record number of a key, or None when no row has it."""
        meta = self.meta
        if meta is None:
            raise DatasetError("no B-tree index is attached to this table")
        key = encode_key(indices)
        page_no = meta.root
        if not page_no:
            self.last_page_reads = 0
            return None
        internal = self._internal
        for _ in range(meta.height):
            separators, children = internal[page_no]
            page_no = children[bisect_right(separators, key)]
        page = self._read_page(page_no)
        node_type, count = _NODE_HEADER.unpack_from(page, 0)
        if node_type != _LEAF or count > 2 * meta.t - 1:
            raise StorageError(f"{self._btx.name}: page {page_no} is not a leaf")
        self.last_page_reads = meta.height + 1
        keys = self._leaf_keys
        i = bisect_left(keys, key, 0, count, key=page.__getitem__)
        if i < count and page[keys[i]] == key:
            return struct.unpack_from("<Q", page, keys[i].stop)[0]
        return None

    def binary_search_lookup(self, indices) -> int | None:
        """Record number of a key by bisecting the row file directly.

        bisect_right picks the last block whose first key is not above
        the key; one length-checked pread reads it for bisect_left.
        """
        key = encode_key(indices)
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
        raw = self._read_row(recno)
        return decode_key(raw[: self.key_bytes], len(self.cards)), raw[self.key_bytes :]

    def read_measures(self, recno: int) -> bytes:
        """Raw measure record of a 1-based row (no key decode)."""
        if not 1 <= recno <= self.row_count:
            raise RangeError(f"record number {recno} outside 1..{self.row_count}")
        return self._read_row(recno)[self.key_bytes :]

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
