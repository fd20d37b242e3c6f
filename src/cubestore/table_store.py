"""Sorted fixed-width table file with a bulk-loaded disk B+-tree index.

Table file (.tbl): r fixed-width rows, no file header.  A row is the
encoded key followed by the measure record.  Each key coordinate is a
4-byte big-endian unsigned integer and the coordinates are stored most
significant dimension first (i_k, ..., i_1), so comparing the raw key
bytes equals comparing logical positions and the file is sorted both
ways at once.

Index file (.btx), version 5: a B+-tree whose leaf level is the table
itself.  The table splits into blocks of B = max(2, page size // row
bytes) rows, block j (1-based) starting at row (j - 1) * B + 1, and the
index stores one separator per block instead of a copy of every key.
A 48-byte metadata header (magic "CBTX", version, page size, minimal
degree, key width, root, internal node count, entry count, height; all
little-endian) starts the file, and node page p (1-based) follows at
byte 48 + (p - 1) * page size: an 8-byte header ("<BxHxxxx": type,
separator count), the separators, then zero padding.  Nodes are written
level by level from the bottom, so a level's children are, in order,
the nodes of the level below, or the blocks; no child number is stored.
Each separator is the table key, 4 bytes per field, that starts the
block or subtree to its right.  The minimal degree t = (page size - 8)
// (2 * key width), so 2t children fit a page, and every internal node
except the root has t to 2t children.  A table of one block has no
internal node: its root is block 1, its height 0 and its index, like
an empty table's, the header padded with zeros to one page.  Blocks
hold at least two rows, so there are at most (r + 1) / 2 of them and a
lookup still visits at most ceil(log_t((r + 1) / 2)) + 1 nodes, its
block included.

One writer, _index_pages, yields every piece of an index from the leaf
blocks' fences; the shape follows from the block count and t alone.
Build streams the table's block first keys through it.  Open reads the
index whole, keeping no descriptor on it, and checks the metadata's
magic, version, key width and row count, and its shape and the file
size against that shape.  It reads each separator where the shape puts
it and assembles each block's fence, the key the block must start
with, from the root down: the last separator on its left, or for
the leftmost block the table's first key, which open reads.  The fences
must strictly ascend, and the file must be what _index_pages writes over
them; a difference raises StorageError naming the byte and its page, 0
for the header.  The separators _index_pages would write are the ones
open just read, so _framed compares only the rest, node by node: the
metadata header, each node's header and the zeros after its separators
(after the metadata header when there is no node).  Only when one of
these differs does open rebuild the whole file, to name the first byte.
So open checks every byte but the separators.  A lookup bisects the
fences once, then reads and searches one block, the step the binary
search ends with too; a block that does not start with its fence raises
StorageError naming the index and the block.  That catches a lowered
separator and one raised past the next fence; a separator raised less
can still route a key one block early, which only a checksum can catch.

Both lookups first encode the key with the box's key kernel
(linearizer.key_kernel), compiled straight-line code for the box's k
that range-checks every coordinate and packs them last dimension first
into 4-byte fields.  Coordinates outside the box, of the wrong count or
not ints raise RangeError with linearize's message, as
ArrayStore.get_cell does, so the two representations agree on them
too.  write_table packs its rows' keys through the same kernel;
encode_key stays the reference.

A TableStore always reads its index.  The plain binary search reads
nothing of it, but cuts the table into the index's blocks of B rows,
the leaf level, and bisects the blocks' first keys, reading each key
it compares with one key-sized pread, _read_key; then it reads the one
block that can hold the key and bisects its rows in memory.  Both
searches run inside C-level bisect calls, which call _read_key, a
partial of os.pread, with no Python frame.  The comparisons stay about
log2 r, the q_plain model's count, while the file reads fall to about
log2(r / B) + 1.  A key probe is not length-checked: a probe cut short
by a truncated file compares low, which only steers the search to a
later block, and that block's read is checked.  The binary search
holds no table key from open.

A hit on either path keeps (record number, record), sliced from the
block it searched, as one tuple, until the next hit or close; a miss
leaves it.  read_measures of that number answers from it with no read.
The pair carries its own number, so a store shared between threads at
worst reads again, never another row's record, and the record stays the
one the lookup found even if the table file is rewritten in between.
"""

from __future__ import annotations

import math
import os
import struct
from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from itertools import chain, islice
from operator import lt
from typing import NamedTuple

from .errors import (
    DuplicateKeyError,
    MalformedInputError,
    NotSortedError,
    ParameterError,
    RangeError,
    StorageError,
)
from .files import open_for_pread, read_at, read_binary, row_blocks, writing
from .linearizer import _integer, key_kernel

KEY_FIELD_WIDTH = 4  # bytes per dictionary-encoded key field in the table

DEFAULT_PAGE_SIZE = 4096
MAX_PAGE_SIZE = 65536  # bounds a block read and the key slices made at open
# No longer read: perfbench imports the name to report whether the variable is set.
PAGE_SIZE_ENV = "CUBESTORE_PAGE_SIZE"

_MAGIC = b"CBTX"
_VERSION = 5
_META = struct.Struct("<4sHHIIIQQQI")  # the file's first 48 bytes
_NODE_HEADER = struct.Struct("<BxHxxxx")  # type, separator count
_INTERNAL = 1

@lru_cache(maxsize=None)
def _key_packer(k: int) -> struct.Struct:
    return struct.Struct(f">{k}I")


def encode_key(indices) -> bytes:
    """Pack coordinates into comparable key bytes, last dimension first."""
    return _key_packer(len(indices)).pack(*reversed(indices))


def decode_key(raw: bytes, k: int) -> tuple[int, ...]:
    return tuple(reversed(_key_packer(k).unpack(raw)))


def resolve_page_size(page_size: int) -> int:
    """The build's page size, checked: one outside 64..MAX_PAGE_SIZE raises."""
    if page_size < 64:
        raise ParameterError(f"page size {page_size} is too small")
    if page_size > MAX_PAGE_SIZE:
        raise ParameterError(f"page size {page_size} is too large; at most {MAX_PAGE_SIZE}")
    return page_size


def min_degree(page_size: int, key_bytes: int) -> int:
    """Minimal degree t such that an internal node of 2t children fits in one page."""
    t = (page_size - _NODE_HEADER.size) // (2 * key_bytes)
    if t < 2:
        raise ParameterError(
            f"page size {page_size} cannot hold a B-tree of {key_bytes}-byte keys"
        )
    return t


def block_rows(page_size: int, row_bytes: int) -> int:
    """Rows B in a block of about one page; at least 2, so r rows make at most (r + 1) / 2."""
    return max(2, page_size // row_bytes)


def _row_slices(step: int, rows: int, start: int, stop: int) -> list[slice]:
    """Slices of bytes start..stop of each of `rows` rows of step bytes."""
    end = rows * step
    return list(map(slice, range(start, end + start, step), range(stop, end + stop, step)))


def worst_case_page_reads(r: int, t: int) -> int:
    """Upper bound on the nodes, its block included, one lookup visits in an r-row index."""
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
    height: int  # internal levels, the edges from root to block; 0 for a lone block


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


def _balanced_sizes(n: int, cap: int, minimum: int) -> list[int]:
    """Sizes of the chunks that split n items into runs of at most cap, rebalancing the tail.

    All chunks except a lone one hold at least `minimum` items; the last
    two are split evenly when the tail would underflow.
    """
    sizes = [cap] * (n // cap) + [n % cap] * (n % cap > 0)
    if len(sizes) > 1 and sizes[-1] < minimum:
        both = sizes[-2] + sizes[-1]
        sizes[-2:] = [both // 2, both - both // 2]
    return sizes


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


def iter_table_cells(tbl_path, k: int, record_width: int):
    """Stream (coordinates, record) from a sorted table file, in blocks of up to 2048 rows."""
    row = k * KEY_FIELD_WIDTH + record_width
    with open_for_pread(tbl_path) as f:
        yield from _block_cells(row_blocks(f.fileno(), tbl_path, row, _table_rows(f, row)),
                                k, row)


def _index_shape(page_size: int, key_bytes: int, rows: int, blocks: int):
    """Metadata and each level's node sizes, bottom level first, of an index over `blocks`.

    Pages are numbered level by level from the bottom, so the root is the
    last; one block, or none, is its own root.  A page too small for t = 2
    raises ParameterError.
    """
    t = min_degree(page_size, key_bytes)
    levels, n = [], blocks
    while n > 1:
        levels.append(_balanced_sizes(n, 2 * t, t))
        n = len(levels[-1])
    nodes = sum(map(len, levels))
    return BTreeMeta(page_size, t, key_bytes, nodes if levels else blocks, nodes, rows,
                     len(levels)), levels


def _index_pages(meta: BTreeMeta, levels, fences):
    """Every piece of the index over leaf blocks that start with `fences`, in file order.

    The metadata header, then each level's nodes from the bottom, a page
    each: the children's fences but the first as separators.  Fences are
    consumed as the bottom level needs them; each level above holds one
    first key per node below.  With no node, the header fills one page.
    """
    size = meta.page_size
    yield _META.pack(_MAGIC, _VERSION, 0, *meta).ljust(0 if levels else size, b"\0")
    keys = iter(fences)
    for sizes in levels:
        firsts = []
        for n in sizes:
            firsts.append(next(keys))
            yield b"".join((_NODE_HEADER.pack(_INTERNAL, n - 1),
                            *islice(keys, n - 1))).ljust(size, b"\0")
        keys = iter(firsts)


def _framed(data: bytes, meta: BTreeMeta, levels) -> bool:
    """Whether every byte of the index data outside its separators is what _index_pages writes.

    The metadata header, each node's header, and the zeros after each
    node's separators, or after the header when there is no node.  The
    separators _index_pages writes are the ones open read from data, so
    this holds exactly when data is what it writes over those fences.
    """
    if not data.startswith(_META.pack(_MAGIC, _VERSION, 0, *meta)):
        return False
    if not levels:
        return data.count(0, _META.size) == len(data) - _META.size
    page, at = meta.page_size, _META.size
    for n in chain.from_iterable(levels):
        pad = at + _NODE_HEADER.size + (n - 1) * meta.key_bytes
        at += page
        if (not data.startswith(_NODE_HEADER.pack(_INTERNAL, n - 1), at - page)
                or data.count(0, pad, at) != at - pad):
            return False
    return True


def build_index_from_table(tbl_path, btx_path, k: int, record_width: int,
                           page_size: int = DEFAULT_PAGE_SIZE) -> BTreeMeta:
    """Index a sorted table file whose blocks of B rows are the leaf level.

    One read_at per block reads its first key, and _index_pages writes
    the bottom level's nodes as those keys arrive, so memory stays flat.
    """
    page_size = resolve_page_size(page_size)
    key_bytes = k * KEY_FIELD_WIDTH
    row = key_bytes + record_width
    b = block_rows(page_size, row)
    with open_for_pread(tbl_path) as tbl:
        rows = _table_rows(tbl, row)
        meta, levels = _index_shape(page_size, key_bytes, rows, -(-rows // b))
        first_keys = (read_at(tbl.fileno(), tbl_path, key_bytes, off)
                      for off in range(0, rows * row, b * row))
        with writing(btx_path) as out:
            out.writelines(_index_pages(meta, levels, first_keys))
    return meta


def build_table(cells, tbl_path, btx_path, cards, record_width: int,
                page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Write the sorted row file and its index in one go; returns the row count."""
    with writing(tbl_path) as f:
        count = write_table(cells, f, cards, record_width)
    build_index_from_table(tbl_path, btx_path, len(cards), record_width, page_size)
    return count


class TableStore:
    """Read handle over a sorted table file and its B-tree index, which it requires.

    It holds one descriptor, on the table file, and the index's leaf
    fences from open, so btree_lookup bisects them and reads only its
    block from the table.  Every lookup visits the same height + 1 nodes,
    the block as the leaf, so last_page_reads is set to that at open (0
    for an empty table).  binary_search_lookup reads from the table file
    only: one first key per block it compares, then one block of up to B
    rows.  It keeps the block bisect picked, one attribute that is not
    thread-safe, and last_row_reads derives its .tbl reads from it: at
    most ceil(log2(blocks)) + 1, which is at most floor(log2 r) + 1.  The
    record a hit keeps for read_measures is described in the module notes.
    """

    def __init__(self, tbl_file, cards, record_width: int, btx_path):
        self._tbl = tbl_file
        self._tbl_fd = tbl_file.fileno()
        self.cards = tuple(cards)
        self._key = key_kernel(self.cards, _key_packer(len(self.cards)).pack)
        self.record_width = record_width
        self.key_bytes = len(self.cards) * KEY_FIELD_WIDTH
        self.row_bytes = self.key_bytes + record_width
        self.row_count = _table_rows(tbl_file, self.row_bytes)
        self._read_key = partial(os.pread, self._tbl_fd, self.key_bytes)
        self._btx_name = btx_path
        # the key each leaf block must start with, block 1 first
        self.meta, self._fences = self._load_fences(btx_path, read_binary(btx_path, "index"))
        # rows per block of the index's leaf level, the blocks both searches read
        self.leaf_rows = block_rows(self.meta.page_size, self.row_bytes)
        block_bytes = self.leaf_rows * self.row_bytes
        # where blocks 2, 3, ... start: one per fence but the first
        self._block_starts = range(block_bytes, len(self._fences) * block_bytes, block_bytes)
        # a block holds at most B rows and no more than the table's
        rows = min(self.leaf_rows, self.row_count)
        self._row_keys = _row_slices(self.row_bytes, rows, 0, self.key_bytes)
        # every lookup visits the same nodes, its block included; an empty table none
        self.last_page_reads = self.meta.height + 1 if self.row_count else 0
        self._picked = None  # the block the last binary_search_lookup picked
        self._kept = (None, b"")  # (record number, record) of the last hit; None is no row

    @classmethod
    def open(cls, tbl_path, cards, record_width: int, btx_path) -> "TableStore":
        tbl = open_for_pread(tbl_path)
        try:
            return cls(tbl, cards, record_width, btx_path)
        except Exception:
            tbl.close()
            raise

    def close(self) -> None:
        self._kept = (None, b"")
        self._tbl_fd = -1  # later reads raise EBADF, not reads of a reused descriptor
        self._read_key = partial(os.pread, -1, self.key_bytes)
        self._tbl.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _load_fences(self, name, data: bytes) -> tuple[BTreeMeta, list[bytes]]:
        """The metadata and leaf fences of the index file name, whose bytes are data.

        data must be what build writes over the fences: each level's are,
        node by node, the node's fence and then its separators.
        """
        size = len(data)
        if size < _META.size:
            raise StorageError(f"{name}: size {size} is less than the {_META.size}-byte header")
        magic, version, _, *fields = _META.unpack_from(data)
        stored = BTreeMeta(*fields)
        if magic != _MAGIC:
            raise StorageError(f"{name}: bad index magic {magic!r}")
        if version != _VERSION:
            raise StorageError(
                f"{name}: unsupported index version {version}, expected {_VERSION}; "
                f"rebuild it with `cubestore build --only table`"
            )
        if stored.key_bytes != self.key_bytes:
            raise StorageError(
                f"{name}: index keys are {stored.key_bytes} bytes, not {KEY_FIELD_WIDTH} bytes "
                f"for each of the table's {len(self.cards)} key fields"
            )
        if stored.entry_count != self.row_count:
            raise StorageError(
                f"{name}: index covers {stored.entry_count} rows, table holds {self.row_count}"
            )
        blocks = -(-self.row_count // block_rows(stored.page_size, self.row_bytes))
        try:
            meta, levels = _index_shape(stored.page_size, self.key_bytes, self.row_count, blocks)
        except ParameterError:
            meta = None
        if stored != meta:
            raise StorageError(
                f"{name}: minimal degree {stored.t}, root {stored.root}, "
                f"{stored.node_count} nodes and height {stored.height} are not the shape of "
                f"an index over {blocks} blocks in {stored.page_size}-byte pages")
        if size != max(_META.size + meta.node_count * meta.page_size, meta.page_size):
            raise StorageError(f"{name}: size {size} is not a {_META.size}-byte header and "
                               f"{meta.node_count} pages of {meta.page_size} bytes, or one page")
        fences, end = [self._read_key(0)], meta.node_count
        for sizes in reversed(levels):
            start, below = end - len(sizes), []
            for node, fence, n in zip(range(start, end), fences, sizes):
                below.append(fence)
                below += struct.unpack_from(f"{meta.key_bytes}s" * (n - 1), data, _META.size
                                            + node * meta.page_size + _NODE_HEADER.size)
            fences, end = below, start
        if not all(map(lt, fences, islice(fences, 1, None))):
            i = next(i for i in range(1, blocks) if fences[i] <= fences[i - 1])
            raise StorageError(f"{name}: block {i + 1} has fence {fences[i].hex()}, "
                               f"not above the fence {fences[i - 1].hex()} before it")
        if not _framed(data, meta, levels):  # only damage pays for the rebuild naming it
            built = b"".join(_index_pages(meta, levels, fences))
            at = next(i for i in range(size) if data[i] != built[i])
            page = (at - _META.size) // meta.page_size + 1 if meta.node_count else 0
            raise StorageError(f"{name}: byte {at}, in page {page}, is not what build writes there")
        return meta, fences

    def btree_lookup(self, indices) -> int | None:
        """Record number of a key, or None when no row has it.

        bisect_right picks the last leaf block whose fence is not above
        the key, or the first for a key below them all; _search_block
        reads it, checks that it starts with its fence and searches it.
        Coordinates outside the box raise RangeError.
        """
        key = self._key(indices)
        if not self.row_count:
            return None
        i = bisect_right(self._fences, key, 1) - 1
        return self._search_block(i, key, self._fences[i])

    def binary_search_lookup(self, indices) -> int | None:
        """Record number of a key by bisecting the row file directly.

        bisect_right picks the last block whose first key is not above
        the key; _search_block reads and searches it.  Coordinates
        outside the box raise RangeError.
        """
        key = self._key(indices)
        if not self.row_count:
            return None
        self._picked = j = bisect_right(self._block_starts, key, key=self._read_key)
        return self._search_block(j, key)

    @property
    def last_row_reads(self) -> int:
        """.tbl reads of the last binary_search_lookup; 0 before one.

        bisect_right's path is fixed by the block it returned, so this
        replays it, counting the key probes, and adds the block read.
        """
        j = self._picked
        if j is None:
            return 0
        lo, hi, reads = 0, len(self._block_starts), 1
        while lo < hi:
            mid = (lo + hi) // 2
            reads += 1
            if j <= mid:
                hi = mid
            else:
                lo = mid + 1
        return reads

    def _search_block(self, j: int, key: bytes, left: bytes = b""):
        """Record number of key in block j (0-based) of the leaf level, or None.

        One length-checked pread reads the block for bisect_left; every
        lookup makes it, so it is inline rather than a files.read_at
        call.  A B-tree lookup passes left, the block's fence: the block
        must start with it.
        """
        row = self.row_bytes
        size = self.leaf_rows
        first = j * size
        rows = min(size, self.row_count - first)
        block = os.pread(self._tbl_fd, rows * row, first * row)
        if len(block) != rows * row:
            raise StorageError(
                f"{self._tbl.name}: short read of rows {first + 1}..{first + rows} "
                f"at offset {first * row}"
            )
        if not block.startswith(left):
            raise StorageError(f"{self._btx_name}: block {j + 1} does not start with key "
                               f"{left.hex()}, where the index routes to it")
        keys = self._row_keys
        i = bisect_left(keys, key, 0, rows, key=block.__getitem__)
        if i < rows and block[keys[i]] == key:
            recno = first + i + 1
            self._kept = recno, block[keys[i].stop:(i + 1) * row]  # the record follows its key
            return recno
        return None

    def _read(self, recno, start: int, size: int) -> bytes:
        """One read_at of size bytes from byte start of a 1-based row."""
        if type(recno) is not int:
            recno = _integer(recno, "record number")
        if not 1 <= recno <= self.row_count:
            raise RangeError(f"record number {recno} outside 1..{self.row_count}")
        return read_at(self._tbl_fd, self._tbl.name, size, (recno - 1) * self.row_bytes + start)

    def read_row(self, recno: int) -> tuple[tuple[int, ...], bytes]:
        """Decoded coordinates and raw measure record of a 1-based row."""
        raw = self._read(recno, 0, self.row_bytes)
        return decode_key(raw[: self.key_bytes], len(self.cards)), raw[self.key_bytes :]

    def read_measures(self, recno: int) -> bytes:
        """Raw measure record of a 1-based row; the last hit's costs no read."""
        kept, record = self._kept
        if type(recno) is int and recno == kept:
            return record
        return self._read(recno, self.key_bytes, self.record_width)

    def iter_rows(self):
        """Yield (coordinates, record) in stored (logical) order."""
        blocks = row_blocks(self._tbl_fd, self._tbl.name, self.row_bytes, self.row_count)
        return _block_cells(blocks, len(self.cards), self.row_bytes)
