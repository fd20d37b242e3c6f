"""Header-compressed multidimensional array storage.

The logical array has one cell per coordinate combination; only nonempty
cells are stored.  Two files describe it:

  .arr  fixed-width measure records back to back, one per nonempty cell,
        in ascending logical order; no delimiters, no file header.
  .hdr  the header, which says which cells are nonempty, in one of two
        encodings: a run header or a presence bitmap.

Run header.  Run entries as pairs of unsigned 64-bit little-endian
integers, ascending; entry count = file size / 16.  A run is a maximal
block of zero or more empty cells followed by one or more nonempty
cells.  Its entry stores the logical position of the run's last
nonempty cell and the cumulative number of empty cells seen up to and
including the run's leading gap.  The final entry is always the
terminal boundary (total_cells, total_cells - record_count); it doubles
as the entry of a dense tail run and covers a trailing all-empty
stretch.  Lookups treat a virtual (0, 0) entry as the predecessor of the
first stored one; that virtual entry is never written, and no stored
entry may end at 0.

Presence bitmap.  A 24-byte preamble of three unsigned 64-bit
little-endian words, 0, the magic (the ASCII bytes "BITPAGES") and
total_cells N; then the rank directory, one such word per page of the
body; then the body, ceil(N / 8) bytes in which bit p - 1 (bit
(p - 1) % 8 of byte (p - 1) // 8) is set when cell p is nonempty.  The
bits past cell N in the last byte are zero.  A page is 4,096 body bytes
(32,768 cells; the last page may be shorter), and directory entry g is
the number of set bits in pages 0 through g, so the last entry is
record_count.  A run header can never start with an end of 0, so the
first 16 bytes tell the two encodings apart, and a reader that knows
only run headers rejects a bitmap file.  A file with the earlier magic
"PRESENCE", a bitmap with no directory, is refused with a rebuild
message.

save_header writes the bitmap when its file is strictly smaller, that
is when 24 + 8 * pages + ceil(N / 8) < 16 * entries (fewer than about
N / 128 runs keeps the run header).  An empty cell then costs one bit
instead of a share of a run entry.  The bits are set from the run
header's columns, and only after the bitmap has won; r stored cells
make at most r + 1 entries, so building a sparse relation takes O(r)
memory, not O(N).

Point lookup is three steps: linearize the coordinates, find whether the
position is nonempty, then map it to its physical record, the number of
nonempty cells up to and including it.  That map, locate, is the one the
header answers; there is no inverse, since a record's coordinates are in
its table row.  Over a run header the second and third steps are a
binary search for the first entry whose end covers the position, a
comparison against the run's gap, and p minus the entry's empty count.
Over a bitmap they are one shift and mask into a 512-bit block, one
shift test, and one bit_count taken from the block's cumulative rank.
linearize, header.locate and read_record are the reference steps.

In memory a run header is three parallel int lists (columns) with one
item per entry: the run ends, the empty counts, and the filled counts
(end minus empties, the physical number of the run's last record).  No
per-entry object is kept; iterating a run header yields plain (end,
empties) tuples.  Both encodings answer total_cells, record_count, len()
(the number of run entries), locate and _cells.  Opening a run header
costs one file read, one array('Q') decode, two column slices, one
subtraction pass for the filled counts and two C-level checks (a sort of
the already sorted empty counts, and one map over operator.lt for the
filled counts) that together cover the four validation rules.  Only
after a check fails are the entries scanned again, still in C, to name
the first bad one.  On a shared 2-vCPU host with Python 3.11, a
167,564-entry (2.68 MB) run header opens in about 35 ms.  A bitmap is
held as two lists with one slot per 512-bit block: the block's bits as
a Python int, and the number of nonempty cells up to the end of the
block.  Opening one reads the file, checks the preamble, the size, the
padding bits and that the directory never decreases, fills both lists
with None, and keeps one memoryview of the file's bytes per page, so it
decodes no block.  A page is decoded on the first lookup that touches
it: its 64 block ints are cut in C from its view, its popcount must
equal its directory step, its ranks then its ints go into the lists in
one slice assignment each, so a lookup that finds a block's int also
finds its rank, and its view is dropped.  A page is decoded once, so a
pass over every page takes time linear in their number, and the file's
bytes are freed with the last view.  A page whose count disagrees
raises StorageError naming it at every touch, so one flipped bit fails
at open or at its page's first lookup, never as a wrong answer (the
page count is not a checksum: two flips that cancel in one page go
unseen).  len(), _cells and so iterate_nonempty decode and check every
page first.  On the same host, opening the 131,352 bytes of a
2^20-cell bitmap takes about 0.06 ms, and a page's first lookup adds
about 0.03 ms: an open followed by lookups in every page does all the
decoding, plus one TypeError per page, and only an open that touches
few pages, such as one query's, does little of it.  The directory is
stored rather than counted at open because counting reads every byte:
int.from_bytes and bit_count over the 32 pages of that body take about
0.3 ms.

get_cell runs the three steps in one frame: a function compiled once per
process per (k, header encoding) and bound to the store at open.  It
holds the position kernel's coordinate test (linearizer.position_kernel:
straight-line code for the box's k that range-checks every coordinate
and costs k - 1 multiplications), then the header's locate step without
locate's range test, which the coordinate test has already made, then a
hit's one pread and its short-read check, inline rather than a
files.read_at call, and without the type and range checks read_record
keeps.  A miss reads nothing.  Any input the coordinate test refuses
runs linearize and locate, so coordinates outside the box, or of the
wrong count or type, raise the RangeError that linearize raises.  So
does a bitmap block not yet decoded: its slot holds None, the step's
shift raises TypeError, and locate decodes the page; from then on the
page's lookups stay in the compiled step.  The function holds the
header's columns and a one-slot descriptor that close sets to -1, never
the store, so a closed store is freed as soon as it is dropped.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from bisect import bisect_left
from collections.abc import Callable
from functools import lru_cache
from itertools import accumulate, chain, compress, count, islice, product, repeat
from operator import add, floordiv, le, lt, mod, not_, sub

from .errors import (
    DuplicateKeyError,
    MalformedInputError,
    NotSortedError,
    RangeError,
    StorageError,
)
from .files import open_for_pread, read_at, read_binary, row_blocks, write_file
from .linearizer import _box, _compile, _integer, _prelude, cell_count

_ENTRY_BYTES = 16  # two unsigned 64-bit little-endian words per entry
_BITMAP_START = bytes(8) + b"BITPAGES"  # words 0 and the magic of a bitmap preamble
_UNPAGED_START = bytes(8) + b"PRESENCE"  # the earlier bitmap, which had no rank directory
_PREAMBLE_BYTES = 24  # _BITMAP_START, then total_cells
_BLOCK_BYTES = 64  # 512 bits per in-memory block of a bitmap
_BLOCK_BITS = 8 * _BLOCK_BYTES
_BLOCK_SHIFT = _BLOCK_BITS.bit_length() - 1  # p >> _BLOCK_SHIFT is p // _BLOCK_BITS
_PAGE_BLOCKS = 64  # blocks per page of a bitmap body, each with a rank directory entry
_PAGE_SHIFT = _PAGE_BLOCKS.bit_length() - 1  # b >> _PAGE_SHIFT is the page of block b
_GROUP = struct.Struct(f"{_BLOCK_BYTES}s" * _PAGE_BLOCKS)  # one page per iter_unpack step
_PAGE_BYTES = _GROUP.size
_SWAP = sys.byteorder != "little"
_BYTE_BITS = [bits[::-1] for bits in product((0, 1), repeat=8)]  # bit o of byte v is [v][o]


def _first_false(flags) -> int | None:
    """Index of the first false item of an iterable, or None."""
    return next(compress(count(), map(not_, flags)), None)


def _first_bad_entry(ends, empties, filled):
    """(index, rule) of the first entry that breaks a header rule.

    Called only after the bulk check in Header has failed.  Entry j is
    checked against entry j - 1, and entry 0 against a virtual (0, 0)
    entry.  Each rule is one C-level pass that stops at its first
    failure; of several failures the lowest index wins, and at equal
    indexes the rule listed first.
    """
    n = len(ends)
    found = [
        (_first_false(map(lt, chain((0,), ends), ends)),
         "run ends must be strictly increasing"),
        (_first_false(map(le, chain((0,), empties), empties)),
         "empty counts must be non-decreasing"),
        (_first_false(map(lt, chain((0,), filled), islice(filled, n - 1))),
         "every non-terminal run holds at least one record"),
    ]
    if (filled[-2] if n > 1 else 0) > filled[-1]:
        found.append((n - 1, "every non-terminal run holds at least one record"))
    return min(((j, rule) for j, rule in found if j is not None), key=lambda f: f[0])


class Header:
    """Validated, fully in-memory run table of one compressed array."""

    __slots__ = ("_ends", "_empties", "_filled")

    def __init__(self, ends: list, empties: list, source="header"):
        """Check the header rules and keep the columns, two int lists.

        The rules: there is at least one entry, ends strictly increase,
        empty counts never decrease, and every run except the terminal
        one holds at least one record.
        """
        if not ends:
            raise StorageError(f"{source}: a header holds at least the terminal entry")
        filled = list(map(sub, ends, empties))
        # The empty-count and record checks imply the end check for every
        # non-terminal entry, whose end grows by at least one record plus a
        # non-negative number of empty cells; only the terminal end is compared.
        n = len(ends)
        if not (
            empties[0] >= 0
            and sorted(empties) == empties
            and all(map(lt, chain((0,), filled), islice(filled, n - 1)))
            and ends[-1] > (ends[-2] if n > 1 else 0)
            and filled[-1] >= (filled[-2] if n > 1 else 0)
        ):
            j, rule = _first_bad_entry(ends, empties, filled)
            raise StorageError(
                f"{source}: entry {j} at byte {j * _ENTRY_BYTES} "
                f"({ends[j]}, {empties[j]}): {rule}"
            )
        self._ends = ends
        self._empties = empties
        self._filled = filled

    @property
    def total_cells(self) -> int:
        return self._ends[-1]

    @property
    def record_count(self) -> int:
        return self._filled[-1]

    def __len__(self) -> int:
        return len(self._ends)

    def __iter__(self):
        return zip(self._ends, self._empties)

    # locate after its range test, as the compiled get_cell runs it (see
    # _lookup_factory): p is the position counted from _ORIGIN, a miss
    # returns None and a hit sets before, the number of records ahead of it.
    _ORIGIN = 1
    _COLUMNS = "ends, empties, filled"
    _STEP = """\
j = bisect_left(ends, p)
before = p - empties[j] - 1
if before < (filled[j - 1] if j else 0):
    return None"""

    def _columns(self) -> tuple:
        return self._ends, self._empties, self._filled

    def locate(self, position: int) -> int | None:
        """Physical record number of a logical position, or None if empty."""
        if not 1 <= position <= self._ends[-1]:
            raise RangeError(f"logical position {position} outside 1..{self._ends[-1]}")
        j = bisect_left(self._ends, position)
        record = position - self._empties[j]
        # the run's records follow the previous run's last record
        if record > (self._filled[j - 1] if j else 0):
            return record
        return None

    def _cells(self):
        """The stored cells' positions minus one, ascending, computed in C."""
        firsts = map(add, chain((0,), self._filled), self._empties)
        return chain.from_iterable(map(range, firsts, self._ends))

    def save(self, path) -> None:
        words = array("Q", [0]) * (2 * len(self._ends))
        words[0::2] = array("Q", self._ends)
        words[1::2] = array("Q", self._empties)
        if _SWAP:
            words.byteswap()
        write_file(path, words.tobytes())

    def _presence_bits(self) -> bytearray:
        """The bitmap body of the same cells: bit p - 1 set for each nonempty cell p."""
        bits = bytearray(-(-self._ends[-1] // 8) + 1)  # a spare byte for end >> 3 at the end
        for end, records in zip(self._ends, map(sub, self._filled, chain((0,), self._filled))):
            first = end - records  # the run's records are bits first .. end - 1
            lo, hi = first >> 3, end >> 3
            if lo == hi:
                bits[lo] |= (1 << (end & 7)) - (1 << (first & 7))
            else:  # the first byte's high bits, whole bytes, the last byte's low bits
                bits[lo] |= 256 - (1 << (first & 7))
                bits[lo + 1 : hi] = b"\xff" * (hi - lo - 1)
                bits[hi] |= (1 << (end & 7)) - 1
        del bits[-1]
        return bits

    @classmethod
    def load(cls, path) -> "Header | PresenceBitmap":
        """Read and validate a header file in either encoding."""
        data = read_binary(path, "header")
        if data.startswith(_BITMAP_START):
            return PresenceBitmap._of_file(data, path)
        if data.startswith(_UNPAGED_START):
            raise StorageError(
                f"{path}: presence bitmap without a rank directory, an earlier format; "
                f"rebuild it with `cubestore build --only array`"
            )
        if len(data) % _ENTRY_BYTES:
            raise StorageError(
                f"{path}: size {len(data)} is not a multiple of {_ENTRY_BYTES}"
            )
        words = array("Q")
        words.frombytes(data)
        if _SWAP:
            words.byteswap()
        return cls(words[0::2].tolist(), words[1::2].tolist(), path)


def _blocks(data) -> list[int]:
    """The bits of data as little-endian 512-bit ints (the last may be shorter), in C."""
    view = memoryview(data)
    whole = len(view) - len(view) % _GROUP.size
    tail = (view[i : i + _BLOCK_BYTES] for i in range(whole, len(view), _BLOCK_BYTES))
    groups = chain.from_iterable(_GROUP.iter_unpack(view[:whole]))
    return list(map(int.from_bytes, chain(groups, tail), repeat("little")))


class PresenceBitmap:
    """Validated presence bitmap of one compressed array.

    Answers the same calls as Header: locate, record_count, total_cells,
    _cells, and len(), the number of run entries of the same cells.
    Held as one int per 512-bit block and the number of nonempty cells
    up to the end of each block, both None until the block's page is
    first touched, and a memoryview of each page's bytes until the page
    is decoded (see the module notes).
    """

    __slots__ = ("_blocks", "_ranks", "_directory", "_pages", "_path", "total_cells")

    @classmethod
    def _of_file(cls, data: bytes, path) -> "PresenceBitmap":
        """Check a bitmap file's preamble, size, padding and rank directory; decode no page."""
        if len(data) < _PREAMBLE_BYTES:
            raise StorageError(
                f"{path}: bitmap header ends at byte {len(data)}, "
                f"inside its {_PREAMBLE_BYTES}-byte preamble"
            )
        total = int.from_bytes(data[16:_PREAMBLE_BYTES], "little")
        if total < 1:
            raise StorageError(f"{path}: bitmap total_cells at byte 16 is 0, "
                               "the box holds at least one cell")
        pages, body = _bitmap_shape(total)
        end = _PREAMBLE_BYTES + 8 * pages + body
        if len(data) != end:
            raise StorageError(
                f"{path}: bitmap of {total} cells (byte 16) ends at byte {end}, "
                f"file ends at byte {len(data)}"
            )
        if data[-1] >> (total % 8 or 8):
            raise StorageError(
                f"{path}: padding bits past cell {total} are set in byte {end - 1}"
            )
        directory = list(struct.unpack_from(f"<{pages}Q", data, _PREAMBLE_BYTES))
        g = _first_false(map(le, directory, islice(directory, 1, None)))
        if g is not None:
            raise StorageError(
                f"{path}: rank directory entry {g + 1} at byte {_PREAMBLE_BYTES + 8 * g + 8} "
                f"is {directory[g + 1]}, below entry {g}'s {directory[g]}"
            )
        view = memoryview(data)
        bitmap = cls.__new__(cls)
        bitmap._blocks = [None] * -(-body // _BLOCK_BYTES)
        bitmap._ranks = [None] * len(bitmap._blocks)
        bitmap._directory = directory
        bitmap._pages = [view[i : i + _PAGE_BYTES] for i in range(end - body, end, _PAGE_BYTES)]
        bitmap._path = path
        bitmap.total_cells = total
        return bitmap

    @property
    def record_count(self) -> int:
        return self._directory[-1]

    # as Header's, with p counted from 0, so that p is the cell's bit index
    _ORIGIN = 0
    _COLUMNS = "blocks, ranks"
    _STEP = f"""\
b = p >> {_BLOCK_SHIFT}
rest = blocks[b] >> (p & {_BLOCK_BITS - 1})
if not rest & 1:
    return None
before = ranks[b] - rest.bit_count()"""

    def _columns(self) -> tuple:
        return self._blocks, self._ranks

    def _load(self, block: int) -> int:
        """Decode and check the page that holds block; returns the block's bits.

        The ranks go in before the ints, so a lookup that finds a block's
        int, as the compiled step does, also finds its rank.  Then the
        page's view is dropped.
        """
        g = block >> _PAGE_SHIFT
        page = self._pages[g]
        if page is None:  # decoded since the caller looked
            return self._blocks[block]
        first = g << _PAGE_SHIFT
        bits = _blocks(page)
        before = self._directory[g - 1] if g else 0
        ranks = list(accumulate(map(int.bit_count, bits), initial=before))
        if ranks[-1] != self._directory[g]:
            raise StorageError(
                f"{self._path}: bitmap page {g} at byte "
                f"{_PREAMBLE_BYTES + 8 * len(self._directory) + g * _PAGE_BYTES} holds "
                f"{ranks[-1] - before} nonempty cells, its rank directory entry "
                f"at byte {_PREAMBLE_BYTES + 8 * g} says {self._directory[g] - before}"
            )
        self._ranks[first : first + len(bits)] = ranks[1:]
        self._blocks[first : first + len(bits)] = bits
        self._pages[g] = None
        return bits[block - first]

    def locate(self, position: int) -> int | None:
        """Physical record number of a logical position, or None if empty."""
        if not 1 <= position <= self.total_cells:
            raise RangeError(f"logical position {position} outside 1..{self.total_cells}")
        block, offset = divmod(position - 1, _BLOCK_BITS)
        bits = self._blocks[block]
        if bits is None:
            bits = self._load(block)
        rest = bits >> offset  # this cell and the later ones of its block
        if rest & 1:
            return self._ranks[block] - rest.bit_count() + 1
        return None

    def _body(self) -> bytes:
        """The bits of every block, 64 bytes each (so zeros past total_cells), all checked."""
        for block in range(0, len(self._blocks), _PAGE_BLOCKS):
            if self._blocks[block] is None:
                self._load(block)
        return b"".join(map(int.to_bytes, self._blocks, repeat(_BLOCK_BYTES), repeat("little")))

    def _cells(self):
        """The set bits' indexes (stored positions minus one), ascending, computed in C."""
        return compress(count(), chain.from_iterable(map(_BYTE_BITS.__getitem__, self._body())))

    def __len__(self) -> int:
        """Run-header entries of the same cells: runs an empty cell ends, plus the terminal."""
        bits = int.from_bytes(self._body(), "little")
        return (bits & ~(bits >> 1) & ((1 << (self.total_cells - 1)) - 1)).bit_count() + 1


def _bitmap_shape(total_cells: int) -> tuple[int, int]:
    """(pages, body bytes) of the presence bitmap of a box of total_cells cells."""
    body = -(-total_cells // 8)
    return -(-body // _PAGE_BYTES), body


def save_header(header: Header, path) -> None:
    """Write header's cells as a presence bitmap or a run header, whichever is smaller.

    A tie keeps the run header.  The bits are set from the runs, and only
    once the bitmap has won, so a box too sparse for a bitmap never
    allocates its ceil(total_cells / 8) bytes.  The rank directory is
    counted from the bits.
    """
    sizes = header_bytes(header)
    if sizes["presence bitmap"] < sizes["run header"]:
        bits = header._presence_bits()
        steps = [int.from_bytes(bits[i : i + _PAGE_BYTES], "little").bit_count()
                 for i in range(0, len(bits), _PAGE_BYTES)]
        write_file(path, _BITMAP_START + header.total_cells.to_bytes(8, "little")
                   + struct.pack(f"<{len(steps)}Q", *accumulate(steps)) + bits)
    else:
        header.save(path)


def header_bytes(header) -> dict:
    """File bytes of header's cells in each encoding, by encoding name."""
    pages, body = _bitmap_shape(header.total_cells)
    return {"run header": _ENTRY_BYTES * len(header),
            "presence bitmap": _PREAMBLE_BYTES + 8 * pages + body}


def compress_stream(cells, total_cells: int, record_width: int, out) -> Header:
    """One-pass compression of a strictly ascending (position, record) stream.

    Writes the records to the binary sink and returns the header, without
    ever materializing the empty cells.  Run entries are emitted when a
    gap closes a run; after the stream, a run that does not reach the box
    end gets its entry, and the terminal boundary entry is always written.
    An empty stream yields the single entry (total_cells, total_cells).
    """
    if total_cells < 1:
        raise RangeError("the box holds at least one cell")
    if record_width < 1:
        raise MalformedInputError("records must be at least one byte wide")
    ends = []
    empties = []
    write = out.write
    prev = 0
    stored = 0
    for position, record in cells:
        if not 1 <= position <= total_cells:
            raise RangeError(f"logical position {position} outside 1..{total_cells}")
        if position == prev:
            raise DuplicateKeyError(f"two records share logical position {position}")
        if position < prev:
            raise NotSortedError(f"position {position} after {prev}; stream must ascend")
        if len(record) != record_width:
            raise MalformedInputError(
                f"record at position {position} is {len(record)} bytes, expected {record_width}"
            )
        if prev and position > prev + 1:
            ends.append(prev)
            empties.append(prev - stored)
        write(record)
        stored += 1
        prev = position
    if prev and total_cells > prev:
        ends.append(prev)
        empties.append(prev - stored)
    ends.append(total_cells)
    empties.append(total_cells - stored)
    return Header(ends, empties, "compressed header")


@lru_cache(maxsize=None)
def _lookup_factory(k: int, encoding: type) -> Callable:
    """Compile, once per process, the factory of get_cell for k coordinates over encoding.

    encoding is Header or PresenceBitmap (see the module notes).  The
    factory takes (cards, strides, offset, columns, locate, width, name,
    fd), with offset set so that p counts from encoding._ORIGIN, and
    returns get_cell and a function that sets its descriptor to -1.
    """
    step = encoding._STEP.replace("\n", "\n    ")
    bind, test = _prelude(k, f"p = {{position}} - offset\nif type(p) is int:\n    {step}")
    source = f"""\
def factory(cards, strides, offset, columns, locate, width, name, fd):
{bind}\
    {encoding._COLUMNS}, = columns

    def get_cell(indices):
        before = -1
{test}\
        if before < 0:
            record = locate(linearize(indices, cards))
            if record is None:
                return None
            before = record - 1
        data = os.pread(fd, width, before * width)
        if len(data) != width:
            raise StorageError(f"{{name}}: short read at record {{before + 1}}")
        return data

    def forget_fd():
        nonlocal fd
        fd = -1

    return get_cell, forget_fd
"""
    return _compile(source, f"get_cell k={k} {encoding.__name__}", os=os,
                    bisect_left=bisect_left, StorageError=StorageError)


class ArrayStore:
    """Read handle over a compressed array file plus its cached header.

    The header is loaded and validated up front; record reads go through
    pread, so a handle can serve interleaved lookups without seek state.
    get_cell(indices), the measure record at the coordinates or None for
    an empty cell, is the compiled lookup of the module notes.
    """

    def __init__(self, arr_file, header: "Header | PresenceBitmap", cards,
                 record_width: int):
        self._file = arr_file
        self._fd = arr_file.fileno()
        self.header = header
        self.cards = tuple(cards)
        self.record_width = record_width
        total = cell_count(self.cards)
        if header.total_cells != total:
            raise StorageError(
                f"{arr_file.name}: header covers {header.total_cells} cells, box has {total}"
            )
        size = os.fstat(self._fd).st_size
        if size != header.record_count * record_width:
            raise StorageError(
                f"{arr_file.name}: array file is {size} bytes, header expects "
                f"{header.record_count * record_width}"
            )
        cards, strides, offset = _box(self.cards)
        factory = _lookup_factory(len(cards), type(header))
        self.get_cell, self._forget_fd = factory(
            cards, strides, offset + 1 - header._ORIGIN, header._columns(), header.locate,
            record_width, arr_file.name, self._fd)

    @classmethod
    def open(cls, arr_path, hdr_path, cards, record_width: int) -> "ArrayStore":
        header = Header.load(hdr_path)
        f = open_for_pread(arr_path)
        try:
            return cls(f, header, cards, record_width)
        except Exception:
            f.close()
            raise

    @property
    def record_count(self) -> int:
        return self.header.record_count

    def close(self) -> None:
        self._fd = -1  # a later read raises EBADF, not a read of a reused descriptor
        self._forget_fd()
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def read_record(self, record: int) -> bytes:
        """Raw measure record at a 1-based physical position."""
        if type(record) is not int:
            record = _integer(record, "record number")
        if not 1 <= record <= self.header.record_count:
            raise RangeError(f"record number {record} outside 1..{self.header.record_count}")
        w = self.record_width
        return read_at(self._fd, self._file.name, w, (record - 1) * w)

    def iterate_nonempty(self):
        """Yield (coordinates, record) for every stored cell in logical order.

        The records are read in blocks of up to 2048, one pread each, and
        each block's coordinates are delinearized column by column in C.
        """
        w = self.record_width
        blocks = row_blocks(self._fd, self._file.name, w, self.header.record_count)
        cells = self.header._cells()
        for block in blocks:
            z = list(islice(cells, len(block) // w))
            columns = []
            for c in self.cards[:-1]:
                columns.append(map(add, map(mod, z, repeat(c)), repeat(1)))
                z = list(map(floordiv, z, repeat(c)))
            columns.append(map(add, z, repeat(1)))
            yield from zip(zip(*columns), (block[i : i + w] for i in range(0, len(block), w)))
