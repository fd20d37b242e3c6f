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
little-endian words, 0, the magic (the ASCII bytes "PRESENCE") and
total_cells N, then ceil(N / 8) bytes in which bit p - 1 (bit (p - 1) % 8
of byte (p - 1) // 8) is set when cell p is nonempty.  The bits past
cell N in the last byte are zero.  A run header can never start with an
end of 0, so the first 16 bytes tell the two encodings apart, and a
reader that knows only run headers rejects a bitmap file.

save_header writes the bitmap when it is strictly smaller, that is when
24 + ceil(N / 8) < 16 * entries (fewer than about N / 128 runs keeps the
run header).  An empty cell then costs one bit instead of a share of a
run entry.  The bits are set from the run header's columns, and only
after the bitmap has won; r stored cells make at most r + 1 entries, so
building a sparse relation takes O(r) memory, not O(N).

Point lookup is three steps: linearize the coordinates, find whether the
position is nonempty, then map it to its physical record, the number of
nonempty cells up to and including it.  Over a run header the second and
third steps are a binary search for the first entry whose end covers the
position, a comparison against the run's gap, and p minus the entry's
empty count.  Over a bitmap they are one shift and mask into a 512-bit
block, one shift test, and one bit_count taken from the block's
cumulative rank.  linearize, header.locate and read_record are the
reference steps.

In memory a run header is three parallel int lists (columns) with one
item per entry: the run ends, the empty counts, and the filled counts
(end minus empties, the physical number of the run's last record).  No
per-entry object is kept; iterating a header yields plain (end,
empties) tuples.  Opening a run header costs one file read, one
array('Q') decode, two column slices, one subtraction pass for the
filled counts and two C-level checks (a sort of the already sorted
empty counts, and one map over operator.lt for the filled counts) that
together cover the four validation rules.  Only after a check fails are
the entries scanned again, still in C, to name the first bad one.  On a
shared 2-vCPU host with Python 3.11, a 167,564-entry (2.68 MB) run
header opens in about 35 ms.  A bitmap is held as one Python int per
512-bit block plus one cumulative rank per block.  Opening the 131,096
bytes of a 2^20-cell bitmap is C-level passes: iter_unpack cuts groups
of 64 blocks, one map over int.from_bytes makes the ints and one
accumulate over bit_count the ranks, about 0.44 ms on the same host.

get_cell runs the three steps in one frame: a function compiled once per
process per (k, header encoding) and bound to the store at open.  It
holds the position kernel's coordinate test (linearizer.position_kernel:
straight-line code for the box's k that range-checks every coordinate
and costs k - 1 multiplications), then the header's locate step without
locate's range test, which the coordinate test has already made, then a
hit's one pread and its short-read check, without the type and range
checks read_record keeps.  A miss reads nothing.  Any input the
coordinate test refuses runs linearize and locate, so coordinates
outside the box, or of the wrong count or type, raise the RangeError
that linearize raises.  The function holds the header's columns and a
one-slot descriptor that close sets to -1, never the store, so a closed
store is freed as soon as it is dropped.
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
from .files import open_for_pread, read_binary, row_blocks, write_file
from .linearizer import _box, _compile, _integer, _prelude, cell_count

_ENTRY_BYTES = 16  # two unsigned 64-bit little-endian words per entry
_BITMAP_START = bytes(8) + b"PRESENCE"  # words 0 and the magic of a bitmap preamble
_PREAMBLE_BYTES = 24  # _BITMAP_START, then total_cells
_BLOCK_BYTES = 64  # 512 bits per in-memory block of a bitmap
_BLOCK_BITS = 8 * _BLOCK_BYTES
_BLOCK_SHIFT = _BLOCK_BITS.bit_length() - 1  # p >> _BLOCK_SHIFT is p // _BLOCK_BITS
_GROUP = struct.Struct(f"{_BLOCK_BYTES}s" * 64)  # 64 blocks per iter_unpack step
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

    def __init__(self, entries):
        ends = []
        empties = []
        for end, empty in entries:
            ends.append(int(end))
            empties.append(int(empty))
        self._adopt(ends, empties, "header")

    @classmethod
    def _of_columns(cls, ends: list, empties: list, source) -> "Header":
        header = cls.__new__(cls)
        header._adopt(ends, empties, source)
        return header

    def _adopt(self, ends: list, empties: list, source) -> None:
        """Check the header rules and keep the columns.

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

    def __eq__(self, other):
        return (isinstance(other, Header) and self._ends == other._ends
                and self._empties == other._empties)

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

    def logical_of_physical(self, record: int) -> int:
        """Logical position of the record'th stored cell (inverse of locate)."""
        if not 1 <= record <= self._filled[-1]:
            raise RangeError(f"record number {record} outside 1..{self._filled[-1]}")
        return record + self._empties[bisect_left(self._filled, record)]

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
        if len(data) % _ENTRY_BYTES:
            raise StorageError(
                f"{path}: size {len(data)} is not a multiple of {_ENTRY_BYTES}"
            )
        words = array("Q")
        words.frombytes(data)
        if _SWAP:
            words.byteswap()
        return cls._of_columns(words[0::2].tolist(), words[1::2].tolist(), path)


def _blocks(data) -> list[int]:
    """The bits of data as little-endian 512-bit ints (the last may be shorter), in C."""
    view = memoryview(data)
    whole = len(view) - len(view) % _GROUP.size
    tail = (view[i : i + _BLOCK_BYTES] for i in range(whole, len(view), _BLOCK_BYTES))
    groups = chain.from_iterable(_GROUP.iter_unpack(view[:whole]))
    return list(map(int.from_bytes, chain(groups, tail), repeat("little")))


class PresenceBitmap:
    """Validated presence bitmap of one compressed array.

    Answers the same calls as Header: locate, logical_of_physical,
    record_count, total_cells, and len() and iteration, which give the
    run entries of the same cells.  Held as one int per 512-bit block
    and the number of nonempty cells up to the end of each block.
    """

    __slots__ = ("_blocks", "_ranks", "total_cells")

    @classmethod
    def _of_file(cls, data: bytes, path) -> "PresenceBitmap":
        """Check a bitmap file's preamble, size and padding, and index its bits."""
        if len(data) < _PREAMBLE_BYTES:
            raise StorageError(
                f"{path}: bitmap header ends at byte {len(data)}, "
                f"inside its {_PREAMBLE_BYTES}-byte preamble"
            )
        total = int.from_bytes(data[16:_PREAMBLE_BYTES], "little")
        if total < 1:
            raise StorageError(f"{path}: bitmap total_cells at byte 16 is 0, "
                               "the box holds at least one cell")
        end = _PREAMBLE_BYTES + -(-total // 8)
        if len(data) != end:
            raise StorageError(
                f"{path}: bitmap of {total} cells (byte 16) ends at byte {end}, "
                f"file ends at byte {len(data)}"
            )
        if data[-1] >> (total % 8 or 8):
            raise StorageError(
                f"{path}: padding bits past cell {total} are set in byte {end - 1}"
            )
        bitmap = cls.__new__(cls)
        bitmap._blocks = _blocks(memoryview(data)[_PREAMBLE_BYTES:])
        bitmap._ranks = list(accumulate(map(int.bit_count, bitmap._blocks)))
        bitmap.total_cells = total
        return bitmap

    @property
    def record_count(self) -> int:
        return self._ranks[-1]

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

    def locate(self, position: int) -> int | None:
        """Physical record number of a logical position, or None if empty."""
        if not 1 <= position <= self.total_cells:
            raise RangeError(f"logical position {position} outside 1..{self.total_cells}")
        block, offset = divmod(position - 1, _BLOCK_BITS)
        rest = self._blocks[block] >> offset  # this cell and the later ones of its block
        if rest & 1:
            return self._ranks[block] - rest.bit_count() + 1
        return None

    def _cells(self):
        """The set bits' indexes (stored positions minus one), ascending, computed in C."""
        data = b"".join(map(int.to_bytes, self._blocks, repeat(_BLOCK_BYTES), repeat("little")))
        return compress(count(), chain.from_iterable(map(_BYTE_BITS.__getitem__, data)))

    def logical_of_physical(self, record: int) -> int:
        """Logical position of the record'th stored cell (inverse of locate)."""
        if not 1 <= record <= self._ranks[-1]:
            raise RangeError(f"record number {record} outside 1..{self._ranks[-1]}")
        block = bisect_left(self._ranks, record)
        nth = record - (self._ranks[block - 1] if block else 0)
        bits = self._blocks[block]
        offset = bisect_left(range(_BLOCK_BITS), nth,
                             key=lambda o: (bits & ((2 << o) - 1)).bit_count())
        return block * _BLOCK_BITS + offset + 1

    def _run_ends(self) -> int:
        """Bit p - 1 set for each cell p < total_cells that is nonempty before an empty one."""
        bits = int.from_bytes(
            b"".join(block.to_bytes(_BLOCK_BYTES, "little") for block in self._blocks),
            "little",
        )
        return bits & ~(bits >> 1) & ((1 << (self.total_cells - 1)) - 1)

    def __len__(self) -> int:
        return self._run_ends().bit_count() + 1

    def __iter__(self):
        """The run entries of the same cells, as Header yields them."""
        ends = _blocks(self._run_ends().to_bytes(-(-self.total_cells // 8), "little"))
        for block, bits in enumerate(ends):
            while bits:
                low = bits & -bits
                end = block * _BLOCK_BITS + low.bit_length()
                yield end, end - self.locate(end)
                bits ^= low
        yield self.total_cells, self.total_cells - self._ranks[-1]


def save_header(header: Header, path) -> None:
    """Write header's cells as a presence bitmap or a run header, whichever is smaller.

    A tie keeps the run header.  The bits are set from the runs, and only
    once the bitmap has won, so a box too sparse for a bitmap never
    allocates its ceil(total_cells / 8) bytes.
    """
    sizes = header_bytes(header)
    if sizes["presence bitmap"] < sizes["run header"]:
        write_file(path, _BITMAP_START + header.total_cells.to_bytes(8, "little")
                   + header._presence_bits())
    else:
        header.save(path)


def header_bytes(header) -> dict:
    """File bytes of header's cells in each encoding, by encoding name."""
    return {"run header": _ENTRY_BYTES * len(header),
            "presence bitmap": _PREAMBLE_BYTES + -(-header.total_cells // 8)}


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
    return Header._of_columns(ends, empties, "compressed header")


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
        data = os.pread(self._fd, w, (record - 1) * w)
        if len(data) != w:
            raise StorageError(f"{self._file.name}: short read at record {record}")
        return data

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
