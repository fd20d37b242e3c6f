"""Header-compressed multidimensional array storage.

The logical array has one cell per coordinate combination; only nonempty
cells are stored.  Two files describe it:

  .arr  fixed-width measure records back to back, one per nonempty cell,
        in ascending logical order; no delimiters, no file header.
  .hdr  the header, which says which cells are nonempty.

The header splits the box into pages of 32,768 cells (4,096 bitmap
bytes; the last page may be shorter) and stores only the nonempty ones.
All integers are little-endian.  The file is a 24-byte preamble, the
magic "HDRPAGES", total_cells N as a u64 and the number n of nonempty
pages as a u64; then n 16-byte index entries in ascending page order,
each the page number (u64), the page's stored-cell count c (u16), two
zero bytes and a CRC32 (u32) of the entry's first 12 bytes followed by
the page's container; then the containers, in entry order.  The count
picks the container, so nothing else is stored: a full page (c equals
the page's cells) has no bytes; a page with 2c below its bitmap bytes
holds c ascending u16 cell offsets; any other page holds its bitmap,
bit o (bit o % 8 of byte o // 8) set when the page's cell o is stored,
with zero padding bits.  Cell p of the box is cell (p - 1) % 32,768 of
page (p - 1) // 32,768.  Any other file, such as a run header or a
presence bitmap of the magic "BITPAGES" or "PRESENCE" that earlier
builds wrote, is refused with a rebuild message.  Per-page containers
of this kind come from Roaring bitmaps (Chambi, Lemire, Kaser and
Godin, SPE 2016).

Point lookup is three steps: linearize the coordinates, find whether the
position is nonempty, then map it to its physical record, the number of
nonempty cells up to and including it.  That map, locate, is the one the
header answers; there is no inverse, since a record's coordinates are in
its table row.  linearize, header.locate and read_record are the
reference steps.  The header's step is one shift and mask into a
512-bit block, one shift test, and one bit_count taken from the block's
cumulative rank.

In memory a Header holds one int per 512-bit block of the box and the
number of nonempty cells up to the end of that block.  While at least 1
page in 8 holds a cell, both are lists over the box.  Otherwise the
blocks are a dict of the nonzero blocks whose __missing__ gives 0, and
the ranks a dict of theirs, so a sparse header costs memory in its
stored pages only.  Opening a file reads it, checks the preamble, that
the pages ascend inside the box, that the counts fit their pages, that
the pad bytes are zero and that the containers end at the file's end;
all of it in C over the index, decoding no page.  A page is decoded on
the first lookup that touches it: its slot holds None (the list form)
or __missing__ gives None, the step's shift raises TypeError, and
locate decodes it.  A page the index does not hold has nothing to
decode; in the list form its blocks become 0 at its first touch.
Decoding checks the page's CRC; then that an offset
list ascends below the page's cells or that a bitmap's padding bits are
zero; last, that the set bits number the entry's count.  Any failure is
a StorageError naming the file, the page and a byte offset, at every
touch of that page, and the other pages still answer.  A lookup in a
page the index does not hold first checks the entries on either side of
it, so a page number changed by damage fails rather than answering
"empty".  iter(header) yields the paper's run entries, (end, empties)
pairs of the same cells, derived from the blocks; len(), _cells, save
and so iterate_nonempty check every page first.

compress_stream fills the blocks of each stored page from the ascending
position stream in one pass, so a build holds no bit of an empty page,
and save writes the file from the blocks.

get_cell runs the three steps in one frame: a function compiled once per
process per k and bound to the store at open.  It holds the position
kernel's coordinate test (linearizer.position_kernel: straight-line code
for the box's k that range-checks every coordinate and costs k - 1
multiplications), then the header's step without locate's range test,
which the coordinate test has already made, then a hit's one pread and
its short-read check, inline rather than a files.read_at call, and
without the type and range checks read_record keeps.  A miss reads
nothing.  Any input the coordinate test refuses runs linearize and
locate, so coordinates outside the box, or of the wrong count or type,
raise the RangeError that linearize raises.  A block not yet decoded
takes the same route, and once locate has decoded its page, that page's
lookups stay in the compiled step.
The function holds the header's blocks and ranks and a one-slot
descriptor that close sets to -1, never the store, so a closed store is
freed as soon as it is dropped.
"""

from __future__ import annotations

import os
import struct
import zlib
from bisect import bisect_left
from collections.abc import Callable
from functools import lru_cache
from itertools import accumulate, chain, compress, count, islice, product, repeat
from operator import add, floordiv, lshift, lt, mod, sub

from .errors import (
    DuplicateKeyError,
    MalformedInputError,
    NotSortedError,
    RangeError,
    StorageError,
)
from .files import open_for_pread, read_at, read_binary, row_blocks, write_file
from .linearizer import _box, _compile, _integer, _prelude, cell_count

_MAGIC = b"HDRPAGES"
_PREAMBLE = struct.Struct("<8sQQ")  # the magic, total_cells, nonempty pages
_ENTRY = struct.Struct("<QHHI")  # page number, stored cells, zero pad, CRC32
_BLOCK_BYTES = 64  # 512 bits per in-memory block
_BLOCK_BITS = 8 * _BLOCK_BYTES
_BLOCK_SHIFT = _BLOCK_BITS.bit_length() - 1  # p >> _BLOCK_SHIFT is p // _BLOCK_BITS
_PAGE_SHIFT = 6  # b >> _PAGE_SHIFT is the page of block b
_PAGE_BLOCKS = 1 << _PAGE_SHIFT
_CELL_SHIFT = _BLOCK_SHIFT + _PAGE_SHIFT  # p >> _CELL_SHIFT is the page of cell index p
_PAGE_CELLS = 1 << _CELL_SHIFT
_SPARSE = 8  # the blocks are lists while at least 1 page in _SPARSE holds a cell
_GROUP = struct.Struct(f"{_BLOCK_BYTES}s" * _PAGE_BLOCKS)  # one page per iter_unpack step
_BYTE_OFFSETS = [tuple(compress(range(8), reversed(bits)))  # the set bits of byte v
                 for bits in product((0, 1), repeat=8)]


def _blocks(data) -> list[int]:
    """The bits of data as little-endian 512-bit ints (the last may be shorter), in C."""
    view = memoryview(data)
    whole = len(view) - len(view) % _GROUP.size
    tail = (view[i : i + _BLOCK_BYTES] for i in range(whole, len(view), _BLOCK_BYTES))
    groups = chain.from_iterable(_GROUP.iter_unpack(view[:whole]))
    return list(map(int.from_bytes, chain(groups, tail), repeat("little")))


def _set_bits(data, base: int = 0):
    """base plus the index of every set bit of data, ascending, computed in C.

    The work is one step per byte and one per set bit, so a sparse page
    costs little.
    """
    firsts = compress(range(base, base + 8 * len(data), 8), data)
    offsets = map(_BYTE_OFFSETS.__getitem__, filter(None, data))
    return chain.from_iterable(map(map, repeat(add), map(repeat, firsts), offsets))


def _cells_of(total_cells: int, page: int) -> int:
    """The cells of a page of a box of total_cells cells: 32,768 but in the last page."""
    return min(_PAGE_CELLS, total_cells - (page << _CELL_SHIFT))


def _container_bytes(stored: int, cells: int) -> int:
    """Container size of a page of cells cells of which stored are nonempty."""
    bitmap = (cells + 7) >> 3
    return 0 if stored == cells else 2 * stored if 2 * stored < bitmap else bitmap


def _entries_of(pages, page: int) -> tuple:
    """Index entries a lookup in page depends on: its own, or the two around a page not held."""
    j = bisect_left(pages, page)
    return (j,) if j < len(pages) and pages[j] == page else (j - 1, j)


class _Blocks(dict):
    """The dict form's block ints, keyed by block number.

    A block absent from the dict is 0 once the entries its page depends
    on are checked, and None until then.  A page's blocks go in before
    its entry leaves unchecked, so a block another thread put in since
    the lookup missed is read again rather than taken for 0.
    """

    __slots__ = ("pages", "unchecked")

    def __missing__(self, block):
        if self.unchecked and not self.unchecked.isdisjoint(
                _entries_of(self.pages, block >> _PAGE_SHIFT)):
            return None
        return self.get(block, 0)


class Header:
    """The validated header of one compressed array (see the module notes)."""

    __slots__ = ("total_cells", "record_count", "_pages", "_before", "_blocks", "_ranks",
                 "_unchecked", "_data", "_starts", "_crcs", "_path")

    def __init__(self, total_cells: int, pages, before: list, unchecked: set):
        """A header whose nonempty pages are pages, with no page decoded.

        before[i] is the number of stored cells in the pages ahead of
        entry i, and before[-1] the record count.  unchecked holds the
        entries still to decode.
        """
        self.total_cells = total_cells
        self.record_count = before[-1]
        self._pages = pages
        self._before = before
        self._unchecked = unchecked
        if _SPARSE * len(pages) >= -(-total_cells // _PAGE_CELLS):
            self._blocks = [None] * -(-total_cells // _BLOCK_BITS)
            self._ranks = [None] * len(self._blocks)
        else:
            self._blocks = _Blocks()
            self._blocks.pages, self._blocks.unchecked = pages, unchecked
            self._ranks = {}

    # locate after its range test, as the compiled get_cell runs it (see
    # _lookup_factory): p is the cell's bit index, position - 1, a miss
    # returns None and a hit sets before, the number of records ahead of it.
    _STEP = f"""\
b = p >> {_BLOCK_SHIFT}
rest = blocks[b] >> (p & {_BLOCK_BITS - 1})
if not rest & 1:
    return None
before = ranks[b] - rest.bit_count()"""

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

    def _load(self, block: int) -> int:
        """Decode the entries block's page depends on; returns the block's bits.

        A page the index does not hold has no stored cell: in the list
        form its blocks become 0, with the rank of the cells before it.
        """
        page = block >> _PAGE_SHIFT
        entries = _entries_of(self._pages, page)
        for i in sorted(self._unchecked.intersection(entries)):
            self._decode(i)
        if self._blocks[block] is None:
            first = page << _PAGE_SHIFT
            blocks = -(-_cells_of(self.total_cells, page) // _BLOCK_BITS)
            self._ranks[first : first + blocks] = [self._before[entries[-1]]] * blocks
            self._blocks[first : first + blocks] = [0] * blocks
        return self._blocks[block]

    def _decode(self, i: int) -> None:
        """Check entry i's container, then fill its page's blocks from it."""
        page, data, path = self._pages[i], self._data, self._path
        cells, start, end = _cells_of(self.total_cells, page), self._starts[i], self._starts[i + 1]
        entry = _PREAMBLE.size + _ENTRY.size * i
        where = f"{path}: page {page}, index entry {i} at byte {entry}, container at byte {start}"
        container = data[start:end]
        if zlib.crc32(container, zlib.crc32(data[entry : entry + 12])) != self._crcs[i]:
            raise StorageError(f"{where}: CRC mismatch")
        bitmap = (cells + 7) >> 3
        if not container:
            container = ((1 << cells) - 1).to_bytes(bitmap, "little")
        elif len(container) < bitmap:
            offsets = struct.unpack(f"<{len(container) // 2}H", container)
            if not (all(map(lt, offsets, offsets[1:])) and offsets[-1] < cells):
                raise StorageError(f"{where}: offsets do not ascend below {cells}")
            container = bytearray(bitmap)
            for o in offsets:
                container[o >> 3] |= 1 << (o & 7)
        elif container[-1] >> (cells % 8 or 8):
            raise StorageError(f"{where}: padding bits past cell {cells} are set")
        self._fill(i, _blocks(container), where)

    def _fill(self, i: int, bits: list, where: str) -> None:
        """Put bits, the block ints of entry i's page, and their ranks in,
        once they hold the entry's count.

        The ranks go in before the ints, so a lookup that finds a block's
        int, as the compiled step does, also finds its rank.
        """
        before = self._before[i]
        ranks = list(accumulate(map(int.bit_count, bits), initial=before))
        if ranks[-1] != self._before[i + 1]:
            raise StorageError(f"{where}: holds {ranks[-1] - before} nonempty cells, "
                               f"the entry says {self._before[i + 1] - before}")
        first = self._pages[i] << _PAGE_SHIFT
        if type(self._blocks) is list:
            self._ranks[first : first + len(bits)] = ranks[1:]
            self._blocks[first : first + len(bits)] = bits
        else:
            blocks = list(compress(count(first), bits))
            self._ranks.update(zip(blocks, compress(ranks[1:], bits)))
            self._blocks.update(zip(blocks, compress(bits, bits)))
        self._unchecked.discard(i)

    def _page_bits(self, i: int) -> bytes:
        """The bitmap of entry i's page, which must be decoded."""
        cells = _cells_of(self.total_cells, self._pages[i])
        first = self._pages[i] << _PAGE_SHIFT
        words = map(self._blocks.__getitem__, range(first, first - (-cells // _BLOCK_BITS)))
        return b"".join(map(int.to_bytes, words, repeat(_BLOCK_BYTES),
                            repeat("little")))[: (cells + 7) >> 3]

    def _checked_pages(self) -> list[bytes]:
        """Every stored page's bitmap, after decoding and checking every page."""
        for i in sorted(self._unchecked):
            self._decode(i)
        return list(map(self._page_bits, range(len(self._pages))))

    def _cells(self):
        """The stored cells' positions minus one, ascending, computed in C."""
        bases = map(lshift, self._pages, repeat(_CELL_SHIFT))
        return chain.from_iterable(map(_set_bits, self._checked_pages(), bases))

    def __iter__(self):
        """The paper's run entries: (end, empties) of each run of empty then
        nonempty cells, where a run ends at its last nonempty cell, and the
        terminal (total_cells, total_cells - record_count)."""
        prev = stored = 0
        for p in self._cells():
            if prev and p > prev:
                yield prev, prev - stored
            stored += 1
            prev = p + 1
        if prev and prev < self.total_cells:
            yield prev, prev - stored
        yield self.total_cells, self.total_cells - stored

    def __len__(self) -> int:
        """The number of run entries of the same cells."""
        return sum(1 for _ in self)

    def containers(self) -> dict:
        """How many stored pages hold each container kind."""
        kinds = dict.fromkeys(("full", "bitmap", "offset list"), 0)
        for page, stored in zip(self._pages, map(sub, self._before[1:], self._before)):
            cells = _cells_of(self.total_cells, page)
            size = _container_bytes(stored, cells)
            kinds["full" if not size else "bitmap" if size == (cells + 7) >> 3
                  else "offset list"] += 1
        return kinds

    def save(self, path) -> None:
        """Write the header file of the module notes."""
        index, containers = [], []
        for page, stored, bits in zip(self._pages, map(sub, self._before[1:], self._before),
                                      self._checked_pages()):
            size = _container_bytes(stored, _cells_of(self.total_cells, page))
            containers.append(b"" if not size else bits if size == len(bits)
                              else struct.pack(f"<{stored}H", *_set_bits(bits)))
            head = _ENTRY.pack(page, stored, 0, 0)[:12]
            index.append(head + zlib.crc32(containers[-1], zlib.crc32(head)).to_bytes(4, "little"))
        write_file(path, b"".join([_PREAMBLE.pack(_MAGIC, self.total_cells, len(index)),
                                   *index, *containers]))

    @classmethod
    def load(cls, path) -> "Header":
        """Read a header file and check its preamble and index; decode no page."""
        data = read_binary(path, "header")
        if not data.startswith(_MAGIC):
            raise StorageError(
                f"{path}: no {_MAGIC.decode()} magic at byte 0, so a run header, an earlier "
                f"bitmap or no header; rebuild it with `cubestore build --only array`"
            )
        if len(data) < _PREAMBLE.size:
            raise StorageError(f"{path}: header ends at byte {len(data)}, "
                               f"inside its {_PREAMBLE.size}-byte preamble")
        _, total, n = _PREAMBLE.unpack_from(data)
        if total < 1:
            raise StorageError(f"{path}: total_cells at byte 8 is 0, "
                               "the box holds at least one cell")
        last = (total - 1) >> _CELL_SHIFT  # the box's last page
        if n > last + 1:
            raise StorageError(f"{path}: {n} nonempty pages at byte 16, "
                               f"but {total} cells make {last + 1}")
        end = _PREAMBLE.size + _ENTRY.size * n
        if len(data) < end:
            raise StorageError(f"{path}: index of {n} entries ends at byte {end}, "
                               f"file ends at byte {len(data)}")
        entries = struct.unpack_from("<" + _ENTRY.format[1:] * n, data, _PREAMBLE.size)
        held, counts, pads, crcs = entries[0::4], entries[1::4], entries[2::4], entries[3::4]
        if n and not (all(map(lt, held, islice(held, 1, None))) and held[-1] <= last
                      and min(counts) >= 1 and max(counts) <= _PAGE_CELLS and not any(pads)
                      and (held[-1] < last or counts[-1] <= _cells_of(total, last))):
            for i, (page, stored, pad) in enumerate(zip(held, counts, pads)):
                cells = _cells_of(total, page) if page <= last else 0
                rule = (f"page {page} does not follow page {held[i - 1]}"
                        if i and page <= held[i - 1]
                        else f"page {page} is past the box's last page {last}" if page > last
                        else f"count {stored} is outside 1..{cells}" if not 1 <= stored <= cells
                        else "bytes 10 and 11 are not zero" if pad else None)
                if rule:
                    raise StorageError(f"{path}: index entry {i} at byte "
                                       f"{_PREAMBLE.size + _ENTRY.size * i}: {rule}")
        # _container_bytes of a whole page, spelt out: a call per entry costs 4x
        sizes = [0 if c == _PAGE_CELLS else 2 * c if 2 * c < _GROUP.size else _GROUP.size
                 for c in counts]
        if n and held[-1] == last:
            sizes[-1] = _container_bytes(counts[-1], _cells_of(total, last))
        starts = list(accumulate(sizes, initial=end))
        if starts[-1] != len(data):
            raise StorageError(f"{path}: containers end at byte {starts[-1]}, "
                               f"file ends at byte {len(data)}")
        header = cls(total, held, list(accumulate(counts, initial=0)), set(range(n)))
        header._data, header._starts, header._crcs, header._path = data, starts, crcs, path
        return header


def compress_stream(cells, total_cells: int, record_width: int, out) -> Header:
    """One-pass compression of a strictly ascending (position, record) stream.

    Writes the records to the binary sink and returns the header, without
    ever materializing the empty cells: the block ints of each page are
    gathered while the stream is in it, and a page it skips holds nothing.
    """
    if total_cells < 1:
        raise RangeError("the box holds at least one cell")
    if record_width < 1:
        raise MalformedInputError("records must be at least one byte wide")
    pages, blocks = [], []  # the stored pages, and the block ints of each
    write = out.write
    prev = 0
    page = -1
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
        write(record)
        prev = position
        position -= 1
        if position >> _CELL_SHIFT != page:
            page = position >> _CELL_SHIFT
            pages.append(page)
            blocks.append([0] * -(-_cells_of(total_cells, page) // _BLOCK_BITS))
        block = position >> _BLOCK_SHIFT & _PAGE_BLOCKS - 1
        blocks[-1][block] |= 1 << (position & _BLOCK_BITS - 1)
    stored = [sum(map(int.bit_count, bits)) for bits in blocks]
    header = Header(total_cells, pages, list(accumulate(stored, initial=0)), set())
    for i, bits in enumerate(blocks):
        header._fill(i, bits, "compressed header")
    return header


@lru_cache(maxsize=None)
def _lookup_factory(k: int) -> Callable:
    """Compile, once per process, the factory of get_cell for k coordinates.

    The factory takes (cards, strides, offset, blocks, ranks, locate,
    width, name, fd), with offset set so that p is the cell's bit index,
    and returns get_cell and a function that sets its descriptor to -1.
    """
    step = Header._STEP.replace("\n", "\n    ")
    bind, test = _prelude(k, f"p = {{position}} - offset\nif type(p) is int:\n    {step}")
    source = f"""\
def factory(cards, strides, offset, blocks, ranks, locate, width, name, fd):
{bind}\
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
    return _compile(source, f"get_cell k={k}", os=os, StorageError=StorageError)


class ArrayStore:
    """Read handle over a compressed array file plus its cached header.

    The header is loaded and validated up front; record reads go through
    pread, so a handle can serve interleaved lookups without seek state.
    get_cell(indices), the measure record at the coordinates or None for
    an empty cell, is the compiled lookup of the module notes.
    """

    def __init__(self, arr_file, header: Header, cards, record_width: int):
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
        self.get_cell, self._forget_fd = _lookup_factory(len(cards))(
            cards, strides, offset + 1, header._blocks, header._ranks, header.locate,
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
