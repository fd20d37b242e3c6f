"""The paged header: container kinds, the list and dict forms, faults, earlier files."""

import os
import re
import struct
import subprocess
import sys
import tempfile
import zlib
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestore import (
    DatasetError,
    SplitMix64,
    StorageError,
    build_dataset,
    cell_count,
    delinearize,
    open_dataset,
)
import cubestore
from cubestore import array_store
from cubestore.array_store import Header
from cubestore.dataset import MANIFEST_NAME, Manifest, _dim_paths
from cubestore.relation_model import KIND_TEXT, MeasureColumn, RelationSchema
from cubestore.table_store import write_table
from conftest import build_array_files, compress_to_memory, make_records, random_positions
from oracle import (
    PAGE_CELLS, bitmap_body, dense_array, header_file_bytes, header_pages, header_runs,
)
from test_acceptance import corpus
from test_table_store import CountedPread


def write_cells_dataset(root, cards, cells, width: int) -> None:
    """A dataset directory whose table holds these (position, record) cells.

    Value j of each dimension is j zero-padded, so value order is index order.
    """
    root.mkdir(parents=True, exist_ok=True)
    text = {c: (f"%0{len(str(c))}d\n" * c % tuple(range(1, c + 1))).encode()
            for c in set(cards)}
    for path, card in zip(_dim_paths(root, len(cards)), cards):
        path.write_bytes(text[card])
    manifest = Manifest(
        schema_name="cells", key_columns=tuple(f"d{i}" for i in range(1, len(cards) + 1)),
        schema=RelationSchema(cards, (MeasureColumn("m", KIND_TEXT, width),)), r=len(cells),
    )
    with open(root / manifest.table_file, "wb") as f:
        write_table(((delinearize(p, cards), rec) for p, rec in cells), f, cards, width)
    (root / MANIFEST_NAME).write_bytes(manifest._encoded())


def check_same_cells(got, header: Header, occupied, total: int) -> None:
    """got answers every header call as the compressed header and the dense oracle do."""
    dense = dense_array(make_records(occupied, 1), total)
    ordinal = 0
    for position in range(1, total + 1):
        if dense[position - 1] is not None:
            ordinal += 1
            expect = ordinal
        else:
            expect = None
        assert got.locate(position) == header.locate(position) == expect
    assert list(got._cells()) == list(header._cells()) == [p - 1 for p in occupied]
    assert list(got) == list(header) == header_runs(occupied, total)
    assert len(got) == len(header)
    assert got.record_count == header.record_count == len(occupied)
    assert got.total_cells == header.total_cells == total


def form_of(header: Header) -> str:
    return "list" if type(header._blocks) is list else "dict"


def test_pages_match_the_oracle_on_the_corpus(tmp_path):
    """Criterion 3's relations: the oracle's file loads as the cells, and build writes it."""
    path = tmp_path / "rel.hdr"
    root = tmp_path / "ds"
    kinds = dict.fromkeys(("full", "bitmap", "offset list"), 0)
    relations = corpus()
    assert len(relations) >= 1000
    for cards, occupied, width in relations:
        total = cell_count(cards)
        header, _ = compress_to_memory(make_records(occupied, width), total, width)
        data = header_file_bytes(occupied, total)
        path.write_bytes(data)
        check_same_cells(Header.load(path), header, occupied, total)
        write_cells_dataset(root, cards, make_records(occupied, width), width)
        build_dataset(root, "array")
        assert (root / "relation.hdr").read_bytes() == data
        check_same_cells(Header.load(root / "relation.hdr"), header, occupied, total)
        for kind, count in header.containers().items():
            kinds[kind] += count
    assert all(kinds.values()), kinds


# boxes of 1 to 3 dimensions, at and around a page of 32,768 cells, and
# one of 2^34 cells, whose header holds dicts
ROUND_TRIP_BOXES = [(5,), (37, 11), (4, 5, 6), (32_767,), (128, 256), (3, 10_923),
                    (32, 32, 32), (7, 9, 1041), (2**17, 2**17)]


@st.composite
def stored_cells(draw):
    """A box and its stored positions: uniform cells, clustered runs and full pages."""
    cards = draw(st.sampled_from(ROUND_TRIP_BOXES))
    total = cell_count(cards)
    occupied = set(draw(st.lists(st.integers(1, total), max_size=60)))
    for start, length in draw(st.lists(st.tuples(st.integers(1, total),
                                                 st.integers(1, 3 * PAGE_CELLS)), max_size=3)):
        occupied.update(range(start, min(start + length, total + 1)))
    pages = -(-total // PAGE_CELLS)
    for page in draw(st.lists(st.integers(0, min(pages, 64) - 1), max_size=2)):
        occupied.update(range(page * PAGE_CELLS + 1, min((page + 1) * PAGE_CELLS, total) + 1))
    return cards, sorted(occupied)


@given(stored_cells())
@settings(max_examples=40, deadline=None)
def test_round_trip_matches_the_dense_oracle(case):
    """compress_stream, save, Header.load, then get_cell and locate, in either form."""
    cards, occupied = case
    total = cell_count(cards)
    held = {(p - 1) // PAGE_CELLS for p in occupied}
    form = "list" if 8 * len(held) >= -(-total // PAGE_CELLS) else "dict"
    records = dict(make_records(occupied, 2))
    if total <= 40_000:
        probes = range(1, total + 1)
    else:  # the stored cells' neighbours, the edges of their pages and 500 others
        edges = {g * PAGE_CELLS + d for g in held for d in (0, 1, PAGE_CELLS, PAGE_CELLS + 1)}
        near = {q for p in occupied[::7] for q in (p - 1, p, p + 1)}
        rng = SplitMix64(len(occupied))
        others = {rng.below(total) + 1 for _ in range(500)}
        probes = sorted(q for q in near | edges | others if 1 <= q <= total)
    with tempfile.TemporaryDirectory() as tmp:
        with build_array_files(Path(tmp), make_records(occupied, 2), cards, 2) as store:
            compressed, _ = compress_to_memory(make_records(occupied, 2), total, 2)
            assert (Path(tmp) / "rel.hdr").read_bytes() == header_file_bytes(occupied, total)
            assert form_of(store.header) == form_of(compressed) == form
            ordinal = {p: n for n, p in enumerate(occupied, start=1)}
            for p in probes:
                assert store.get_cell(delinearize(p, cards)) == records.get(p), p
                assert store.header.locate(p) == compressed.locate(p) == ordinal.get(p), p
            if total <= 40_000:
                assert list(store.header) == list(compressed) == header_runs(occupied, total)
            assert [p + 1 for p in store.header._cells()] == occupied


def filled_cells(total: int, fill: str) -> list:
    """Occupied positions of a box of total cells: sparse, dense or random."""
    if fill == "sparse":
        return sorted({p for p in range(1, total + 1, 97)} | {total})
    if fill == "dense":
        return [p for p in range(1, total + 1) if p % 97]
    rng = SplitMix64(total)
    return [p for p in range(1, total + 1) if rng.below(2)]


@pytest.mark.parametrize("fill", ["sparse", "dense", "random"])
@pytest.mark.parametrize("body", [1, 63, 64, 65, 4095, 4096, 4097, 8200])
def test_bitmap_blocks_at_every_boundary(tmp_path, body, fill):
    """Bitmaps around a 512-bit block and a page load as the dense oracle says.

    Three padding bits stay in the last byte.  A set padding bit, or an
    offset past the last cell, under a CRC that holds, fails at the first
    lookup in the last page, and the earlier pages still answer.
    """
    total = 8 * body - 3
    occupied = filled_cells(total, fill)
    path = tmp_path / "rel.hdr"
    path.write_bytes(header_file_bytes(occupied, total))
    header, _ = compress_to_memory(make_records(occupied, 1), total, 1)
    check_same_cells(Header.load(path), header, occupied, total)
    last = (total - 1) // PAGE_CELLS
    cells = total - last * PAGE_CELLS
    rules = []

    def damage(page, container):
        if page != last or not container:  # a full page has no bytes to damage
            return container
        if len(container) == (cells + 7) // 8:
            rules.append("padding bits past cell")
            return container[:-1] + bytes([container[-1] | 0x80])
        rules.append("offsets do not ascend below")
        return container[:-2] + struct.pack("<H", cells)

    path.write_bytes(header_file_bytes(occupied, total, damage))
    damaged = Header.load(path)
    if last:
        assert damaged.locate(1) == header.locate(1)
    if rules:
        with pytest.raises(StorageError, match=re.escape(
                f"{path}: page {last}, index entry {last}") + f".*: {rules[0]} {cells}"):
            damaged.locate(total)
    else:
        assert occupied[-cells:] == list(range(total - cells + 1, total + 1))


class TestBitmapErrors:
    """Every bad file is a StorageError naming the file and a byte offset."""

    GOOD = header_file_bytes([2, 3, 7, 9], 10)  # 24 + 16 + a 2-byte bitmap

    def load_error(self, tmp_path, data) -> str:
        path = tmp_path / "rel.hdr"
        path.write_bytes(data)
        with pytest.raises(StorageError) as info:
            Header.load(path).locate(2)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        return message

    def test_good_file_loads(self, tmp_path):
        path = tmp_path / "rel.hdr"
        path.write_bytes(self.GOOD)
        header = Header.load(path)
        assert header.containers() == {"full": 0, "bitmap": 1, "offset list": 0}
        assert [p + 1 for p in header._cells()] == [2, 3, 7, 9]
        assert len(header) == len(header_runs([2, 3, 7, 9], 10))

    def test_truncated_preamble(self, tmp_path):
        for cut in (8, 16, 20, 23):
            message = self.load_error(tmp_path, self.GOOD[:cut])
            assert f"header ends at byte {cut}, inside its 24-byte preamble" in message

    def test_zero_cells(self, tmp_path):
        message = self.load_error(tmp_path, self.GOOD[:8] + bytes(8) + self.GOOD[16:])
        assert "total_cells at byte 8 is 0" in message

    def test_wrong_size(self, tmp_path):
        for data in (self.GOOD[:-1], self.GOOD + b"\0"):
            message = self.load_error(tmp_path, data)
            assert f"containers end at byte 42, file ends at byte {len(data)}" in message
        message = self.load_error(tmp_path, self.GOOD[:24])
        assert "index of 1 entries ends at byte 40, file ends at byte 24" in message

    def test_set_padding_bit(self, tmp_path):
        for bit in range(2, 8):  # cells 11..16 do not exist
            data = bytearray(self.GOOD)
            data[-1] |= 1 << bit
            message = self.load_error(tmp_path, bytes(data))
            assert message.endswith("page 0, index entry 0 at byte 24, container at byte 40: "
                                    "CRC mismatch")
            held = header_file_bytes([2, 3, 7, 9], 10,
                                     lambda page, c, bit=bit: c[:1] + bytes([c[1] | 1 << bit]))
            message = self.load_error(tmp_path, held)
            assert message.endswith("container at byte 40: padding bits past cell 10 are set")

    def test_page_count_disagrees_with_its_directory_step(self, tmp_path):
        """A count the container does not hold, under a CRC that holds, opens,
        then fails at each touch of its page."""
        path = tmp_path / "rel.hdr"
        data = bytearray(self.GOOD)
        data[32] = 5  # the entry's count: 5 cells, still a 2-byte bitmap
        struct.pack_into("<I", data, 36, zlib.crc32(bytes(data[24:36]) + data[40:]))
        path.write_bytes(bytes(data))
        header = Header.load(path)
        assert header.record_count == 5
        for _ in range(2):
            with pytest.raises(StorageError, match=re.escape(
                    f"{path}: page 0, index entry 0 at byte 24, container at byte 40: "
                    f"holds 4 nonempty cells, the entry says 5")):
                header.locate(2)
        with pytest.raises(StorageError, match="holds 4 nonempty cells"):
            len(header)

    def test_unpaged_bitmap_of_the_earlier_format(self, tmp_path):
        earlier = struct.pack("<Q8sQ", 0, b"PRESENCE", 10) + bytes([0x46, 0x01])
        message = self.load_error(tmp_path, earlier)
        assert message.endswith("rebuild it with `cubestore build --only array`")


def earlier_header(kind: str, occupied, total: int) -> bytes:
    """A header in one of the formats earlier builds wrote (total below 32,769)."""
    if kind == "run header":
        return b"".join(struct.pack("<QQ", e, v) for e, v in header_runs(occupied, total))
    body = bitmap_body(occupied, total)
    if kind == "rank-directory bitmap":
        return struct.pack("<Q8sQQ", 0, b"BITPAGES", total, len(occupied)) + body
    return struct.pack("<Q8sQ", 0, b"PRESENCE", total) + body


@pytest.mark.parametrize("kind", ["run header", "rank-directory bitmap", "presence bitmap"])
def test_earlier_formats_are_refused(tmp_path, kind):
    """A relation.hdr an earlier build wrote is refused at open with a rebuild message."""
    root = tmp_path / "ds"
    fault_dataset(root, "bitmap")
    hdr = root / "relation.hdr"
    occupied = [p + 1 for p in Header.load(hdr)._cells()]
    hdr.write_bytes(earlier_header(kind, occupied, cell_count(FAULT_CARDS)))
    with pytest.raises(StorageError, match=re.escape(
            f"{hdr}: no HDRPAGES magic at byte 0, so a run header, an earlier bitmap or no "
            f"header; rebuild it with `cubestore build --only array`")):
        open_dataset(root, need=("array",))
    build_dataset(root, "array")
    with open_dataset(root, need=("array",)) as db:
        assert [p + 1 for p in db.array.header._cells()] == occupied


# 300 x 250 = 75,000 cells: three pages of 32,768, 32,768 and 9,464 cells,
# whose bitmaps are 4,096, 4,096 and 1,183 bytes (64, 64 and 19 blocks),
# after the 24-byte preamble and three index entries
PAGED_CARDS = (300, 250)
PAGED_BODY = 24 + 3 * 16


def paged_dataset(root) -> list:
    """Build a third of PAGED_CARDS's cells with 3-byte records; returns their positions."""
    total = cell_count(PAGED_CARDS)
    occupied = random_positions(total, total // 3, seed=27)
    write_cells_dataset(root, PAGED_CARDS, make_records(occupied, 3), 3)
    build_dataset(root, "array")
    return occupied


def test_open_decodes_no_page_and_a_lookup_decodes_its_own(tmp_path, monkeypatch):
    root = tmp_path / "ds"
    occupied = paged_dataset(root)
    records = dict(make_records(occupied, 3))
    decode = array_store._blocks
    decoded = []
    monkeypatch.setattr(array_store, "_blocks",
                        lambda page: decoded.append(len(page)) or decode(page))
    with open_dataset(root, need=("array",)) as db:
        header = db.array.header
        assert header.containers() == {"full": 0, "bitmap": 3, "offset list": 0}
        assert decoded == []
        assert header._blocks == header._ranks == [None] * 147
        assert header._unchecked == {0, 1, 2}
        # the first touch of page 1 decodes it, and no other cell of it decodes again
        for position in range(32_768 + 1, 2 * 32_768 + 1):
            got = db.array.get_cell(delinearize(position, PAGED_CARDS))
            assert got == records.get(position), position
            assert decoded == [4096]
        assert [b is not None for b in header._blocks] == [False] * 64 + [True] * 64 + [False] * 19
        assert header._ranks[127] == header._before[2]
        assert header._unchecked == {0, 2}
        assert db.array.get_cell(PAGED_CARDS) == records.get(75_000)
        assert decoded == [4096, 1183] and header._unchecked == {0}
        assert db.array.get_cell((1, 1)) == records.get(1)
        assert decoded == [4096, 1183, 4096] and header._unchecked == set()
        assert list(header._cells()) == [p - 1 for p in occupied]


def test_a_damaged_page_fails_at_its_first_lookup_and_the_others_answer(tmp_path):
    """A flipped bit in page 2's bitmap leaves the index whole, so open succeeds."""
    root = tmp_path / "ds"
    occupied = paged_dataset(root)
    records = dict(make_records(occupied, 3))
    hdr = root / "relation.hdr"
    data = bytearray(hdr.read_bytes())
    assert len(data) == PAGED_BODY + 9375
    data[PAGED_BODY + 2 * 4096 + 10] ^= 4  # cell 2 * 32,768 + 83
    hdr.write_bytes(bytes(data))
    damaged = re.escape(f"{hdr}: page 2, index entry 2 at byte 56, "
                        f"container at byte {PAGED_BODY + 2 * 4096}: CRC mismatch")
    with open_dataset(root, need=("array",)) as db:
        for position in range(1, 2 * 32_768 + 1, 7):
            assert db.array.get_cell(delinearize(position, PAGED_CARDS)) == records.get(position)
        for position in (2 * 32_768 + 1, 2 * 32_768 + 83, 75_000):
            for _ in range(2):
                with pytest.raises(StorageError, match=damaged):
                    db.array.get_cell(delinearize(position, PAGED_CARDS))
        with pytest.raises(StorageError, match=damaged):
            list(db.array.iterate_nonempty())


# The fault-injection box: 31 * 19 * 10 = 5,890 cells in one page, not a
# multiple of 8, so a bitmap's last byte holds padding bits.  The dict
# form's box has 2^40 cells.
FAULT_CARDS = (31, 19, 10)
HUGE_CARDS = (2**20, 2**20)


@lru_cache(maxsize=None)
def fault_cells(kind: str) -> tuple:
    """(cards, stored positions, probed positions) of a relation whose header
    holds one container kind, or whose header is in the dict form."""
    if kind != "dict form":
        count = {"full": 5890, "bitmap": 2945, "offset list": 30}[kind]
        occupied = random_positions(cell_count(FAULT_CARDS), count, seed=count)
        return FAULT_CARDS, occupied, range(1, cell_count(FAULT_CARDS) + 1)
    # 40 lone cells, page 1,000 full and a third of page 2,000: offset lists,
    # a full page and a bitmap; probed at every stored lone cell and its
    # neighbours, and at every 7th cell and both ends of the two pages
    lone = random_positions(cell_count(HUGE_CARDS), 40, seed=40)
    full = range(1000 * PAGE_CELLS + 1, 1001 * PAGE_CELLS + 1)
    third = [2000 * PAGE_CELLS + p for p in random_positions(PAGE_CELLS, PAGE_CELLS // 3, 41)]
    occupied = sorted(set(lone) | set(full) | set(third))
    probes = {q for p in lone for q in (p - 1, p, p + 1)}
    for g in (1000, 2000):
        probes.update(range(g * PAGE_CELLS + 1, (g + 1) * PAGE_CELLS + 1, 7))
        probes.update((g * PAGE_CELLS, g * PAGE_CELLS + 1, (g + 1) * PAGE_CELLS))
    return HUGE_CARDS, occupied, sorted(probes)


def fault_dataset(root, kind: str) -> list:
    """Build the relation of fault_cells(kind); returns its answers at the probes."""
    cards, occupied, _ = fault_cells(kind)
    write_cells_dataset(root, cards, make_records(occupied, 3), 3)
    build_dataset(root, "array")
    header = Header.load(root / "relation.hdr")
    if kind == "dict form":
        assert form_of(header) == "dict"
    else:
        assert header.containers()[kind] == 1
    return all_answers(root, kind)


def all_answers(root, kind: str) -> list:
    cards, _, probes = fault_cells(kind)
    with open_dataset(root, need=("array",)) as db:
        return [db.array.get_cell(delinearize(p, cards)) for p in probes]


def hdr_mutations(data: bytes, rng: SplitMix64):
    """Seeded single-bit flips, then every cut to an 8-byte boundary."""
    for _ in range(100):
        bit = rng.below(len(data) * 8)
        raw = bytearray(data)
        raw[bit // 8] ^= 1 << (bit % 8)
        yield bytes(raw)
    for cut in range(0, len(data), 8):
        yield data[:cut]


FAULT_KINDS = ["full", "bitmap", "offset list", "dict form"]


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_hdr_faults_never_give_silent_wrong_answers(tmp_path, kind):
    """A mutated relation.hdr fails at open or at a lookup, or answers exactly as before.

    Open refuses a changed preamble, a broken index order, a count out of
    range or a file of the wrong size; the .arr size check refuses a
    changed record count.  A flipped container byte, count, pad or CRC
    fails the page's CRC at its first lookup.  A page number moved to
    another page fails its CRC there, and a lookup in the page it left,
    which the index no longer holds, checks the entries on either side
    first, so it fails rather than answering "empty".
    """
    root = tmp_path / "ds"
    expected = fault_dataset(root, kind)
    hdr = root / "relation.hdr"
    data = hdr.read_bytes()
    accepted = rejected = silent = 0
    for mutated in hdr_mutations(data, SplitMix64(len(data))):
        hdr.write_bytes(mutated)
        try:
            answers = all_answers(root, kind)
        except (StorageError, DatasetError):
            rejected += 1
            continue
        accepted += 1
        silent += answers != expected
    assert silent == 0, f"{silent} of {accepted} accepted mutations answered wrongly"
    assert accepted + rejected == 100 + -(-len(data) // 8)
    print(f"{kind}: {len(data)} bytes, "
          f"{rejected} mutations rejected, {accepted} accepted with the same answers")


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_get_cell_reads_once_per_hit_and_never_on_a_miss(tmp_path, monkeypatch, kind):
    root = tmp_path / "ds"
    expected = fault_dataset(root, kind)
    cards, _, probes = fault_cells(kind)
    counted = CountedPread(os.pread)
    monkeypatch.setattr(os, "pread", counted)
    with open_dataset(root, need=("array",)) as db:
        arr = db.array._fd

        def reads():  # (all preads, preads of the .arr file)
            return sum(counted.calls.values()), counted.calls.get(arr, 0)

        for position, answer in zip(probes, expected):
            before = reads()
            assert db.array.get_cell(delinearize(position, cards)) == answer
            hit = answer is not None
            assert tuple(map(int.__sub__, reads(), before)) == (hit, hit), position


def test_padding_bit_rejected_at_first_lookup(tmp_path):
    """A set padding bit fails the CRC, and under a CRC that holds, the padding check."""
    root = tmp_path / "ds"
    fault_dataset(root, "bitmap")
    hdr = root / "relation.hdr"
    data = bytearray(hdr.read_bytes())
    assert len(data) == 24 + 16 + 737  # 5,890 cells in one page, 2 bits used in the last byte
    occupied = [p + 1 for p in Header.load(hdr)._cells()]
    data[-1] |= 0x80
    hdr.write_bytes(bytes(data))
    page = f"{hdr}: page 0, index entry 0 at byte 24, container at byte 40"
    with open_dataset(root, need=("array",)) as db:
        with pytest.raises(StorageError, match=re.escape(f"{page}: CRC mismatch")):
            db.array.get_cell((31, 19, 10))
    hdr.write_bytes(header_file_bytes(occupied, 5890, lambda g, c: c[:-1] + bytes([c[-1] | 0x80])))
    with open_dataset(root, need=("array",)) as db:
        with pytest.raises(StorageError, match=re.escape(
                f"{page}: padding bits past cell 5890 are set")):
            db.array.get_cell((1, 1, 1))


def test_sparse_build_in_a_huge_box_allocates_no_bitmap(tmp_path):
    """300 diagonal cells of a 2^40-cell box: a page each, an offset list of one cell.

    The build runs under a 1 GiB address-space limit, so it fails if it
    allocates anything in proportion to the box, such as its bitmap's
    2^37 bytes or a list over its blocks.
    """
    pytest.importorskip("resource")
    cards = (2**20, 2**20)
    total = cell_count(cards)
    occupied = [(i - 1) * (cards[0] + 1) + 1 for i in range(1, 301)]
    root = tmp_path / "ds"
    write_cells_dataset(root, cards, make_records(occupied, 2), 2)
    src = str(Path(cubestore.__file__).parents[1])
    build = subprocess.run(
        [sys.executable, "-c",
         "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
         f"sys.path.insert(0, {src!r}); "
         "from cubestore import build_dataset; build_dataset(sys.argv[1], 'array')",
         str(root)],
        capture_output=True, text=True, timeout=120,
    )
    assert build.returncode == 0, build.stderr
    assert (root / "relation.hdr").stat().st_size == 24 + 300 * (16 + 2)
    assert [len(offsets) for _, offsets, _ in header_pages(occupied, total)] == [1] * 300
    with open_dataset(root, need=("array",)) as db:
        header = db.array.header
        assert form_of(header) == "dict"
        # each diagonal cell is a run of its own
        assert list(header) == [
            (p, p - i) for i, p in enumerate(occupied, start=1)
        ] + [(total, total - 300)]
        assert db.array.get_cell((300, 300)) == make_records([occupied[-1]], 2)[0][1]
        assert db.array.get_cell((300, 299)) is None
