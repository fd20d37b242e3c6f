"""The two header encodings: bitmap equivalence, choice, faults, old files."""

import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubestore import (
    DatasetError,
    SplitMix64,
    StorageError,
    build_dataset,
    cell_count,
    compress_stream,
    delinearize,
    linearize,
    open_dataset,
)
import cubestore
from cubestore import array_store
from cubestore.array_store import Header, PresenceBitmap, header_bytes
from cubestore.dataset import FORMAT_VERSION, MANIFEST_NAME, Manifest, _dim_paths
from cubestore.relation_model import KIND_TEXT, MeasureColumn, RelationSchema
from cubestore.table_store import iter_table_cells, write_table
from conftest import compress_to_memory, make_records, random_positions
from oracle import (
    bitmap_body, bitmap_file_bytes, decode_header_by_scan, dense_array, header_runs,
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
    """got answers every header call as the run header and the dense oracle do."""
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
    assert list(header) == header_runs(occupied, total)
    assert len(got) == len(header)
    assert got.record_count == header.record_count == len(occupied)
    assert got.total_cells == header.total_cells == total


def test_bitmap_matches_runs_and_oracle_on_the_corpus(tmp_path):
    """Criterion 3's relations, loaded from a bitmap and built through build_dataset."""
    path = tmp_path / "rel.hdr"
    root = tmp_path / "ds"
    chosen = {"run header": 0, "presence bitmap": 0}
    relations = corpus()
    assert len(relations) >= 1000
    for cards, occupied, width in relations:
        total = cell_count(cards)
        header, _ = compress_to_memory(make_records(occupied, width), total, width)
        data = bitmap_file_bytes(occupied, total)
        path.write_bytes(data)
        bitmap = Header.load(path)
        assert isinstance(bitmap, PresenceBitmap)
        check_same_cells(bitmap, header, occupied, total)
        # a reader of run headers alone rejects every bitmap file
        assert len(data) % 16 or decode_header_by_scan(data) == (None, 0)

        write_cells_dataset(root, cards, make_records(occupied, width), width)
        build_dataset(root, "array")
        stored = (root / "relation.hdr").read_bytes()
        # the sizes the choice compares are the two files' sizes
        assert header_bytes(header) == {"run header": 16 * len(header),
                                        "presence bitmap": len(data)}
        if len(data) < 16 * len(header):
            assert stored == data
            chosen["presence bitmap"] += 1
        else:
            assert stored == b"".join(
                struct.pack("<QQ", e, v) for e, v in header_runs(occupied, total)
            )
            chosen["run header"] += 1
        check_same_cells(Header.load(root / "relation.hdr"), header, occupied, total)
    assert all(chosen.values()), chosen


@given(st.integers(1, 80).flatmap(
    lambda total: st.tuples(st.just(total), st.sets(st.integers(1, total)))))
def test_bits_set_from_the_runs_match_the_oracle(case):
    """Every run shape: within one byte, across bytes, at the box end, none at all."""
    total, occupied = case
    header, _ = compress_to_memory(make_records(sorted(occupied), 1), total, 1)
    assert header._presence_bits() == bitmap_body(sorted(occupied), total)


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
    """Bodies around a 512-bit block and a 64-block group load as the dense oracle says.

    Three padding bits stay in the last byte, so the padding check sees
    every size too.
    """
    total = 8 * body - 3
    occupied = filled_cells(total, fill)
    path = tmp_path / "rel.hdr"
    data = bitmap_file_bytes(occupied, total)
    path.write_bytes(data)
    header, _ = compress_to_memory(make_records(occupied, 1), total, 1)
    check_same_cells(Header.load(path), header, occupied, total)
    path.write_bytes(data[:-1] + bytes([data[-1] | 0x80]))
    with pytest.raises(StorageError, match=re.escape(
            f"{path}: padding bits past cell {total} are set in byte {len(data) - 1}")):
        Header.load(path)


class TestBitmapErrors:
    """Every bad bitmap file is a StorageError naming the file and a byte offset."""

    GOOD = bitmap_file_bytes([2, 3, 7, 9], 10)  # 24 + 8 + 2 bytes

    def load_error(self, tmp_path, data) -> str:
        path = tmp_path / "rel.hdr"
        path.write_bytes(data)
        with pytest.raises(StorageError) as info:
            Header.load(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        return message

    def test_good_file_loads(self, tmp_path):
        path = tmp_path / "rel.hdr"
        path.write_bytes(self.GOOD)
        bitmap = Header.load(path)
        assert [p + 1 for p in bitmap._cells()] == [2, 3, 7, 9]
        assert len(bitmap) == len(header_runs([2, 3, 7, 9], 10))

    def test_truncated_preamble(self, tmp_path):
        for cut in (16, 20, 23):
            message = self.load_error(tmp_path, self.GOOD[:cut])
            assert f"ends at byte {cut}, inside its 24-byte preamble" in message

    def test_zero_cells(self, tmp_path):
        message = self.load_error(tmp_path, bitmap_file_bytes([], 1)[:16] + bytes(9))
        assert "total_cells at byte 16 is 0" in message

    def test_wrong_size(self, tmp_path):
        for data in (self.GOOD[:-1], self.GOOD + b"\0", self.GOOD[:24]):
            message = self.load_error(tmp_path, data)
            assert f"ends at byte 34, file ends at byte {len(data)}" in message

    def test_set_padding_bit(self, tmp_path):
        for bit in range(2, 8):  # cells 11..16 do not exist
            data = bytearray(self.GOOD)
            data[-1] |= 1 << bit
            message = self.load_error(tmp_path, bytes(data))
            assert "padding bits past cell 10 are set in byte 33" in message

    # cells 1 and 40,000 of 40,000: a 5,000-byte body in two pages, whose
    # rank directory (bytes 24 and 32) holds 1 and 2
    TWO_PAGES = bitmap_file_bytes([1, 40_000], 40_000)

    def test_decreasing_rank_directory(self, tmp_path):
        data = bytearray(self.TWO_PAGES)
        data[24] = 3
        message = self.load_error(tmp_path, bytes(data))
        assert "rank directory entry 1 at byte 32 is 2, below entry 0's 3" in message

    def test_page_count_disagrees_with_its_directory_step(self, tmp_path):
        """A wrong step opens, then fails at each touch of the pages it spans."""
        path = tmp_path / "rel.hdr"
        data = bytearray(self.TWO_PAGES)
        data[24] = 0  # page 0 counts 0 cells and page 1 two: still non-decreasing
        path.write_bytes(bytes(data))
        bitmap = Header.load(path)
        assert bitmap.record_count == 2
        for position, page, start, holds, says in [(1, 0, 40, 1, 0), (40_000, 1, 4136, 1, 2)]:
            for _ in range(2):
                with pytest.raises(StorageError, match=re.escape(
                        f"{path}: bitmap page {page} at byte {start} holds {holds} nonempty "
                        f"cells, its rank directory entry at byte {24 + 8 * page} says {says}")):
                    bitmap.locate(position)
        with pytest.raises(StorageError, match="bitmap page 0 at byte 40"):
            len(bitmap)

    def test_unpaged_bitmap_of_the_earlier_format(self, tmp_path):
        earlier = struct.pack("<Q8sQ", 0, b"PRESENCE", 10) + bytes([0x46, 0x01])
        message = self.load_error(tmp_path, earlier)
        assert message.endswith("presence bitmap without a rank directory, an earlier format; "
                                "rebuild it with `cubestore build --only array`")


# 300 x 250 = 75,000 cells: a bitmap body of 9,375 bytes in three pages
# (4,096, 4,096 and 1,183 bytes; 64, 64 and 19 blocks) after the 24-byte
# preamble and three directory entries
PAGED_CARDS = (300, 250)
PAGED_BODY = 24 + 3 * 8


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
        assert type(header) is PresenceBitmap and len(header._directory) == 3
        assert decoded == []
        assert header._blocks == header._ranks == [None] * 147
        # one view of the file's bytes per page, dropped as its page is decoded
        assert [len(page) for page in header._pages] == [4096, 4096, 1183]
        # the first touch of page 1 decodes it, and no other cell of it decodes again
        for position in range(32_768 + 1, 2 * 32_768 + 1):
            got = db.array.get_cell(delinearize(position, PAGED_CARDS))
            assert got == records.get(position), position
            assert decoded == [4096]
        assert [b is not None for b in header._blocks] == [False] * 64 + [True] * 64 + [False] * 19
        assert header._ranks[127] == header._directory[1]
        assert [page is None for page in header._pages] == [False, True, False]
        assert db.array.get_cell(PAGED_CARDS) == records.get(75_000)
        assert decoded == [4096, 1183]
        assert [page is None for page in header._pages] == [False, True, True]
        assert db.array.get_cell((1, 1)) == records.get(1)
        assert decoded == [4096, 1183, 4096] and header._pages == [None] * 3
        assert list(header._cells()) == [p - 1 for p in occupied]


def test_a_damaged_page_fails_at_its_first_lookup_and_the_others_answer(tmp_path):
    """A flipped body bit in page 2 leaves the record count, so open succeeds."""
    root = tmp_path / "ds"
    occupied = paged_dataset(root)
    records = dict(make_records(occupied, 3))
    hdr = root / "relation.hdr"
    data = bytearray(hdr.read_bytes())
    assert len(data) == PAGED_BODY + 9375
    data[PAGED_BODY + 2 * 4096 + 10] ^= 4  # cell 2 * 32,768 + 83
    hdr.write_bytes(bytes(data))
    damaged = re.escape(f"{hdr}: bitmap page 2 at byte {PAGED_BODY + 2 * 4096} holds ")
    with open_dataset(root, need=("array",)) as db:
        for position in range(1, 2 * 32_768 + 1, 7):
            assert db.array.get_cell(delinearize(position, PAGED_CARDS)) == records.get(position)
        for position in (2 * 32_768 + 1, 2 * 32_768 + 83, 75_000):
            for _ in range(2):
                with pytest.raises(StorageError, match=damaged):
                    db.array.get_cell(delinearize(position, PAGED_CARDS))
        with pytest.raises(StorageError, match=damaged):
            list(db.array.iterate_nonempty())


# The fault-injection box: 31 * 19 * 10 = 5,890 cells, not a multiple of 8,
# so the last bitmap byte holds padding bits.
FAULT_CARDS = (31, 19, 10)


def fault_dataset(root, count: int, seed: int) -> list:
    """Build a dataset of count seeded cells in FAULT_CARDS; returns its answers."""
    cells = make_records(random_positions(cell_count(FAULT_CARDS), count, seed=seed), 3)
    write_cells_dataset(root, FAULT_CARDS, cells, 3)
    build_dataset(root)
    return all_answers(root)


def all_answers(root) -> list:
    with open_dataset(root, need=("array",)) as db:
        return [db.array.get_cell(delinearize(p, FAULT_CARDS))
                for p in range(1, cell_count(FAULT_CARDS) + 1)]


def hdr_mutations(data: bytes, rng: SplitMix64):
    """Seeded single-bit flips, then every cut to an 8-byte boundary."""
    for _ in range(100):
        bit = rng.below(len(data) * 8)
        raw = bytearray(data)
        raw[bit // 8] ^= 1 << (bit % 8)
        yield bytes(raw)
    for cut in range(0, len(data), 8):
        yield data[:cut]


@pytest.mark.parametrize("count,encoding", [(2945, PresenceBitmap), (30, Header)])
def test_hdr_faults_never_give_silent_wrong_answers(tmp_path, count, encoding):
    """A mutated relation.hdr fails at open or at its page's first lookup, or
    answers exactly as before.

    In the bitmap, a flipped body bit makes its page's count disagree with
    the rank directory, which the page's first lookup catches; a flipped
    last directory entry changes the record count, which the .arr size
    check catches at open.  In the sparse run header each run holds one
    record, so a changed entry breaks the rule that filled counts rise.
    A run header whose runs hold several records has slack there: a
    low-bit flip can leave it valid with other answers, which only a
    checksum can catch.
    """
    root = tmp_path / "ds"
    expected = fault_dataset(root, count, seed=count)
    hdr = root / "relation.hdr"
    data = hdr.read_bytes()
    assert type(Header.load(hdr)) is encoding
    accepted = rejected = silent = 0
    for mutated in hdr_mutations(data, SplitMix64(count)):
        hdr.write_bytes(mutated)
        try:
            answers = all_answers(root)
        except (StorageError, DatasetError):
            rejected += 1
            continue
        accepted += 1
        silent += answers != expected
    assert silent == 0, f"{silent} of {accepted} accepted mutations answered wrongly"
    assert accepted + rejected == 100 + -(-len(data) // 8)
    print(f"{encoding.__name__}: {len(data)} bytes, "
          f"{rejected} mutations rejected, {accepted} accepted with the same answers")


@pytest.mark.parametrize("count,encoding", [(2945, PresenceBitmap), (30, Header)])
def test_get_cell_reads_once_per_hit_and_never_on_a_miss(tmp_path, monkeypatch, count,
                                                         encoding):
    root = tmp_path / "ds"
    expected = fault_dataset(root, count, seed=count)
    counted = CountedPread(os.pread)
    monkeypatch.setattr(os, "pread", counted)
    with open_dataset(root, need=("array",)) as db:
        assert type(db.array.header) is encoding
        arr = db.array._fd

        def reads():  # (all preads, preads of the .arr file)
            return sum(counted.calls.values()), counted.calls.get(arr, 0)

        for position, answer in enumerate(expected, start=1):
            before = reads()
            assert db.array.get_cell(delinearize(position, FAULT_CARDS)) == answer
            hit = answer is not None
            assert tuple(map(int.__sub__, reads(), before)) == (hit, hit), position


def test_padding_bit_rejected_at_open(tmp_path):
    root = tmp_path / "ds"
    fault_dataset(root, 2945, seed=2945)
    hdr = root / "relation.hdr"
    data = bytearray(hdr.read_bytes())
    assert len(data) == 24 + 8 + 737  # 5,890 cells in one page, 2 bits used in the last byte
    data[-1] |= 0x80
    hdr.write_bytes(bytes(data))
    with pytest.raises(StorageError, match=re.escape(
            f"{hdr}: padding bits past cell 5890 are set in byte 768")):
        open_dataset(root, need=("array",))


def test_run_header_files_still_open(tmp_path):
    """A run-format relation.hdr, as every earlier build wrote, still answers the same."""
    assert FORMAT_VERSION == 1
    root = tmp_path / "ds"
    expected = fault_dataset(root, 2945, seed=7)
    with open_dataset(root) as db:
        assert isinstance(db.array.header, PresenceBitmap)
        stored = list(db.array.iterate_nonempty())
    # the earlier array build: compress the table's cells, save the run header
    manifest = Manifest.load(root / MANIFEST_NAME)
    width = manifest.schema.record_width
    cells = ((linearize(c, FAULT_CARDS), rec)
             for c, rec in iter_table_cells(root / "relation.tbl", 3, width))
    arr = root / "relation.arr"
    built_arr = arr.read_bytes()
    with open(arr, "wb") as f:
        header = compress_stream(cells, cell_count(FAULT_CARDS), width, f)
    assert arr.read_bytes() == built_arr
    header.save(root / "relation.hdr")
    assert (root / "relation.hdr").stat().st_size == 16 * len(header) > 24 + 8 + 737
    assert all_answers(root) == expected
    with open_dataset(root) as db:
        assert type(db.array.header) is Header
        assert list(db.array.iterate_nonempty()) == stored


def test_sparse_build_in_a_huge_box_allocates_no_bitmap(tmp_path):
    """300 diagonal cells of a 2^40-cell box keep the run header.

    The build runs under a 1 GiB address-space limit, so it fails if it
    allocates the 2^37 bitmap bytes that could never win.
    """
    pytest.importorskip("resource")
    cards = (2**20, 2**20)
    total = cell_count(cards)
    occupied = [linearize((i, i), cards) for i in range(1, 301)]
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
    assert (root / "relation.hdr").stat().st_size == 16 * 301
    with open_dataset(root, need=("array",)) as db:
        header = db.array.header
        assert type(header) is Header
        # each diagonal cell is a run of its own
        assert [tuple(entry) for entry in header] == [
            (p, p - i) for i, p in enumerate(occupied, start=1)
        ] + [(total, total - 300)]
        assert db.array.get_cell((300, 300)) == make_records([occupied[-1]], 2)[0][1]
        assert db.array.get_cell((300, 299)) is None
