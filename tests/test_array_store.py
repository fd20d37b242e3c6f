"""Header compression: frozen worked examples, oracle sweeps, store round-trips."""

import os
import re
import struct
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestore import (
    ArrayStore,
    DuplicateKeyError,
    MalformedInputError,
    NotSortedError,
    RangeError,
    SplitMix64,
    StorageError,
    cell_count,
    compress_stream,
    delinearize,
    linearize,
)
from cubestore.array_store import Header
from conftest import build_array_files, compress_to_memory, make_records, random_positions
from test_table_store import CountedPread
from oracle import (
    decode_header_by_scan,
    dense_array,
    header_file_bytes,
    header_runs,
    locate_by_scan,
)


def header_of(occupied, total: int) -> Header:
    """The header compress_stream returns for these stored positions."""
    return compress_to_memory(make_records(occupied, 1), total, 1)[0]


def index_file(total: int, entries) -> bytes:
    """A header file of these (page, count, pad) index entries, with no containers."""
    return struct.pack("<8sQQ", b"HDRPAGES", total, len(entries)) + b"".join(
        struct.pack("<QHHI", page, stored, pad, 0) for page, stored, pad in entries)


class TestCompressGoldens:
    """Expected entries frozen from the dense-materialization oracle."""

    def check(self, occupied, total, expected):
        assert header_runs(occupied, total) == expected  # oracle agrees
        header, data = compress_to_memory(make_records(occupied), total, 3)
        assert [tuple(e) for e in header] == expected
        assert len(data) == 3 * len(occupied)

    def test_two_runs_and_trailing_gap(self):
        self.check([2, 3, 7], 8, [(3, 1), (7, 4), (8, 5)])

    def test_single_record_with_gaps_both_sides(self):
        self.check([3], 4, [(3, 2), (4, 3)])

    def test_dense(self):
        self.check([1, 2, 3, 4], 4, [(4, 0)])

    def test_empty(self):
        self.check([], 4, [(4, 4)])

    def test_single_trailing_empty(self):
        # the subtle case: one empty cell after an initial dense run
        self.check([1, 2, 3], 4, [(3, 0), (4, 1)])

    def test_single_leading_empty(self):
        self.check([2, 3, 4], 4, [(4, 1)])

    def test_last_cell_only(self):
        self.check([8], 8, [(8, 7)])

    def test_alternating(self):
        self.check([1, 3, 5], 6, [(1, 0), (3, 1), (5, 2), (6, 3)])


class TestCompressErrors:
    def test_duplicate_position(self):
        with pytest.raises(DuplicateKeyError):
            compress_to_memory(make_records([2, 2]), 4, 3)

    def test_descending_position(self):
        with pytest.raises(NotSortedError):
            compress_to_memory(make_records([3, 2]), 4, 3)

    def test_position_out_of_range(self):
        with pytest.raises(RangeError):
            compress_to_memory(make_records([5]), 4, 3)
        with pytest.raises(RangeError):
            compress_to_memory([(0, b"abc")], 4, 3)

    def test_wrong_record_width(self):
        with pytest.raises(MalformedInputError):
            compress_to_memory([(1, b"toolong")], 4, 3)

    def test_empty_box(self):
        with pytest.raises(RangeError):
            compress_to_memory([], 0, 3)


class TestHeaderLookup:
    # cells 2, 3 and 7 of 8: the runs (3, 1), (7, 4) and the terminal (8, 5)
    HEADER = header_of([2, 3, 7], 8)

    def test_locate_values(self):
        assert self.HEADER.locate(7) == 3
        assert self.HEADER.locate(5) is None
        assert self.HEADER.locate(2) == 1
        assert self.HEADER.locate(3) == 2
        assert self.HEADER.locate(1) is None
        assert self.HEADER.locate(4) is None
        assert self.HEADER.locate(8) is None

    def test_locate_range(self):
        with pytest.raises(RangeError):
            self.HEADER.locate(0)
        with pytest.raises(RangeError):
            self.HEADER.locate(9)

    def test_counts(self):
        assert self.HEADER.total_cells == 8
        assert self.HEADER.record_count == 3
        assert len(self.HEADER) == 3

    def test_empty_header(self):
        header = header_of([], 4)
        assert header.record_count == 0
        assert all(header.locate(i) is None for i in range(1, 5))


class TestBitmapLookup(TestHeaderLookup):
    """The same lookups over the same cells loaded from a file, whose one
    page is a bitmap container decoded on the first lookup."""

    @pytest.fixture(autouse=True)
    def bitmap(self, tmp_path):
        path = tmp_path / "rel.hdr"
        path.write_bytes(header_file_bytes([2, 3, 7], 8))
        self.HEADER = Header.load(path)
        assert self.HEADER.containers() == {"full": 0, "bitmap": 1, "offset list": 0}
        assert self.HEADER._blocks == [None]

    def test_empty_header(self, tmp_path):
        path = tmp_path / "empty.hdr"
        path.write_bytes(header_file_bytes([], 4))
        assert path.stat().st_size == 24  # the preamble alone
        header = Header.load(path)
        assert header.record_count == 0
        assert all(header.locate(i) is None for i in range(1, 5))
        assert len(header) == 1
        assert list(header._cells()) == []


class TestHeaderValidation:
    # one page of 10 cells, of which 2, 3, 7 and 9 are stored: a 2-byte bitmap
    GOOD = header_file_bytes([2, 3, 7, 9], 10)

    def test_rejects_bad_shapes(self, tmp_path):
        good = self.GOOD
        path = tmp_path / "rel.hdr"
        for data, message in [
            (good[:8] + bytes(8) + good[16:], "total_cells at byte 8 is 0"),
            (good[:16] + struct.pack("<Q", 2) + good[24:],
             "2 nonempty pages at byte 16, but 10 cells make 1"),
            (good[:39], "index of 1 entries ends at byte 40, file ends at byte 39"),
            (good[:-1], "containers end at byte 42, file ends at byte 41"),
            (good + b"\0", "containers end at byte 42, file ends at byte 43"),
            (good[:16] + bytes(8) + good[24:], "containers end at byte 24, file ends at byte 42"),
        ]:
            path.write_bytes(data)
            assert decode_header_by_scan(data) is None
            with pytest.raises(StorageError, match=re.escape(f"{path}: {message}")):
                Header.load(path)

    def test_save_load_roundtrip(self, tmp_path):
        header = header_of([2, 3, 7], 8)
        path = tmp_path / "rel.hdr"
        header.save(path)
        assert list(Header.load(path)) == [(3, 1), (7, 4), (8, 5)]
        assert path.stat().st_size == 24 + 16 + 1

    def test_load_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "rel.hdr"
        path.write_bytes(b"\x00" * 20)
        with pytest.raises(StorageError):
            Header.load(path)


class TestHeaderErrors:
    """Every header failure is a StorageError naming the file."""

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.hdr"
        with pytest.raises(StorageError, match=re.escape(str(path))):
            Header.load(path)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "dir.hdr"
        path.mkdir()
        with pytest.raises(StorageError, match=re.escape(str(path))):
            Header.load(path)

    def test_array_open_without_header(self, tmp_path):
        build_array_files(tmp_path, make_records([2, 3], 3), (4, 3, 2), 3).close()
        hdr = tmp_path / "rel.hdr"
        hdr.unlink()
        with pytest.raises(StorageError, match=re.escape(str(hdr))):
            ArrayStore.open(tmp_path / "rel.arr", hdr, (4, 3, 2), 3)

    # (page, count, pad) entries of a box of four pages, the last of 32,763
    # cells; the first bad entry, and the rule it breaks
    CASES = [
        ([(0, 1, 0), (0, 1, 0)], 1, "page 0 does not follow page 0"),
        ([(0, 1, 0), (2, 1, 0), (1, 1, 0)], 2, "page 1 does not follow page 2"),
        ([(0, 1, 0), (1, 0, 0)], 1, "count 0 is outside 1..32768"),
        ([(0, 1, 0), (1, 1, 0), (3, 32_764, 0)], 2, "count 32764 is outside 1..32763"),
        ([(4, 1, 0)], 0, "page 4 is past the box's last page 3"),
        ([(0, 1, 0), (1, 1, 1 << 8)], 1, "bytes 10 and 11 are not zero"),
    ]

    @pytest.mark.parametrize("entries,bad", [case[:2] for case in CASES])
    def test_validation_names_file_entry_and_offset(self, tmp_path, entries, bad):
        rule = next(r for e, b, r in self.CASES if (e, b) == (entries, bad))
        path = tmp_path / "rel.hdr"
        path.write_bytes(index_file(4 * 32_768 - 5, entries))
        assert decode_header_by_scan(path.read_bytes()) is None
        with pytest.raises(StorageError, match=re.escape(
                f"{path}: index entry {bad} at byte {24 + 16 * bad}: {rule}")):
            Header.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rel.hdr"
        path.write_bytes(b"")
        with pytest.raises(StorageError, match=re.escape(str(path))):
            Header.load(path)


PAGE = 32_768  # cells per header page


def paged_relation(seed):
    """(occupied positions, box size) of a seeded relation of three or four pages.

    Page 0 stores a random third of its cells (a bitmap), page 1 one cell
    in a hundred (an offset list), page 2 all (full) or none by seed, and
    a last, shorter page, when there is one, up to five cells.
    """
    rng = SplitMix64(seed)
    total = 3 * PAGE + rng.below(PAGE)
    occupied = [p for p in range(1, PAGE + 1) if rng.below(3) == 0]
    occupied += [p for p in range(PAGE + 1, 2 * PAGE + 1) if rng.below(100) == 0]
    occupied += list(range(2 * PAGE + 1, 3 * PAGE + 1)) * (seed % 2)
    tail = total - 3 * PAGE
    return occupied + [3 * PAGE + p for p in random_positions(tail, min(5, tail), seed)], total


def header_mutations(data: bytes, rng: SplitMix64):
    """Single bit flips, half of them in the preamble and index, two swapped
    index entries, every 8-byte cut of the preamble and index, and eight
    cuts among the containers."""
    index = 24 + 16 * int.from_bytes(data[16:24], "little")
    for flip in range(60):
        bit = rng.below((index if flip % 2 else len(data)) * 8)
        raw = bytearray(data)
        raw[bit // 8] ^= 1 << (bit % 8)
        yield bytes(raw)
    n = (index - 24) // 16
    for _ in range(20):
        i, j = sorted((rng.below(n), rng.below(n)))
        if i != j:
            i, j = 24 + 16 * i, 24 + 16 * j
            yield (data[:i] + data[j : j + 16] + data[i + 16 : j] + data[i : i + 16]
                   + data[j + 16 :])
    for cut in chain(range(0, index, 8), range(index, len(data), (len(data) - index) // 8)):
        yield data[:cut]


@pytest.mark.parametrize("seed", range(1, 13))
def test_load_agrees_with_reference_on_mutated_headers(tmp_path, seed):
    """Header.load, once every page is decoded, and the reference decode
    accept and reject the same bytes, and agree on the cells they accept."""
    occupied, total = paged_relation(seed)
    path = tmp_path / "rel.hdr"
    compress_to_memory(make_records(occupied, 1), total, 1)[0].save(path)
    data = path.read_bytes()
    assert decode_header_by_scan(data) == occupied
    accepted = rejected = 0
    for mutated in header_mutations(data, SplitMix64(seed)):
        path.write_bytes(mutated)
        expect = decode_header_by_scan(mutated)
        if expect is None:
            with pytest.raises(StorageError, match=re.escape(f"{path}: ")):
                list(Header.load(path)._cells())
            rejected += 1
        else:
            assert [p + 1 for p in Header.load(path)._cells()] == expect
            accepted += 1
    # a changed total_cells can still describe a valid header, of another
    # box, which the array store refuses at open
    assert rejected >= 60


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_header_file_format(tmp_path, seed):
    """save writes the preamble, the index and the containers of the module notes."""
    occupied, total = paged_relation(seed)
    header, _ = compress_to_memory(make_records(occupied, 1), total, 1)
    path = tmp_path / "rel.hdr"
    header.save(path)
    assert path.read_bytes() == header_file_bytes(occupied, total)
    assert header.containers() == {"full": seed % 2, "bitmap": 1, "offset list": 2}
    expected = header_runs(occupied, total)
    assert list(Header.load(path)) == list(header) == expected


@pytest.mark.parametrize("total,seed", [(1, 1), (7, 2), (24, 3), (100, 4), (256, 5)])
def test_oracle_sweep(total, seed):
    """Random occupancy patterns: compressor and lookups match the oracle."""
    for frac in (0.0, 0.1, 0.5, 0.9, 1.0):
        count = int(frac * total)
        occupied = random_positions(total, count, seed=seed * 100 + count)
        cells = make_records(occupied, record_width=2)
        header, data = compress_to_memory(cells, total, 2)
        assert [tuple(e) for e in header] == header_runs(occupied, total)
        dense = dense_array(cells, total)
        for position in range(1, total + 1):
            expect = locate_by_scan(occupied, position)
            assert header.locate(position) == expect
            if expect is not None:
                assert dense[position - 1] == data[(expect - 1) * 2 : expect * 2]
        assert [p + 1 for p in header._cells()] == occupied


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_compression_properties(data):
    total = data.draw(st.integers(1, 120))
    occupied = sorted(data.draw(st.sets(st.integers(1, total), max_size=total)))
    header, _ = compress_to_memory(make_records(occupied, 1), total, 1)
    entries = list(header)
    # terminal entry always covers the whole box
    assert entries[-1] == (total, total - len(occupied))
    assert header.record_count == len(occupied)
    # locate agrees with membership, and physical ordinals are 1..r in order
    ordinals = [header.locate(p) for p in sorted(occupied)]
    assert ordinals == list(range(1, len(occupied) + 1))
    # the stored cells, in physical order, are the occupied positions
    assert [p + 1 for p in header._cells()] == occupied


class TestArrayStore:
    CARDS = (4, 3, 2)

    def open_store(self, tmp_path, occupied, record_width=3):
        return build_array_files(tmp_path, make_records(occupied, record_width),
                                 self.CARDS, record_width)

    def test_get_cell(self, tmp_path):
        occupied = [2, 3, 7, 15, 24]
        with self.open_store(tmp_path, occupied) as store:
            expect = dict(make_records(occupied, 3))
            for position in range(1, cell_count(self.CARDS) + 1):
                coords = delinearize(position, self.CARDS)
                got = store.get_cell(coords)
                assert got == expect.get(position)

    def test_read_record_and_inverse(self, tmp_path):
        occupied = [1, 6, 7, 20]
        with self.open_store(tmp_path, occupied) as store:
            assert store.record_count == 4
            for ordinal, (position, record) in enumerate(make_records(occupied, 3), 1):
                assert store.read_record(ordinal) == record
                assert store.header.locate(position) == ordinal
            with pytest.raises(RangeError):
                store.read_record(0)
            with pytest.raises(RangeError):
                store.read_record(5)

    def test_iterate_nonempty(self, tmp_path):
        occupied = [2, 3, 7, 8, 9, 24]
        expected = [
            (delinearize(position, self.CARDS), record)
            for position, record in make_records(occupied, 3)
        ]
        with self.open_store(tmp_path, occupied) as store:
            assert list(store.iterate_nonempty()) == expected

    # 4,500 cells in one page, whose header holds lists over the box, or
    # one per page of a 2^40-cell box, whose header holds dicts
    @pytest.mark.parametrize("form,cards", [("list", (31, 19, 10)), ("dict", (2**20, 2**20))],
                             ids=["list", "dict"])
    def test_iterate_nonempty_reads_2048_records_per_pread(self, tmp_path, monkeypatch,
                                                            form, cards):
        occupied = random_positions(cell_count(cards), 4500, seed=20)
        with build_array_files(tmp_path, make_records(occupied, 5), cards, 5) as store:
            assert type(store.header._blocks).__name__ == {"list": "list", "dict": "_Blocks"}[form]
            expected = [(delinearize(p, cards), store.read_record(n))
                        for n, p in enumerate(occupied, start=1)]
            counted = CountedPread(os.pread)
            monkeypatch.setattr(os, "pread", counted)
            assert list(store.iterate_nonempty()) == expected
            assert counted.calls == {store._fd: 3}  # 2048 + 2048 + 404 records
            with open(tmp_path / "rel.arr", "r+b") as f:
                f.truncate(5 * 4000)
            cells = store.iterate_nonempty()
            with pytest.raises(StorageError, match="short read of 10240 bytes at offset 10240"):
                list(cells)

    def test_get_cell_bounds(self, tmp_path):
        with self.open_store(tmp_path, [2]) as store:
            with pytest.raises(RangeError):
                store.get_cell((5, 1, 1))

    def test_size_mismatch_rejected(self, tmp_path):
        store = self.open_store(tmp_path, [2, 3])
        store.close()
        with open(tmp_path / "rel.arr", "ab") as f:
            f.write(b"x")
        with pytest.raises(StorageError):
            ArrayStore.open(tmp_path / "rel.arr", tmp_path / "rel.hdr",
                            self.CARDS, 3)

    def test_header_box_mismatch_rejected(self, tmp_path):
        store = self.open_store(tmp_path, [2, 3])
        store.close()
        with pytest.raises(StorageError):
            ArrayStore.open(tmp_path / "rel.arr", tmp_path / "rel.hdr", (4, 3), 3)

    def test_empty_relation(self, tmp_path):
        with self.open_store(tmp_path, []) as store:
            assert store.record_count == 0
            assert store.get_cell((1, 1, 1)) is None
            assert list(store.iterate_nonempty()) == []
