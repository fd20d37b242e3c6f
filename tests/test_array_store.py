"""Header compression: frozen worked examples, oracle sweeps, store round-trips."""

import os
import re
import struct

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
from cubestore.array_store import Header, PresenceBitmap
from conftest import (
    build_array_files, build_both_encodings, compress_to_memory, make_records, random_positions,
)
from test_table_store import CountedPread
from oracle import (
    bitmap_file_bytes,
    decode_header_by_scan,
    dense_array,
    header_runs,
    locate_by_scan,
)


def runs(*pairs):
    """The run header of these (end, empties) entries."""
    return Header([end for end, _ in pairs], [empties for _, empties in pairs])


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
    HEADER = runs((3, 1), (7, 4), (8, 5))

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
        header = runs((4, 4))
        assert header.record_count == 0
        assert all(header.locate(i) is None for i in range(1, 5))


class TestBitmapLookup(TestHeaderLookup):
    """The same lookups over the presence bitmap of the same cells."""

    @pytest.fixture(autouse=True)
    def bitmap(self, tmp_path):
        path = tmp_path / "rel.hdr"
        path.write_bytes(bitmap_file_bytes([2, 3, 7], 8))
        self.HEADER = Header.load(path)
        assert isinstance(self.HEADER, PresenceBitmap)

    def test_empty_header(self, tmp_path):
        path = tmp_path / "empty.hdr"
        path.write_bytes(bitmap_file_bytes([], 4))
        header = Header.load(path)
        assert header.record_count == 0
        assert all(header.locate(i) is None for i in range(1, 5))
        assert len(header) == 1
        assert list(header._cells()) == []


class TestHeaderValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(StorageError):
            runs()
        with pytest.raises(StorageError):
            runs((3, 1), (3, 2))  # ends not increasing
        with pytest.raises(StorageError):
            runs((3, 2), (5, 1))  # empties decreasing
        with pytest.raises(StorageError):
            runs((2, 1), (3, 2), (8, 5))  # middle run holds no record
        with pytest.raises(StorageError):
            runs((3, -1))  # empty count below the virtual entry's
        with pytest.raises(StorageError):
            runs((2, 0), (2, 0))  # terminal end repeats

    def test_save_load_roundtrip(self, tmp_path):
        header = runs((3, 1), (7, 4), (8, 5))
        path = tmp_path / "rel.hdr"
        header.save(path)
        assert list(Header.load(path)) == [(3, 1), (7, 4), (8, 5)]
        assert path.stat().st_size == 16 * 3

    def test_load_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "rel.hdr"
        path.write_bytes(b"\x00" * 20)
        with pytest.raises(StorageError):
            Header.load(path)


class TestHeaderErrors:
    """Every header failure is a StorageError naming the file."""

    def write_entries(self, path, entries):
        path.write_bytes(b"".join(struct.pack("<QQ", e, v) for e, v in entries))

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

    @pytest.mark.parametrize("entries,bad", [
        ([(3, 1), (7, 0), (8, 5)], 1),   # empty count falls
        ([(3, 1), (7, 4), (6, 5)], 2),   # end falls
        ([(3, 1), (4, 2), (8, 5)], 1),   # middle run holds no record
        ([(3, 1), (7, 4), (8, 7)], 2),   # terminal loses records
        ([(0, 0), (8, 5)], 0),           # end at the virtual entry's position
    ])
    def test_validation_names_file_entry_and_offset(self, tmp_path, entries, bad):
        path = tmp_path / "rel.hdr"
        self.write_entries(path, entries)
        assert decode_header_by_scan(path.read_bytes()) == (None, bad)
        with pytest.raises(StorageError) as info:
            Header.load(path)
        message = str(info.value)
        assert str(path) in message
        assert f"entry {bad} at byte {16 * bad}" in message

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rel.hdr"
        path.write_bytes(b"")
        with pytest.raises(StorageError, match=re.escape(str(path))):
            Header.load(path)


def seeded_relation(seed):
    """(occupied positions, box size) of a seeded random relation."""
    rng = SplitMix64(seed)
    total = 20 + rng.below(300)
    return random_positions(total, rng.below(total + 1), seed=seed), total


def header_mutations(data: bytes, rng: SplitMix64):
    """Single bit flips, two swapped entries and every 16-byte truncation."""
    n = len(data) // 16
    for _ in range(60):
        bit = rng.below(len(data) * 8)
        raw = bytearray(data)
        raw[bit // 8] ^= 1 << (bit % 8)
        yield bytes(raw)
    for _ in range(20 if n > 1 else 0):
        i, j = sorted((rng.below(n), rng.below(n)))
        if i != j:
            yield (data[: 16 * i] + data[16 * j : 16 * j + 16] + data[16 * i + 16 : 16 * j]
                   + data[16 * i : 16 * i + 16] + data[16 * j + 16 :])
    for cut in range(0, len(data), 16):
        yield data[:cut]


@pytest.mark.parametrize("seed", range(1, 13))
def test_load_agrees_with_reference_on_mutated_headers(tmp_path, seed):
    """Header.load and the per-entry reference accept and reject the same bytes."""
    occupied, total = seeded_relation(seed)
    header, _ = compress_to_memory(make_records(occupied, 1), total, 1)
    path = tmp_path / "rel.hdr"
    header.save(path)
    data = path.read_bytes()
    assert decode_header_by_scan(data) == (header_runs(occupied, total), None)
    accepted = rejected = 0
    for mutated in header_mutations(data, SplitMix64(seed)):
        path.write_bytes(mutated)
        expect, bad = decode_header_by_scan(mutated)
        if bad is None:
            assert list(Header.load(path)) == expect
            accepted += 1
        else:
            with pytest.raises(StorageError) as info:
                Header.load(path)
            if mutated:
                assert f"{path}: entry {bad} at byte {16 * bad} " in str(info.value)
            rejected += 1
    assert accepted and rejected


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_header_file_format(tmp_path, seed):
    """save writes one little-endian (end, empties) u64 pair per entry."""
    occupied, total = seeded_relation(seed)
    header, _ = compress_to_memory(make_records(occupied, 1), total, 1)
    path = tmp_path / "rel.hdr"
    header.save(path)
    expected = header_runs(occupied, total)
    assert path.read_bytes() == b"".join(struct.pack("<QQ", e, v) for e, v in expected)
    assert list(Header.load(path)) == list(runs(*expected)) == list(header) == expected


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

    @pytest.mark.parametrize("encoding", [Header, PresenceBitmap])
    def test_iterate_nonempty_reads_2048_records_per_pread(self, tmp_path, monkeypatch,
                                                            encoding):
        cards = (31, 19, 10)
        occupied = random_positions(cell_count(cards), 4500, seed=20)
        runs, bitmap = build_both_encodings(tmp_path, occupied, cards, 5)
        with runs, bitmap:
            store = runs if encoding is Header else bitmap
            assert type(store.header) is encoding
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
