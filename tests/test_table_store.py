"""Sorted table file and its disk B-tree index."""

import errno
import gc
import math
import os
import re
import struct
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from cubestore import (
    DuplicateKeyError,
    MalformedInputError,
    NotSortedError,
    ParameterError,
    RangeError,
    SplitMix64,
    StorageError,
    TableStore,
    build_table,
    cell_count,
    delinearize,
    encode_key,
    linearize,
    worst_case_page_reads,
)
from cubestore import table_store
from cubestore.table_store import (
    DEFAULT_PAGE_SIZE,
    KEY_FIELD_WIDTH,
    _META,
    _framed,
    _index_shape,
    block_rows,
    build_index_from_table,
    decode_key,
    iter_table_cells,
    min_degree,
    resolve_page_size,
    write_table,
)
from conftest import build_table_files, make_records, random_positions
from oracle import (
    binary_search_rows,
    btree_lookup_by_pages,
    build_index_in_memory,
    enumerate_box,
    fences_in_order,
    framed_by_rebuild,
    index_levels,
    node_offset,
    table_lookup_by_scan,
)


class TestKeyEncoding:
    def test_fixed_width(self):
        raw = encode_key((3, 1, 2))
        assert len(raw) == 12
        assert decode_key(raw, 3) == (3, 1, 2)

    def test_bytewise_order_is_logical_order(self):
        cards = (4, 3, 2)
        ordered = sorted(enumerate_box(cards), key=lambda c: linearize(c, cards))
        keys = [encode_key(c) for c in ordered]
        assert keys == sorted(keys)

    @given(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_order_property(self, cards):
        cards = tuple(cards)
        coords = enumerate_box(cards)
        by_position = sorted(coords, key=lambda c: linearize(c, cards))
        by_key = sorted(coords, key=encode_key)
        assert by_position == by_key

    def test_roundtrip_large(self):
        coords = (2**32 - 1, 1, 77)
        assert decode_key(encode_key(coords), 3) == coords


class TestWriteTable:
    CARDS = (4, 3, 2)

    def cells(self, positions, width=3):
        return [(delinearize(p, self.CARDS), rec)
                for p, rec in make_records(positions, width)]

    def test_row_layout(self, tmp_path):
        path = tmp_path / "t.tbl"
        with open(path, "wb") as f:
            count = write_table(iter(self.cells([2, 3, 7])), f, self.CARDS, 3)
        assert count == 3
        data = path.read_bytes()
        assert len(data) == 3 * (12 + 3)
        assert decode_key(data[:12], 3) == delinearize(2, self.CARDS)

    def test_rejects_duplicates_and_disorder(self, tmp_path):
        with open(tmp_path / "t.tbl", "wb") as f:
            with pytest.raises(DuplicateKeyError):
                write_table(iter(self.cells([2, 2])), f, self.CARDS, 3)
        with open(tmp_path / "t.tbl", "wb") as f:
            with pytest.raises(NotSortedError):
                write_table(iter(self.cells([3, 2])), f, self.CARDS, 3)

    def test_rejects_bad_coordinates_and_width(self, tmp_path):
        with open(tmp_path / "t.tbl", "wb") as f:
            with pytest.raises(RangeError):
                write_table(iter([((5, 1, 1), b"abc")]), f, self.CARDS, 3)
        with open(tmp_path / "t.tbl", "wb") as f:
            with pytest.raises(MalformedInputError):
                write_table(iter([((1, 1, 1), b"ab")]), f, self.CARDS, 3)


class TestDegreeAndBounds:
    def test_min_degree(self):
        # (4096 - 8) // (2 * 12) = 170 for three 4-byte key fields
        assert min_degree(4096, 12) == 170
        assert min_degree(256, 12) == 10
        with pytest.raises(Exception):
            min_degree(64, 100)

    def test_leaf_capacity(self):
        # a leaf is a table block of B = max(2, page size // row bytes) rows
        assert block_rows(4096, 14) == 292
        assert block_rows(256, 14) == 18
        # a row wider than half a page still gets two to a block, so r rows
        # make at most (r + 1) / 2 blocks, whatever t is
        for page_size in (64, 88, 4096, 65536):
            for row_bytes in (4, 5, 60, 2049, 4097, 70_000):
                assert block_rows(page_size, row_bytes) >= 2
        assert block_rows(4096, 2049) == block_rows(4096, 70_000) == 2
        with pytest.raises(ParameterError, match="page size 65537 is too large"):
            resolve_page_size(65537)

    def test_resolve_page_size(self):
        assert resolve_page_size(None) == 4096
        assert resolve_page_size(512) == 512

    def test_hit_dense_shape(self):
        # the benchmark's hit-dense relation: 115,500 rows of 12-byte keys in
        # 567 blocks at 4096-byte pages, under two bottom nodes and a root
        meta, levels = _index_shape(4096, 12, 115_500, 567)
        assert (meta.t, meta.node_count, meta.height) == (170, 3, 2)
        assert levels == [[340, 227], [2]]

    def test_worst_case_page_reads(self):
        assert worst_case_page_reads(1, 89) == 1
        assert worst_case_page_reads(10**6, 89) == math.ceil(
            math.log((10**6 + 1) / 2, 89)
        ) + 1


class TestLookup:
    CARDS = (6, 5, 4)

    def build(self, tmp_path, positions, width=3, page_size=None):
        cells = [(p, rec) for p, rec in make_records(positions, width)]
        return build_table_files(tmp_path, cells, self.CARDS, width,
                                 page_size=page_size)

    def test_lookup_matches_scan(self, tmp_path):
        total = cell_count(self.CARDS)
        positions = random_positions(total, 41, seed=11)
        with self.build(tmp_path, positions) as store:
            rows = list(store.iter_rows())
            for coords in enumerate_box(self.CARDS):
                expect = table_lookup_by_scan(rows, coords)
                assert store.btree_lookup(coords) == expect
                assert store.binary_search_lookup(coords) == expect

    def test_boundary_recnos(self, tmp_path):
        positions = [1, 5, cell_count(self.CARDS)]
        with self.build(tmp_path, positions) as store:
            assert store.btree_lookup(delinearize(1, self.CARDS)) == 1
            assert store.btree_lookup(delinearize(positions[-1], self.CARDS)) == 3

    def test_read_measures_reads_only_the_record(self, tmp_path, monkeypatch):
        positions = [2, 9, 30]
        with self.build(tmp_path, positions) as store:
            fd = store._tbl_fd
            reads = []
            real_pread = os.pread

            def recording_pread(fd_, size, offset):
                if fd_ == fd:
                    reads.append((size, offset))
                return real_pread(fd_, size, offset)

            monkeypatch.setattr(os, "pread", recording_pread)
            assert store.read_measures(2) == make_records([9])[0][1]
            assert reads == [(3, store.row_bytes + 12)]
            monkeypatch.undo()
            os.truncate(tmp_path / "rel.tbl", 2 * store.row_bytes + 13)
            with pytest.raises(StorageError, match=re.escape(
                    f"rel.tbl: short read of 3 bytes at offset {2 * store.row_bytes + 12}")):
                store.read_measures(3)

    def test_read_row(self, tmp_path):
        positions = [2, 9, 30]
        cells = make_records(positions, 3)
        with self.build(tmp_path, positions) as store:
            for recno, (position, record) in enumerate(cells, 1):
                coords, measures = store.read_row(recno)
                assert coords == delinearize(position, self.CARDS)
                assert measures == record
                assert store.read_measures(recno) == record
            with pytest.raises(RangeError):
                store.read_row(0)
            with pytest.raises(RangeError):
                store.read_row(4)

    def test_single_row(self, tmp_path):
        with self.build(tmp_path, [17]) as store:
            coords = delinearize(17, self.CARDS)
            assert store.btree_lookup(coords) == 1
            assert store.last_page_reads == 1
            assert store.binary_search_lookup(coords) == 1
            assert store.last_row_reads == 1

    def test_empty_table(self, tmp_path):
        with self.build(tmp_path, []) as store:
            assert store.row_count == 0
            assert store.meta.root == 0
            assert store.btree_lookup((1, 1, 1)) is None
            assert store.last_page_reads == 0
            assert store.binary_search_lookup((1, 1, 1)) is None

    def test_page_read_bound(self, tmp_path):
        total = cell_count(self.CARDS)
        positions = random_positions(total, 90, seed=3)
        with self.build(tmp_path, positions, page_size=256) as store:
            t = store.meta.t
            bound = worst_case_page_reads(store.row_count, t)
            assert store.meta.height + 1 <= bound
            for coords in enumerate_box(self.CARDS):
                store.btree_lookup(coords)
                assert store.last_page_reads <= bound

    def test_row_read_bound(self, tmp_path):
        total = cell_count(self.CARDS)
        positions = random_positions(total, 90, seed=4)
        with self.build(tmp_path, positions) as store:
            bound = math.floor(math.log2(store.row_count)) + 1
            for coords in enumerate_box(self.CARDS):
                store.binary_search_lookup(coords)
                assert store.last_row_reads <= bound

    def test_open_without_its_index(self, tmp_path):
        # the index is part of every store: open names the missing .btx
        # and closes the table file it had already opened
        self.build(tmp_path, [3, 8]).close()
        btx = tmp_path / "rel.btx"
        btx.unlink()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StorageError, match=re.escape(f"cannot read index {btx}: ")):
                TableStore.open(tmp_path / "rel.tbl", self.CARDS, 3, btx)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestNodeInvariants:
    CARDS = (30, 20, 10)

    def test_occupancy(self, tmp_path):
        total = cell_count(self.CARDS)
        positions = random_positions(total, 1500, seed=9)
        cells = make_records(positions, 2)
        store = build_table_files(tmp_path, cells, self.CARDS, 2, page_size=128)
        with store:
            meta = store.meta
            t = meta.t
            assert meta.height >= 2  # the tree actually has internal levels
            # 14-byte rows in 128-byte pages: leaves are blocks of 9 rows
            assert store.leaf_rows == block_rows(128, 14) == 9
            blocks = -(-store.row_count // 9)
            table = (tmp_path / "rel.tbl").read_bytes()
            levels = index_levels((tmp_path / "rel.btx").read_bytes())
            assert len(levels) == meta.height
            assert sum(map(len, levels)) == meta.node_count
            for level in levels:
                for page_no, separators, children in level:
                    assert len(children) == len(separators) + 1 <= 2 * t
                    assert len(children) >= (2 if page_no == meta.root else t)
            # the bottom level names every block once, in table order, and
            # each of its separators is the first table key of the block to
            # its right
            bottom = [(sep, child) for _, seps, children in levels[-1]
                      for sep, child in zip([None] + seps, children)]
            assert [child for _, child in bottom] == list(range(1, blocks + 1))
            for sep, block in bottom:
                off = (block - 1) * 9 * 14
                assert sep in (None, table[off : off + 12])

    def test_one_index_pread_per_lookup(self, tmp_path, monkeypatch):
        # the leaf level is the table: a lookup reads one block of .tbl and
        # no page of .btx, whose internal levels are in memory
        total = cell_count(self.CARDS)
        cells = make_records(random_positions(total, 1500, seed=9), 2)
        store = build_table_files(tmp_path, cells, self.CARDS, 2, page_size=128)
        inodes = {os.stat(tmp_path / f"rel.{ext}").st_ino: ext for ext in ("tbl", "btx")}
        real_pread = os.pread
        reads = []

        def counting_pread(fd, length, offset):
            reads.append((inodes.get(os.fstat(fd).st_ino), length))
            return real_pread(fd, length, offset)

        with store:
            assert store.meta.height >= 2
            monkeypatch.setattr(os, "pread", counting_pread)
            for coords in enumerate_box(self.CARDS):  # hits and misses
                reads.clear()
                store.btree_lookup(coords)
                assert len(reads) == 1 and reads[0][0] == "tbl"
                assert reads[0][1] <= store.leaf_rows * store.row_bytes
                assert store.last_page_reads == store.meta.height + 1

    def test_rebuild_is_identical(self, tmp_path):
        total = cell_count(self.CARDS)
        positions = random_positions(total, 700, seed=10)
        cells = make_records(positions, 2)
        store = build_table_files(tmp_path, cells, self.CARDS, 2)
        store.close()
        first = (tmp_path / "rel.btx").read_bytes()
        build_index_from_table(tmp_path / "rel.tbl", tmp_path / "rel.btx", 3, 2)
        assert (tmp_path / "rel.btx").read_bytes() == first


class TestIndexKeyWidth:
    """Separators are the table's keys, 4 bytes per field, whatever the stored coordinates."""

    @pytest.mark.parametrize("top,width", [(255, 1), (256, 2), (65_535, 2), (65_536, 4)])
    @pytest.mark.parametrize("dim", [0, 1])
    def test_keys_stay_four_bytes_per_field(self, tmp_path, top, width, dim):
        # width: the bytes the largest stored coordinate needs; the
        # separators keep 4 per field whatever it is
        assert top < 256**width
        cards = (top, 3) if dim == 0 else (3, top)
        highest = (top, 3) if dim == 0 else (3, top)
        below = (top - 1, 3) if dim == 0 else (3, top - 1)
        cells = sorted([((1, 1), b"ab"), ((2, 2), b"cd"), (highest, b"ef")],
                       key=lambda cell: encode_key(cell[0]))
        tbl, btx = tmp_path / "t.tbl", tmp_path / "t.btx"
        build_table(iter(cells), tbl, btx, cards, 2)
        with TableStore.open(tbl, cards, 2, btx) as store:
            assert store.meta.key_bytes == store.key_bytes == 2 * KEY_FIELD_WIDTH
            for recno, (coords, _) in enumerate(cells, 1):
                assert store.btree_lookup(coords) == recno
                assert btree_lookup_by_pages(btx.read_bytes(), tbl.read_bytes(),
                                             store.row_bytes, coords) == recno
            assert store.btree_lookup(below) is None

    @pytest.mark.parametrize("cards,width", [((40, 7, 3), 1), ((300, 2), 2), ((70_000, 2), 4)])
    @pytest.mark.parametrize("page_size", [128, 4096])
    def test_both_builds_write_the_reference_bytes(self, tmp_path, cards, width, page_size):
        # width: the bytes per field the largest coordinate of the box needs
        positions = random_positions(cell_count(cards), 400, seed=5)
        cells = [(delinearize(p, cards), rec) for p, rec in make_records(positions, 2)]
        tbl = tmp_path / "t.tbl"
        build_table(iter(cells), tbl, tmp_path / "a.btx", cards, 2, page_size)
        meta = build_index_from_table(tbl, tmp_path / "b.btx", len(cards), 2, page_size)
        assert max(cards) < 256**width
        assert meta.key_bytes == len(cards) * KEY_FIELD_WIDTH
        build_index_in_memory(tbl.read_bytes(), tmp_path / "ref.btx", len(cards), 2, page_size)
        ref = (tmp_path / "ref.btx").read_bytes()
        assert (tmp_path / "a.btx").read_bytes() == ref
        assert (tmp_path / "b.btx").read_bytes() == ref

    def test_empty_table_index(self, tmp_path):
        with build_table_files(tmp_path, [], (300, 2), 2) as store:
            assert store.meta.key_bytes == 8
            assert (store.meta.root, store.meta.node_count, store.meta.height) == (0, 0, 0)
            assert store.btree_lookup((300, 2)) is None
        assert (tmp_path / "rel.btx").stat().st_size == DEFAULT_PAGE_SIZE

    def test_open_slices_at_most_the_rows(self, tmp_path):
        # 7-byte rows in a 64 KB page: B is 9,362, but a 3-row table
        # needs no more than 3 key slices in a block
        with build_table_files(tmp_path, make_records([1, 2, 5]), (8,), 3,
                               page_size=65_536) as store:
            assert store.leaf_rows == 9_362
            assert len(store._row_keys) == 3
            assert [store.btree_lookup((i,)) for i in range(1, 9)] == [1, 2, None, None, 3,
                                                                      None, None, None]


class TestIndexSize:
    """A .btx is its metadata header and one page per internal node, and never under a page."""

    CARDS = (30, 20, 10)

    @pytest.mark.parametrize("rows,height,size", [(1500, 3, _META.size + 20 * 128),
                                                  (5, 0, 128)])
    def test_header_and_node_pages(self, tmp_path, rows, height, size):
        # 1,500 rows make a tree of height 3 and 20 nodes in 128-byte pages;
        # five rows make one block and no node, so the index is the header
        # padded with zeros to one page (an empty table's: test_empty_table_index)
        cells = make_records(random_positions(cell_count(self.CARDS), rows, seed=9), 2)
        with build_table_files(tmp_path, cells, self.CARDS, 2, page_size=128) as store:
            meta = store.meta
        btx = tmp_path / "rel.btx"
        assert meta.height == height and (meta.node_count > 0) == (height > 0)
        assert btx.stat().st_size == size == max(_META.size + meta.node_count * 128, 128)
        # the last byte is padding, of the root or of the lone header, and
        # open refuses it flipped
        raw = bytearray(btx.read_bytes())
        raw[-1] ^= 1
        btx.write_bytes(bytes(raw))
        page = 0 if height == 0 else meta.node_count
        with pytest.raises(StorageError, match=re.escape(
                f"{btx}: byte {size - 1}, in page {page}, is not what build writes there")):
            TableStore.open(tmp_path / "rel.tbl", self.CARDS, 2, btx)


class TestStoreValidation:
    def test_corrupt_magic(self, tmp_path):
        cells = make_records([1, 2, 3], 2)
        store = build_table_files(tmp_path, cells, (4, 3, 2), 2)
        store.close()
        btx = tmp_path / "rel.btx"
        raw = bytearray(btx.read_bytes())
        raw[:4] = b"XXXX"
        btx.write_bytes(bytes(raw))
        with pytest.raises(StorageError):
            TableStore.open(tmp_path / "rel.tbl", (4, 3, 2), 2, btx)

    def test_truncated_table(self, tmp_path):
        cells = make_records([1, 2, 3], 2)
        store = build_table_files(tmp_path, cells, (4, 3, 2), 2)
        store.close()
        tbl = tmp_path / "rel.tbl"
        tbl.write_bytes(tbl.read_bytes()[:-1])
        # the same message as the streaming readers give (next test)
        with pytest.raises(StorageError, match=re.escape(
                f"{tbl}: size 41 is not a multiple of the 14-byte row")):
            TableStore.open(tbl, (4, 3, 2), 2, tmp_path / "rel.btx")

    def test_torn_table_named_by_both_readers(self, tmp_path):
        cells = make_records([1, 2, 3], 2)
        build_table_files(tmp_path, cells, (4, 3, 2), 2).close()
        tbl = tmp_path / "rel.tbl"
        tbl.write_bytes(tbl.read_bytes()[:-1])
        named = re.escape(f"{tbl}: size {tbl.stat().st_size} ")
        with pytest.raises(StorageError, match=named):
            build_index_from_table(tbl, tmp_path / "again.btx", 3, 2)
        with pytest.raises(StorageError, match=named):
            list(iter_table_cells(tbl, 3, 2))



class TestIndexCorruption:
    """A damaged .btx raises StorageError at open or lookup, never a wrong row."""

    CARDS = (30, 20, 10)
    KEY_BYTES = 12
    PAGE = 128  # small enough for a tree of height 3 over 1,500 rows
    # byte offsets of the version, t, key width, root and height in the metadata header
    META_VERSION = 4
    META_T = 12
    META_KEY_BYTES = 16
    META_ROOT = 20
    META_HEIGHT = 44

    def build(self, tmp_path):
        total = cell_count(self.CARDS)
        cells = make_records(random_positions(total, 1500, seed=9), 2)
        with build_table_files(tmp_path, cells, self.CARDS, 2,
                               page_size=self.PAGE) as store:
            assert store.meta.height >= 2
            meta = store.meta
        return index_levels((tmp_path / "rel.btx").read_bytes()), meta

    def open(self, tmp_path):
        return TableStore.open(tmp_path / "rel.tbl", self.CARDS, 2, tmp_path / "rel.btx")

    def test_truncated_by_one_page(self, tmp_path):
        self.build(tmp_path)
        btx = tmp_path / "rel.btx"
        btx.write_bytes(btx.read_bytes()[: -self.PAGE])
        with pytest.raises(StorageError, match="rel.btx: size"):
            self.open(tmp_path)

    def set_version(self, tmp_path, version):
        self.build(tmp_path)
        btx = tmp_path / "rel.btx"
        raw = bytearray(btx.read_bytes())
        struct.pack_into("<H", raw, self.META_VERSION, version)
        btx.write_bytes(bytes(raw))
        return btx

    def test_version_1_index(self, tmp_path):
        btx = self.set_version(tmp_path, 1)
        with pytest.raises(StorageError, match=re.escape(
                f"{btx}: unsupported index version 1, expected 5; rebuild it")):
            self.open(tmp_path)

    def test_version_2_index(self, tmp_path):
        # version 2 stored every key field in 4 bytes; it is not read
        btx = self.set_version(tmp_path, 2)
        with pytest.raises(StorageError, match=re.escape(
                f"{btx}: unsupported index version 2, expected 5; rebuild it with "
                f"`cubestore build --only table`")):
            self.open(tmp_path)

    def test_version_3_index(self, tmp_path):
        # version 3 copied every key, cut to 1, 2 or 4 bytes per field, into
        # leaf pages; it is not read
        btx = self.set_version(tmp_path, 3)
        with pytest.raises(StorageError, match=re.escape(
                f"{btx}: unsupported index version 3, expected 5; rebuild it with "
                f"`cubestore build --only table`")):
            self.open(tmp_path)

    def test_version_4_index(self, tmp_path):
        # version 4 padded the metadata to a whole page and stored an 8-byte
        # number for every child; it is not read.  Its 48-byte metadata,
        # written as version 4 wrote it, is refused before the rest is read.
        _, meta = self.build(tmp_path)
        btx = tmp_path / "rel.btx"
        t4 = (self.PAGE - 8) // (2 * (self.KEY_BYTES + 8))
        v4 = struct.pack("<4sHHIIIQQQI", b"CBTX", 4, 0, self.PAGE, t4, self.KEY_BYTES,
                         meta.root, meta.node_count, meta.entry_count, meta.height)
        btx.write_bytes(v4.ljust(self.PAGE, b"\0") + btx.read_bytes()[_META.size:])
        with pytest.raises(StorageError, match=re.escape(
                f"{btx}: unsupported index version 4, expected 5; rebuild it with "
                f"`cubestore build --only table`")):
            self.open(tmp_path)

    @pytest.mark.parametrize("key_bytes", [0, 1, 4, 5, 8, 24])
    def test_key_width_not_k_2k_or_4k(self, tmp_path, key_bytes):
        self.build(tmp_path)
        btx = tmp_path / "rel.btx"
        raw = bytearray(btx.read_bytes())
        struct.pack_into("<I", raw, self.META_KEY_BYTES, key_bytes)
        btx.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match=re.escape(
                f"{btx}: index keys are {key_bytes} bytes, not 4 bytes "
                f"for each of the table's 3 key fields")):
            self.open(tmp_path)

    @pytest.mark.parametrize("key_bytes", [3, 6])
    def test_key_width_cut_to_k_or_2k(self, tmp_path, key_bytes):
        # the field widths version 3 could cut keys to are refused too
        self.test_key_width_not_k_2k_or_4k(tmp_path, key_bytes)

    @pytest.mark.parametrize("field", ["root past nodes", "root zero", "wrong t"])
    def test_bad_metadata(self, tmp_path, field):
        _, meta = self.build(tmp_path)
        btx = tmp_path / "rel.btx"
        raw = bytearray(btx.read_bytes())
        if field == "root past nodes":
            struct.pack_into("<Q", raw, self.META_ROOT, meta.node_count + 1)
        elif field == "root zero":
            struct.pack_into("<Q", raw, self.META_ROOT, 0)
        else:
            struct.pack_into("<I", raw, self.META_T, meta.t + 1)
        btx.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="rel.btx"):
            self.open(tmp_path)

    SHAPE = (r"minimal degree \d+, root \d+, \d+ nodes and height \d+ are not the shape "
             r"of an index over 167 blocks in 128-byte pages$")
    # what open says about each damage, after "<.btx>: "; None is the byte
    # message, naming the first damaged byte and its page
    DAMAGE = {
        "internal type byte": None,
        "leaf type byte": None,
        "leaf count above L": None,
        "leaf count zero": None,
        "swapped separators": (r"block \d+ has fence [0-9a-f]{24}, "
                               r"not above the fence [0-9a-f]{24} before it$"),
        "separator count lowered": None,
        "height raised": SHAPE,
        "height lowered": SHAPE,
        "separator raised past the next": (r"block \d+ has fence [0-9a-f]{24}, "
                                           r"not above the fence [0-9a-f]{24} before it$"),
    }

    @pytest.mark.parametrize("damage", list(DAMAGE))
    def test_damaged_node(self, tmp_path, damage):
        levels, meta = self.build(tmp_path)
        btx = tmp_path / "rel.btx"
        raw = bytearray(btx.read_bytes())
        last_page, last_seps, _ = levels[-1][-1]  # the bottom level's last node
        if damage == "internal type byte":
            raw[node_offset(self.PAGE, meta.root)] = 0
        elif damage == "leaf type byte":
            # a bottom node marked with type 0, the type of version 3's leaf
            # pages: since version 4 the leaves are table blocks
            raw[node_offset(self.PAGE, levels[-1][0][0])] = 0
        elif damage.startswith("leaf count"):
            # a bottom node's count of separators between its leaf blocks:
            # 0, or above L = 2t - 1, the most a node holds
            count = 2 * meta.t if "above" in damage else 0
            struct.pack_into("<H", raw, node_offset(self.PAGE, last_page) + 2, count)
        elif damage == "swapped separators":
            page_no = next(p for p, seps, _ in levels[1] if len(seps) >= 2)
            first = node_offset(self.PAGE, page_no) + 8
            second = first + self.KEY_BYTES
            raw[first:second], raw[second : second + self.KEY_BYTES] = (
                raw[second : second + self.KEY_BYTES], raw[first:second])
        elif damage == "separator count lowered":
            struct.pack_into("<H", raw, node_offset(self.PAGE, last_page) + 2, len(last_seps) - 1)
        elif damage.startswith("height"):
            struct.pack_into("<I", raw, self.META_HEIGHT,
                             meta.height + (1 if "raised" in damage else -1))
        else:
            # the first bottom node's last separator, raised past the fence of
            # its right sibling, its parent's first separator: every node's
            # separators still ascend, the leaf fences do not
            page_no, seps, _ = levels[-1][0]
            parent_first = levels[-2][0][1][0]
            raised = parent_first[:-1] + bytes([parent_first[-1] + 1])
            off = node_offset(self.PAGE, page_no) + 8 + (len(seps) - 1) * self.KEY_BYTES
            raw[off : off + self.KEY_BYTES] = raised
        said = self.DAMAGE[damage]
        if said is None:
            at = next(i for i, (a, b) in enumerate(zip(raw, btx.read_bytes())) if a != b)
            page = (at - _META.size) // self.PAGE + 1  # 0 for the metadata header
            said = re.escape(f"byte {at}, in page {page}, is not what build writes")
        btx.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match=re.escape(f"{btx}: ") + said):
            self.open(tmp_path)

    def test_open_refuses_exactly_the_fences_that_do_not_ascend(self, tmp_path):
        # seeded flips of separator bits only, so every node keeps its shape
        # and fences_in_order can decode it; a flip can reorder a node's
        # separators, cross a fence in a neighbouring node, or neither
        levels, _ = self.build(tmp_path)
        assert len(levels) == 3
        btx = tmp_path / "rel.btx"
        index = btx.read_bytes()
        first_key = (tmp_path / "rel.tbl").read_bytes()[: self.KEY_BYTES]
        bits = [8 * (node_offset(self.PAGE, page_no) + 8) + bit
                for level in levels for page_no, seps, _ in level
                for bit in range(8 * self.KEY_BYTES * len(seps))]
        rng = SplitMix64(19)
        refused = 0
        for _ in range(300):
            bit = bits[rng.below(len(bits))]
            raw = bytearray(index)
            raw[bit // 8] ^= 1 << (bit % 8)
            fences = fences_in_order(bytes(raw), first_key)
            btx.write_bytes(bytes(raw))
            if all(a < b for a, b in zip(fences, fences[1:])):
                self.open(tmp_path).close()
            else:
                with pytest.raises(StorageError, match=re.escape(f"{btx}: ")):
                    self.open(tmp_path)
                refused += 1
        assert 0 < refused < 300

    def test_every_flip_outside_a_separator_is_refused(self, tmp_path):
        # seeded single-bit flips of each kind of byte a separator is not;
        # open compares them all with what build writes over the fences
        levels, _ = self.build(tmp_path)
        btx = tmp_path / "rel.btx"
        index = btx.read_bytes()
        kinds = {"metadata header": range(_META.size), "node header": [], "padding": []}
        for level in levels:
            for page_no, seps, _ in level:
                start = node_offset(self.PAGE, page_no)
                kinds["node header"] += range(start, start + 8)
                kinds["padding"] += range(start + 8 + self.KEY_BYTES * len(seps),
                                          start + self.PAGE)
        # the kinds hold every byte of the index but the separators'
        separators = sum(len(seps) for level in levels for _, seps, _ in level)
        assert sum(map(len, kinds.values())) == len(index) - separators * self.KEY_BYTES
        rng = SplitMix64(23)
        for offsets in kinds.values():
            for _ in range(500):
                at = offsets[rng.below(len(offsets))]
                raw = bytearray(index)
                raw[at] ^= 1 << rng.below(8)
                btx.write_bytes(bytes(raw))
                with pytest.raises(StorageError, match=re.escape(f"{btx}: ")):
                    self.open(tmp_path)

    def test_the_per_node_check_is_the_rebuild_compare(self, tmp_path, monkeypatch):
        # single-byte changes anywhere in a height-3 index, separators
        # included: the per-node check agrees with a rebuild of the whole
        # file over the separators read, and open accepts exactly what it
        # accepts with that rebuild in place of the check, or says the same
        levels, meta = self.build(tmp_path)
        assert meta.height == 3
        btx = tmp_path / "rel.btx"
        index = btx.read_bytes()
        blocks = -(-meta.entry_count // block_rows(self.PAGE, self.KEY_BYTES + 2))
        shaped, shape = _index_shape(self.PAGE, self.KEY_BYTES, meta.entry_count, blocks)
        assert shaped == meta

        def changed(at, flip):
            raw = bytearray(index)
            raw[at] ^= flip
            return bytes(raw)

        for at in range(len(index)):  # every byte, one bit each
            data = changed(at, 1 << at % 8)
            assert _framed(data, meta, shape) == framed_by_rebuild(data, meta, shape), at

        def outcome():
            try:
                self.open(tmp_path).close()
            except StorageError as exc:
                return str(exc)
            return None

        # each kind of byte as likely as another, then any byte of that kind
        kinds = {"metadata header": range(_META.size), "node header": [], "separator": [],
                 "padding": []}
        for level in levels:
            for page_no, seps, _ in level:
                start = node_offset(self.PAGE, page_no)
                end = start + 8 + self.KEY_BYTES * len(seps)
                kinds["node header"] += range(start, start + 8)
                kinds["separator"] += range(start + 8, end)
                kinds["padding"] += range(end, start + self.PAGE)
        assert sorted(at for offsets in kinds.values() for at in offsets) == list(
            range(len(index)))

        @seed(32)
        @settings(max_examples=300, deadline=None)
        @given(st.sampled_from(list(kinds.values())).flatmap(st.sampled_from),
               st.integers(1, 255))
        def check(at, flip):
            btx.write_bytes(changed(at, flip))
            said = outcome()
            with monkeypatch.context() as patch:
                patch.setattr(table_store, "_framed", framed_by_rebuild)
                assert outcome() == said

        check()


class TestRoutingCheck:
    """A damaged bottom-level separator fails exactly the lookups routed through it.

    A separator is read as it stands, so the block a descent reaches must
    start with the last separator it passed, or with the table's first
    key when it passed none.  Every other lookup must still answer as
    the undamaged index does.
    """

    CARDS = (30, 20, 10)
    PAGE = 256  # t = 10 and blocks of 18 rows: height 2 over 1,500 rows
    B = 18

    def build(self, tmp_path):
        cells = make_records(random_positions(cell_count(self.CARDS), 1500, seed=12), 2)
        build_table_files(tmp_path, cells, self.CARDS, 2, page_size=self.PAGE).close()
        table = (tmp_path / "rel.tbl").read_bytes()
        firsts = [table[off : off + 12] for off in range(0, len(table), self.B * 14)]
        levels = index_levels((tmp_path / "rel.btx").read_bytes())
        assert len(levels) == 2
        return table, firsts, levels

    def check(self, tmp_path, table, damaged, raw):
        """Open the damaged index; keys damaged() names must fail, the others answer."""
        btx = tmp_path / "rel.btx"
        btx.write_bytes(raw)
        failed = 0
        with TableStore.open(tmp_path / "rel.tbl", self.CARDS, 2, btx) as store:
            for coords in enumerate_box(self.CARDS):
                key = encode_key(coords)
                if damaged(key):
                    with pytest.raises(StorageError, match=re.escape(f"{btx}: block ")):
                        store.btree_lookup(coords)
                    failed += 1
                else:
                    assert store.btree_lookup(coords) == binary_search_rows(table, 12, 14, key)
        return failed

    def test_lowered_separator(self, tmp_path):
        table, firsts, levels = self.build(tmp_path)
        raw = bytearray((tmp_path / "rel.btx").read_bytes())
        page_no, seps, children = levels[1][1]
        i = len(seps) // 2
        block = children[i + 1]
        # lower the separator of block j to the last key of block j - 1: every
        # key that then passes it last is routed to block j and must fail
        lowered = table[((block - 1) * self.B - 1) * 14 :][:12]
        assert seps[i - 1] < lowered < seps[i] == firsts[block - 1]
        off = node_offset(self.PAGE, page_no) + 8 + 12 * i
        raw[off : off + 12] = lowered
        damaged = lambda key: lowered <= key < firsts[block]  # noqa: E731
        assert self.check(tmp_path, table, damaged, bytes(raw)) > 0


# (k, record width) of rows 5, 20, 128, 1508 and 2104 bytes wide; the
# last two give blocks of 4096 // row < 2 rows or just 2, so B clamps to 2.
ROW_SHAPES = [(1, 1), (3, 8), (2, 120), (2, 1500), (1, 2100)]


def write_relation(tmp_path, k: int, width: int, r: int, name: str = "rel"):
    """A seeded r-row table in a box of about 1.5 r cells; returns (tbl, cards)."""
    cards = (-(-(3 * r // 2 + 3) // 3 ** (k - 1)),) + (3,) * (k - 1)
    positions = random_positions(cell_count(cards), r, seed=r * 7 + k)
    tbl = tmp_path / f"{name}.tbl"
    with open(tbl, "wb") as f:
        write_table(
            ((delinearize(p, cards), rec) for p, rec in make_records(positions, width)),
            f, cards, width,
        )
    return tbl, cards


def open_indexed(tbl, cards, width: int, page_size: int | None = None) -> TableStore:
    """Index tbl at page_size, beside it as <stem>.btx, and open both."""
    btx = tbl.with_suffix(".btx")
    build_index_from_table(tbl, btx, len(cards), width, page_size)
    return TableStore.open(tbl, cards, width, btx)


class CountedPread:
    """os.pread wrapper that counts calls per file descriptor."""

    def __init__(self, pread):
        self.pread = pread
        self.calls: dict[int, int] = {}

    def __call__(self, fd, size, offset):
        self.calls[fd] = self.calls.get(fd, 0) + 1
        return self.pread(fd, size, offset)


class TestSearchMatchesReference:
    """Both C-level searches give the record number of the plain loops in oracle."""

    @pytest.mark.parametrize("k,width", ROW_SHAPES)
    def test_every_coordinate(self, tmp_path, k, width):
        # r around the blocks of a 4096-byte index; the 128- and 256-byte
        # indexes cut the same tables into blocks of a few rows
        b = block_rows(DEFAULT_PAGE_SIZE, k * KEY_FIELD_WIDTH + width)
        for r in sorted({0, 1, b - 1, b, b + 1, 2 * b, 3 * b - 1, 3 * b + 1}):
            tbl, cards = write_relation(tmp_path, k, width, r)
            table = tbl.read_bytes()
            key_bytes = k * KEY_FIELD_WIDTH
            row = key_bytes + width
            coords = enumerate_box(cards)
            keys = [encode_key(c) for c in coords]
            expected = [binary_search_rows(table, key_bytes, row, key) for key in keys]
            assert sum(e is not None for e in expected) == r
            for page_size in (128, 256, 4096):
                with open_indexed(tbl, cards, width, page_size) as store:
                    index = tbl.with_suffix(".btx").read_bytes()
                    assert [store.binary_search_lookup(c) for c in coords] == expected
                    for c, expect in zip(coords, expected):
                        assert btree_lookup_by_pages(index, table, row, c) == expect
                        assert store.btree_lookup(c) == expect

    def test_row_read_counter_is_exact(self, tmp_path, monkeypatch):
        k, width = 3, 8
        b = block_rows(DEFAULT_PAGE_SIZE, k * KEY_FIELD_WIDTH + width)
        counted = CountedPread(os.pread)
        monkeypatch.setattr(os, "pread", counted)
        for r in sorted({1, 2, b - 1, b, b + 1, 2 * b, 5 * b - 1, 7 * b + 1}):
            tbl, cards = write_relation(tmp_path, k, width, r)
            bound = math.floor(math.log2(r)) + 1
            with open_indexed(tbl, cards, width) as store:
                fd = store._tbl_fd
                for c in enumerate_box(cards):
                    before = counted.calls.get(fd, 0)
                    store.binary_search_lookup(c)
                    assert store.last_row_reads == counted.calls[fd] - before
                    assert store.last_row_reads <= bound


class TestReadOnce:
    """A lookup hit keeps its record, so read_measures of it reads nothing more."""

    K, WIDTH, ROWS = 3, 8, 700

    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        """(store, records by record number, pread counter) over a 256-byte-page index."""
        tbl, cards = write_relation(tmp_path, self.K, self.WIDTH, self.ROWS)
        btx = tmp_path / "rel.btx"
        build_index_from_table(tbl, btx, self.K, self.WIDTH, 256)
        records = dict(enumerate((rec for _, rec in iter_table_cells(tbl, self.K, self.WIDTH)),
                                 1))
        counted = CountedPread(os.pread)
        monkeypatch.setattr(os, "pread", counted)
        with TableStore.open(tbl, cards, self.WIDTH, btx) as store:
            assert store.meta.height >= 2
            yield store, records, counted

    @staticmethod
    def reads(store, counted) -> int:
        return counted.calls.get(store._tbl_fd, 0)

    def test_a_lookup_and_its_record_read_the_table_as_the_lookup_counts(self, store):
        # a B-tree lookup reads its block and nothing more, a binary search
        # last_row_reads times; a hit's read_measures adds no read to either
        store, records, counted = store
        hits = 0
        for c in enumerate_box(store.cards):
            for lookup, count in ((store.btree_lookup, lambda: 1),
                                  (store.binary_search_lookup, lambda: store.last_row_reads)):
                before = self.reads(store, counted)
                recno = lookup(c)
                if recno is not None:
                    assert store.read_measures(recno) == records[recno]
                    hits += 1
                assert self.reads(store, counted) - before == count(), (lookup.__name__, c)
        assert hits == 2 * self.ROWS

    def test_any_other_record_is_read_once(self, store):
        store, records, counted = store
        kept = store.btree_lookup(store.read_row(350)[0])
        assert kept == 350
        for recno in records:
            before = self.reads(store, counted)
            assert store.read_measures(recno) == records[recno]
            assert self.reads(store, counted) - before == (recno != kept)

    def test_interleaved_lookups(self, store):
        store, records, counted = store
        a, b = store.read_row(10)[0], store.read_row(600)[0]
        miss = next(c for c in enumerate_box(store.cards) if store.btree_lookup(c) is None)
        for first, then in ((store.btree_lookup, store.binary_search_lookup),
                            (store.binary_search_lookup, store.btree_lookup)):
            # hit A, hit B: A's record is read from the table, and is A's
            assert (first(a), then(b)) == (10, 600)
            before = self.reads(store, counted)
            assert store.read_measures(10) == records[10]
            assert self.reads(store, counted) - before == 1
            assert store.read_measures(600) == records[600]
            # hit A, miss C: the miss leaves A's record in place
            assert (first(a), then(miss)) == (10, None)
            before = self.reads(store, counted)
            assert store.read_measures(10) == records[10]
            assert self.reads(store, counted) == before

    def test_kept_record_is_the_one_the_lookup_searched(self, tmp_path, store):
        # the table rewritten in place between a lookup and read_measures:
        # the answer is the searched block's record, not the new file's
        store, records, counted = store
        tbl = tmp_path / "rel.tbl"
        table = tbl.read_bytes()
        recno = store.btree_lookup(store.read_row(123)[0])
        tbl.write_bytes(bytes(len(table)))
        assert store.read_measures(recno) == records[123]
        assert store.read_measures(124) == bytes(self.WIDTH)

    def test_close_forgets_the_record(self, store):
        store, records, counted = store
        recno = store.btree_lookup(store.read_row(5)[0])
        assert store.read_measures(recno) == records[5]
        store.close()
        with pytest.raises(OSError) as failure:
            store.read_measures(recno)
        assert failure.value.errno == errno.EBADF


class TestOneBlockGeometry:
    """Both searches read the index's blocks, and the page count is fixed at open."""

    K, WIDTH, ROWS = 3, 8, 700

    def test_binary_search_reads_index_blocks_and_no_index_page(self, tmp_path, monkeypatch):
        tbl, cards = write_relation(tmp_path, self.K, self.WIDTH, self.ROWS)
        store = open_indexed(tbl, cards, self.WIDTH, 256)
        inodes = {os.stat(tmp_path / f"rel.{ext}").st_ino: ext for ext in ("tbl", "btx")}
        real_pread = os.pread
        reads = []

        def recording_pread(fd, size, offset):
            reads.append((inodes.get(os.fstat(fd).st_ino), size, offset))
            return real_pread(fd, size, offset)

        with store:
            # 20-byte rows: blocks of 12 rows at 256-byte pages, not 204 at 4096
            assert store.leaf_rows == block_rows(256, 20) == 12
            block = store.leaf_rows * store.row_bytes
            monkeypatch.setattr(os, "pread", recording_pread)
            for coords in enumerate_box(cards):  # hits and misses
                reads.clear()
                store.binary_search_lookup(coords)
                assert all(f == "tbl" and size <= block for f, size, _ in reads), coords
                assert reads[-1][2] % block == 0  # the searched block is an index block
                reads.clear()
                store.btree_lookup(coords)
                assert [f for f, _, _ in reads] == ["tbl"]

    @pytest.mark.parametrize("page_size", [88, 256, 4096])
    def test_page_reads_are_set_at_open(self, tmp_path, page_size):
        tbl, cards = write_relation(tmp_path, self.K, self.WIDTH, self.ROWS)
        with open_indexed(tbl, cards, self.WIDTH, page_size) as store:
            assert store.last_page_reads == store.meta.height + 1
            for coords in enumerate_box(cards)[::37]:
                store.btree_lookup(coords)
                assert store.last_page_reads == store.meta.height + 1


class TestTruncatedTable:
    """A .tbl cut after open raises StorageError or still gives the right row."""

    @pytest.mark.parametrize("k,width,r", [(3, 8, 1000), (1, 1, 2000), (2, 1500, 9)])
    def test_every_cut(self, tmp_path, k, width, r):
        tbl, cards = write_relation(tmp_path, k, width, r)
        table = tbl.read_bytes()
        key_bytes = k * KEY_FIELD_WIDTH
        row = key_bytes + width
        b = block_rows(DEFAULT_PAGE_SIZE, row)
        coords = enumerate_box(cards)
        expected = [binary_search_rows(table, key_bytes, row, encode_key(c)) for c in coords]
        cuts = {
            "zero": 0,
            "block boundary": 2 * b * row,
            "half the rows": r // 2 * row,
            "all but one row": (r - 1) * row,
            "middle of a row": (r // 3) * row + key_bytes + width // 2,
            "middle of a key": (2 * r // 3) * row + key_bytes // 2,
            "last byte": r * row - 1,
        }
        answered = {}
        for what, size in cuts.items():
            tbl.write_bytes(table)
            with open_indexed(tbl, cards, width) as store:
                os.truncate(tbl, size)
                answered[what] = 0
                for c, expect in zip(coords, expected):
                    try:
                        got = store.binary_search_lookup(c)
                    except StorageError as exc:
                        assert str(tbl) in str(exc)
                        continue
                    assert got == expect, (what, c)
                    answered[what] += 1
                with pytest.raises(StorageError):
                    list(store.iter_rows())
            assert answered[what] < len(coords), what
        # a short key probe steers the search to a later block, whose
        # read then fails; lookups whose probes all precede the cut answer
        assert answered["zero"] == 0
        assert answered["last byte"] > 0


class TestIterRows:
    def test_blocks_match_row_reads(self, tmp_path, monkeypatch):
        k, width, r = 2, 3, 2 * 2048 + 5
        tbl, cards = write_relation(tmp_path, k, width, r)
        counted = CountedPread(os.pread)
        with open_indexed(tbl, cards, width) as store:
            monkeypatch.setattr(os, "pread", counted)
            rows = list(store.iter_rows())
            assert counted.calls[store._tbl_fd] == 3
            assert rows == list(iter_table_cells(tbl, k, width))
            assert rows == [store.read_row(recno) for recno in range(1, r + 1)]


# The smallest page whose internal node fits 2t >= 4 children of 4k-byte
# separators: (page - 8) // (2 * 4k) >= 2 gives 24, 40, 56 and 72 bytes
# for k = 1..4, and no page is below 64 bytes.
SMALLEST_PAGE = {1: 64, 2: 64, 3: 64, 4: 72}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_smallest_page(k):
    smallest = SMALLEST_PAGE[k]
    assert resolve_page_size(smallest) == smallest
    assert min_degree(smallest, 4 * k) == {1: 7, 2: 3, 3: 2, 4: 2}[k]
    with pytest.raises(ParameterError):
        min_degree(resolve_page_size(smallest - 1), 4 * k)


@given(k=st.integers(1, 4), record_width=st.integers(0, 2100),
       page=st.one_of(st.integers(64, 160), st.integers(64, DEFAULT_PAGE_SIZE)),
       rows=st.sampled_from(["0", "1", "B", "B + 1", "blocks"]),
       blocks=st.integers(2, 60), seed=st.integers(0, 2**16))
@example(k=1, record_width=2100, page=4096, rows="blocks", blocks=7, seed=1)  # B = 2 < t = 511
@example(k=2, record_width=120, page=4096, rows="blocks", blocks=9, seed=2)  # B = 32 < t = 255
@example(k=3, record_width=30, page=64, rows="blocks", blocks=20, seed=3)  # B = 2 = t, height 3
@example(k=4, record_width=0, page=104, rows="B + 1", blocks=2, seed=4)  # B = 6 > t = 3
@settings(max_examples=60, deadline=None)
def test_block_shapes_agree_with_the_dense_oracle(k, record_width, page, rows, blocks, seed):
    """Both table searches equal a dense oracle over blocks of every shape.

    k = 1..4, records of 0..2,100 bytes and index pages from the
    smallest valid one (SMALLEST_PAGE) to 4096 bytes give blocks of
    B = 2 up to over a thousand rows, B below, at and above t, and
    r of 0, 1, B, B + 1 or several blocks (at most 2,000 rows).  Every
    coordinate of the box is looked up, and no B-tree lookup visits
    more nodes than worst_case_page_reads allows.
    """
    page_size = max(page, SMALLEST_PAGE[k])
    key_bytes = k * KEY_FIELD_WIDTH
    t = min_degree(page_size, key_bytes)
    b = block_rows(page_size, key_bytes + record_width)
    r = {"0": 0, "1": 1, "B": b, "B + 1": b + 1,
         "blocks": blocks * b + seed % b}[rows]
    r = min(r, 2000)
    cards = (-(-(3 * r // 2 + 3) // 3 ** (k - 1)),) + (3,) * (k - 1)
    positions = random_positions(cell_count(cards), r, seed=seed)
    cells = make_records(positions, record_width)
    dense = dict(cells)
    with tempfile.TemporaryDirectory() as tmp:
        with build_table_files(Path(tmp), cells, cards, record_width,
                               page_size=page_size) as store:
            assert (store.leaf_rows, store.meta.t) == (b, t)
            bound = worst_case_page_reads(r, t)
            for coords in enumerate_box(cards):
                recno = store.btree_lookup(coords)
                assert store.last_page_reads <= bound
                assert recno == store.binary_search_lookup(coords)
                got = None if recno is None else store.read_measures(recno)
                assert got == dense.get(linearize(coords, cards)), coords
