"""Sorted table file and its disk B-tree index."""

import math
import os
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestore import (
    DatasetError,
    DuplicateKeyError,
    MalformedInputError,
    NotSortedError,
    ParameterError,
    RangeError,
    StorageError,
    TableStore,
    build_table,
    cell_count,
    delinearize,
    encode_key,
    linearize,
    worst_case_page_reads,
)
from cubestore.table_store import (
    DEFAULT_PAGE_SIZE,
    KEY_FIELD_WIDTH,
    build_index_from_table,
    decode_key,
    iter_table_cells,
    leaf_capacity,
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
    index_keys_by_value,
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
        # (4096 - 8) // (2 * (12 + 8)) = 102 for three 4-byte key fields
        assert min_degree(4096, 12) == 102
        assert min_degree(256, 12) == 6
        with pytest.raises(Exception):
            min_degree(64, 100)

    def test_leaf_capacity(self):
        # (4096 - 16) // 12 = 340 keys after the 16-byte leaf header
        assert leaf_capacity(4096, 12) == 340
        assert leaf_capacity(256, 12) == 20
        for page_size in (64, 128, 256, 4096, 65536):
            for key_bytes in range(4, 80, 4):
                if page_size >= 4 * key_bytes + 40:  # where min_degree gives t >= 2
                    t = min_degree(page_size, key_bytes)
                    assert leaf_capacity(page_size, key_bytes) >= 2 * t
        # the largest page keeps every key count within 16 bits
        assert leaf_capacity(65536, 4) < 2**16
        with pytest.raises(ParameterError, match="page size 65537 is too large"):
            resolve_page_size(65537)

    def test_resolve_page_size(self, monkeypatch):
        monkeypatch.delenv("CUBESTORE_PAGE_SIZE", raising=False)
        assert resolve_page_size(None) == 4096
        assert resolve_page_size(512) == 512
        monkeypatch.setenv("CUBESTORE_PAGE_SIZE", "1024")
        assert resolve_page_size(None) == 1024
        assert resolve_page_size(512) == 512  # explicit argument wins

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
                    "rel.tbl: short read of the record of row 3")):
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

    def test_lookup_without_index(self, tmp_path):
        positions = [3, 8]
        cells = make_records(positions, 3)
        tbl = tmp_path / "plain.tbl"
        with open(tbl, "wb") as f:
            write_table(
                iter([(delinearize(p, self.CARDS), rec) for p, rec in cells]),
                f, self.CARDS, 3,
            )
        with TableStore.open(tbl, self.CARDS, 3) as store:
            assert store.binary_search_lookup(delinearize(8, self.CARDS)) == 2
            with pytest.raises(DatasetError):
                store.btree_lookup((1, 1, 1))


class TestNodeInvariants:
    CARDS = (30, 20, 10)

    def test_occupancy(self, tmp_path):
        total = cell_count(self.CARDS)
        positions = random_positions(total, 1500, seed=9)
        cells = make_records(positions, 2)
        store = build_table_files(tmp_path, cells, self.CARDS, 2, page_size=128)
        with store:
            t = store.meta.t
            assert store.meta.height >= 2  # the tree actually has internal levels
            cap = store.leaf_capacity
            # every coordinate is at most 30, so the keys are 3 bytes
            assert cap == leaf_capacity(128, 3) == 37
            leaf_total = 0
            for page_no, is_leaf, count in store.iter_nodes():
                if is_leaf:
                    leaf_total += count
                    if page_no != store.meta.root:
                        assert t - 1 <= count <= cap
                else:
                    # count is the key count; child count is one more
                    assert count + 1 <= 2 * t
                    if page_no != store.meta.root:
                        assert count + 1 >= t
                    else:
                        assert count + 1 >= 2
            assert leaf_total == store.row_count

    def test_one_index_pread_per_lookup(self, tmp_path, monkeypatch):
        total = cell_count(self.CARDS)
        cells = make_records(random_positions(total, 1500, seed=9), 2)
        store = build_table_files(tmp_path, cells, self.CARDS, 2, page_size=128)
        btx_inode = os.stat(tmp_path / "rel.btx").st_ino
        real_pread = os.pread
        index_reads = []

        def counting_pread(fd, length, offset):
            if os.fstat(fd).st_ino == btx_inode:
                index_reads.append(offset)
            return real_pread(fd, length, offset)

        with store:
            assert store.meta.height >= 2
            monkeypatch.setattr(os, "pread", counting_pread)
            for coords in enumerate_box(self.CARDS):  # hits and misses
                index_reads.clear()
                store.btree_lookup(coords)
                assert len(index_reads) == 1
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
    """Index keys keep the fewest of 1, 2 or 4 bytes per field that hold the stored data."""

    @pytest.mark.parametrize("top,width", [(255, 1), (256, 2), (65_535, 2), (65_536, 4)])
    @pytest.mark.parametrize("dim", [0, 1])
    def test_width_follows_the_largest_stored_coordinate(self, tmp_path, top, width, dim):
        cards = (top, 3) if dim == 0 else (3, top)
        highest = (top, 3) if dim == 0 else (3, top)
        below = (top - 1, 3) if dim == 0 else (3, top - 1)
        cells = sorted([((1, 1), b"ab"), ((2, 2), b"cd"), (highest, b"ef")],
                       key=lambda cell: encode_key(cell[0]))
        tbl, btx = tmp_path / "t.tbl", tmp_path / "t.btx"
        build_table(iter(cells), tbl, btx, cards, 2)
        with TableStore.open(tbl, cards, 2, btx) as store:
            assert store.meta.key_bytes == 2 * width
            assert store.key_bytes == 2 * KEY_FIELD_WIDTH  # the table keeps 4-byte fields
            for recno, (coords, _) in enumerate(cells, 1):
                assert store.btree_lookup(coords) == recno
                assert btree_lookup_by_pages(btx.read_bytes(), coords) == recno
            assert store.btree_lookup(below) is None

    @pytest.mark.parametrize("cards,width", [((40, 7, 3), 1), ((300, 2), 2), ((70_000, 2), 4)])
    @pytest.mark.parametrize("page_size", [128, 4096])
    def test_both_builds_write_the_reference_bytes(self, tmp_path, cards, width, page_size):
        positions = random_positions(cell_count(cards), 400, seed=5)
        cells = [(delinearize(p, cards), rec) for p, rec in make_records(positions, 2)]
        tbl = tmp_path / "t.tbl"
        build_table(iter(cells), tbl, tmp_path / "a.btx", cards, 2, page_size)
        meta = build_index_from_table(tbl, tmp_path / "b.btx", len(cards), 2, page_size)
        key_bytes, keys = index_keys_by_value([c for c, _ in cells], len(cards))
        assert meta.key_bytes == key_bytes == len(cards) * width
        build_index_in_memory(keys, tmp_path / "ref.btx", key_bytes, page_size)
        ref = (tmp_path / "ref.btx").read_bytes()
        assert (tmp_path / "a.btx").read_bytes() == ref
        assert (tmp_path / "b.btx").read_bytes() == ref

    def test_empty_table_has_one_byte_fields(self, tmp_path):
        with build_table_files(tmp_path, [], (300, 2), 2) as store:
            assert store.meta.key_bytes == 2
            assert store.btree_lookup((300, 2)) is None

    def test_open_slices_at_most_the_rows(self, tmp_path):
        # one-byte keys in a 64 KB page: L is 65,520, but a 3-row table
        # needs no more than 3 key slices in a leaf or a block
        with build_table_files(tmp_path, make_records([1, 2, 5]), (8,), 3,
                               page_size=65_536) as store:
            assert store.leaf_capacity == 65_520
            assert len(store._leaf_keys) == len(store._row_keys) == 3
            assert [store.btree_lookup((i,)) for i in range(1, 9)] == [1, 2, None, None, 3,
                                                                      None, None, None]


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

    def test_env_page_size(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CUBESTORE_PAGE_SIZE", "512")
        cells = make_records(list(range(1, 20)), 2)
        store = build_table_files(tmp_path, cells, (24,), 2)
        with store:
            assert store.meta.page_size == 512


class TestIndexCorruption:
    """A damaged .btx raises StorageError at open or lookup, never a wrong row."""

    CARDS = (30, 20, 10)
    KEY_BYTES = 3  # every coordinate fits in one byte
    PAGE = 128  # small enough for a tree of height 2 over 1,500 rows
    # byte offsets of the version, t and root in the metadata page
    META_VERSION = 4
    META_T = 12
    META_KEY_BYTES = 16
    META_ROOT = 20
    # byte offsets of a leaf's key count and first record number in its page
    LEAF_COUNT = 2
    LEAF_FIRST = 8

    def build(self, tmp_path):
        total = cell_count(self.CARDS)
        cells = make_records(random_positions(total, 1500, seed=9), 2)
        with build_table_files(tmp_path, cells, self.CARDS, 2,
                               page_size=self.PAGE) as store:
            assert store.meta.height >= 2
            rows = [coords for coords, _ in store.iter_rows()]
            nodes = list(store.iter_nodes())
            meta = store.meta
        return rows, nodes, meta

    def open(self, tmp_path):
        return TableStore.open(tmp_path / "rel.tbl", self.CARDS, 2, tmp_path / "rel.btx")

    def first_child_offset(self, page_no, count):
        """Offset of an internal node's first child number: after header and separators."""
        return page_no * self.PAGE + 8 + count * self.KEY_BYTES

    def test_truncated_by_one_page(self, tmp_path):
        self.build(tmp_path)
        btx = tmp_path / "rel.btx"
        btx.write_bytes(btx.read_bytes()[: -self.PAGE])
        with pytest.raises(StorageError, match="rel.btx: size"):
            self.open(tmp_path)

    def test_version_1_index(self, tmp_path):
        self.build(tmp_path)
        btx = tmp_path / "rel.btx"
        raw = bytearray(btx.read_bytes())
        struct.pack_into("<H", raw, self.META_VERSION, 1)
        btx.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match=re.escape(
                f"{btx}: unsupported index version 1, expected 3; rebuild it")):
            self.open(tmp_path)

    def test_version_2_index(self, tmp_path):
        # version 2 stored every key field in 4 bytes; it is not read
        self.build(tmp_path)
        btx = tmp_path / "rel.btx"
        raw = bytearray(btx.read_bytes())
        struct.pack_into("<H", raw, self.META_VERSION, 2)
        btx.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match=re.escape(
                f"{btx}: unsupported index version 2, expected 3; rebuild it with "
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
                f"{btx}: index keys are {key_bytes} bytes, not 1, 2 or 4 bytes "
                f"for each of the table's 3 key fields")):
            self.open(tmp_path)

    @pytest.mark.parametrize("field", ["root past nodes", "root zero", "wrong t"])
    def test_bad_metadata(self, tmp_path, field):
        _, _, meta = self.build(tmp_path)
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

    @pytest.mark.parametrize("damage", [
        "internal type byte", "child past node count", "swapped separators",
        "leaf type byte", "child reached twice", "leaf count above L",
        "leaf count zero", "first record past entry count", "first record zero",
    ])
    def test_damaged_node(self, tmp_path, damage):
        rows, nodes, meta = self.build(tmp_path)
        btx = tmp_path / "rel.btx"
        raw = bytearray(btx.read_bytes())
        counts = {page_no: count for page_no, _, count in nodes}
        root = meta.root
        if damage == "internal type byte":
            raw[root * self.PAGE] = 0  # the leaf type
        elif damage == "child past node count":
            off = self.first_child_offset(root, counts[root])
            struct.pack_into("<Q", raw, off, meta.node_count + 1)
        elif damage == "swapped separators":
            page_no = next(p for p, is_leaf, n in nodes
                           if not is_leaf and p != root and n >= 2)
            first = page_no * self.PAGE + 8
            second = first + self.KEY_BYTES
            raw[first:second], raw[second : second + self.KEY_BYTES] = (
                raw[second : second + self.KEY_BYTES], raw[first:second])
        elif damage == "leaf type byte":
            raw[self.PAGE] = 1  # page 1 is the first leaf; 1 is the internal type
        elif damage.startswith("leaf count"):
            count = leaf_capacity(self.PAGE, self.KEY_BYTES) + 1 if "above" in damage else 0
            struct.pack_into("<H", raw, self.PAGE + self.LEAF_COUNT, count)
        elif damage.startswith("first record"):
            # the last leaf's keys would end one row past the table
            page_no = max(p for p, is_leaf, _ in nodes if is_leaf)
            first = meta.entry_count - counts[page_no] + 2 if "past" in damage else 0
            struct.pack_into("<Q", raw, page_no * self.PAGE + self.LEAF_FIRST, first)
        else:
            first = self.first_child_offset(root, counts[root])
            raw[first + 8 : first + 16] = raw[first : first + 8]
        btx.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="rel.btx: page"):
            with self.open(tmp_path) as store:
                for recno, coords in enumerate(rows, 1):
                    assert store.btree_lookup(coords) == recno


# (k, record width) of rows 5, 20, 128, 1508 and 2104 bytes wide; the
# last two give blocks of 4096 // row < 2 rows or just 2, so B clamps to 2.
ROW_SHAPES = [(1, 1), (3, 8), (2, 120), (2, 1500), (1, 2100)]


def block_rows(k: int, width: int) -> int:
    return max(2, DEFAULT_PAGE_SIZE // (k * KEY_FIELD_WIDTH + width))


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
        b = block_rows(k, width)
        for r in sorted({0, 1, b - 1, b, b + 1, 2 * b, 3 * b - 1, 3 * b + 1}):
            tbl, cards = write_relation(tmp_path, k, width, r)
            table = tbl.read_bytes()
            key_bytes = k * KEY_FIELD_WIDTH
            row = key_bytes + width
            coords = enumerate_box(cards)
            keys = [encode_key(c) for c in coords]
            expected = [binary_search_rows(table, key_bytes, row, key) for key in keys]
            assert sum(e is not None for e in expected) == r
            with TableStore.open(tbl, cards, width) as store:
                assert [store.binary_search_lookup(c) for c in coords] == expected
            for page_size in (128, 256, 4096):
                btx = tmp_path / f"rel{page_size}.btx"
                build_index_from_table(tbl, btx, k, width, page_size)
                index = btx.read_bytes()
                with TableStore.open(tbl, cards, width, btx) as store:
                    for c, expect in zip(coords, expected):
                        assert btree_lookup_by_pages(index, c) == expect
                        assert store.btree_lookup(c) == expect

    def test_row_read_counter_is_exact(self, tmp_path, monkeypatch):
        k, width = 3, 8
        b = block_rows(k, width)
        counted = CountedPread(os.pread)
        monkeypatch.setattr(os, "pread", counted)
        for r in sorted({1, 2, b - 1, b, b + 1, 2 * b, 5 * b - 1, 7 * b + 1}):
            tbl, cards = write_relation(tmp_path, k, width, r)
            bound = math.floor(math.log2(r)) + 1
            with TableStore.open(tbl, cards, width) as store:
                fd = store._tbl_fd
                for c in enumerate_box(cards):
                    before = counted.calls.get(fd, 0)
                    store.binary_search_lookup(c)
                    assert store.last_row_reads == counted.calls[fd] - before
                    assert store.last_row_reads <= bound


class TestTruncatedTable:
    """A .tbl cut after open raises StorageError or still gives the right row."""

    @pytest.mark.parametrize("k,width,r", [(3, 8, 1000), (1, 1, 2000), (2, 1500, 9)])
    def test_every_cut(self, tmp_path, k, width, r):
        tbl, cards = write_relation(tmp_path, k, width, r)
        table = tbl.read_bytes()
        key_bytes = k * KEY_FIELD_WIDTH
        row = key_bytes + width
        b = block_rows(k, width)
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
            with TableStore.open(tbl, cards, width) as store:
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
        monkeypatch.setattr(os, "pread", counted)
        with TableStore.open(tbl, cards, width) as store:
            rows = list(store.iter_rows())
            assert counted.calls[store._tbl_fd] == 3
            assert rows == list(iter_table_cells(tbl, k, width))
            assert rows == [store.read_row(recno) for recno in range(1, r + 1)]
