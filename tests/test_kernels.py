"""Compiled coordinate kernels against linearize and encode_key, and the
out-of-box behaviour they give all three lookup paths."""

import gc
import os
import random
import struct
import sys
import tempfile
import threading
import weakref
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import CodeType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestore import (
    ArrayStore, RangeError, SplitMix64, cell_count, delinearize, encode_key, linearize,
)
from cubestore.linearizer import U64_MAX, key_kernel, position_kernel
from cubestore.table_store import write_table
from conftest import (
    build_array_files, build_both_headers, build_table_files, make_records, random_positions,
)

# 3 * 5 * 17 * 257 * 641 * 65537 * 6700417 = 2**64 - 1 cells
FULL_BOX = (3, 5, 17, 257, 641, 65537, 6700417)


def kernels(cards):
    pack = struct.Struct(f">{len(cards)}I").pack
    return position_kernel(cards), key_kernel(cards, pack)


def raised(fn, arg):
    """(type, message) of what fn(arg) raises, or None."""
    try:
        fn(arg)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@st.composite
def boxes(draw):
    k = draw(st.integers(1, 8))
    # each card below 2**(64 // k) keeps the cell count within 64 bits,
    # and below 2**32 keeps every coordinate packable as a key field
    hi = min(2**32 - 1, 2 ** (64 // k) - 1)
    return tuple(draw(st.one_of(st.integers(1, 4), st.integers(1, hi))) for _ in range(k))


@st.composite
def box_and_coords(draw):
    cards = draw(boxes())
    coords = tuple(draw(st.integers(1, c)) for c in cards)
    return cards, coords


@st.composite
def box_and_rejected(draw):
    """A box and an input linearize rejects for it."""
    cards = draw(boxes())
    k = len(cards)
    coords = [draw(st.integers(1, c)) for c in cards]
    j = draw(st.integers(0, k - 1))
    kind = draw(st.sampled_from(
        ["short", "long", "zero", "above", "negative", "text", "types",
         "none", "int", "set", "iterator"]))
    if kind == "short":
        bad = coords[:-1]
    elif kind == "long":
        bad = coords + [1]
    elif kind == "zero":
        bad = coords[:j] + [0] + coords[j + 1:]
    elif kind == "above":
        bad = coords[:j] + [cards[j] + 1] + coords[j + 1:]
    elif kind == "negative":
        bad = coords[:j] + [draw(st.integers(-2**40, -1))] + coords[j + 1:]
    elif kind == "text":
        bad = coords[:j] + ["1"] + coords[j + 1:]
    elif kind == "types":  # linearize compares the last coordinate first
        bad = ["1"] * (k - 1) + [None]
    else:
        return cards, {"none": None, "int": coords[0], "set": set(coords),
                       "iterator": iter(coords)}[kind]
    return cards, draw(st.sampled_from([tuple(bad), bad]))


@given(box_and_coords(), st.booleans())
@settings(max_examples=300)
def test_kernels_match_references_in_box(case, as_list):
    cards, coords = case
    if as_list:
        coords = list(coords)
    position, key = kernels(cards)
    assert position(coords) == linearize(coords, cards)
    assert key(coords) == encode_key(coords)


@given(box_and_rejected())
@settings(max_examples=300)
def test_kernels_raise_what_linearize_raises(case):
    cards, bad = case
    expected = raised(lambda c: linearize(c, cards), bad)
    assert expected is not None
    position, key = kernels(cards)
    assert raised(position, bad) == expected
    assert raised(key, bad) == expected


def test_full_64_bit_box():
    position, key = kernels(FULL_BOX)
    for coords in [(1,) * 7, FULL_BOX, (2, 4, 16, 256, 640, 65536, 6700416)]:
        assert position(coords) == linearize(coords, FULL_BOX)
        assert key(coords) == encode_key(coords)
    assert position(FULL_BOX) == U64_MAX
    over = FULL_BOX[:-1] + (FULL_BOX[-1] + 1,)
    assert raised(position, over) == raised(key, over) == (
        RangeError, f"coordinate 7 is {FULL_BOX[-1] + 1}, outside 1..{FULL_BOX[-1]}")


def test_other_sequences_go_through_linearize():
    cards = (4, 3)
    position, key = kernels(cards)
    assert position(range(2, 4)) == linearize((2, 3), cards)
    assert key(range(2, 4)) == encode_key((2, 3))


HIT_DENSE_CARDS = (60, 70, 50)
OUT_OF_BOX = [(1, 1), (1, 1, 1, 1), (0, 1, 1), (61, 1, 1), (-1, 1, 1), (2**32, 1, 1)]


@pytest.fixture
def both_stores(tmp_path):
    cells = make_records(random_positions(60 * 70 * 50, 500), 8)
    array = build_array_files(tmp_path, cells, HIT_DENSE_CARDS, 8)
    table = build_table_files(tmp_path, cells, HIT_DENSE_CARDS, 8)
    yield array, table
    array.close()
    table.close()


@pytest.mark.parametrize("coords", OUT_OF_BOX)
def test_out_of_box_raises_the_same_range_error_on_every_path(both_stores, coords):
    array, table = both_stores
    expected = raised(lambda c: linearize(c, HIT_DENSE_CARDS), coords)
    assert expected[0] is RangeError
    for path in (array.get_cell, table.btree_lookup, table.binary_search_lookup):
        assert raised(path, coords) == expected, path.__name__


def constants(code: CodeType):
    """Every constant of a code object and of the code objects nested in it."""
    for value in code.co_consts:
        if isinstance(value, CodeType):
            yield from constants(value)
        else:
            yield value


def test_stores_of_one_k_share_the_compiled_kernels(tmp_path):
    # cards no constant of the compiled source could equal by chance
    boxes = [(41, 43, 47), (53, 59, 61)]
    cells = make_records([1, 5, 9], 3)
    arrays = []
    for name, cards in zip("ab", boxes):
        (tmp_path / name).mkdir()
        arrays.append(build_both_headers(tmp_path / name, [1, 5, 9], cards))
    (a, a_mem), (b, b_mem) = arrays
    with a, a_mem, b, b_mem, \
            build_table_files(tmp_path / "a", cells, boxes[0], 3) as ta, \
            build_table_files(tmp_path / "b", cells, boxes[1], 3) as tb:
        assert ta._key.__code__ is tb._key.__code__
        # one code object per k, whatever the cards and the header's state
        assert a.get_cell is not b.get_cell
        assert a.get_cell.__code__ is b.get_cell.__code__
        assert a.get_cell.__code__ is a_mem.get_cell.__code__ is b_mem.get_cell.__code__
        with build_array_files(tmp_path, cells, (41, 43), 3) as k2:
            assert k2.get_cell.__code__ is not a.get_cell.__code__
        for store in (a, ta):
            code = (store._key if store is ta else store.get_cell).__code__
            assert not set(boxes[0] + boxes[1]) & set(constants(code))
        for store in (a, a_mem):
            assert store.get_cell((5, 1, 1)) == cells[1][1]
        assert position_kernel(boxes[0]).__code__ is position_kernel(boxes[1]).__code__
        assert position_kernel((4, 3)).__code__ is not position_kernel(boxes[0]).__code__


def test_a_closed_dropped_store_is_freed_without_the_cyclic_collector(tmp_path):
    stores = list(build_both_headers(tmp_path, [1, 5, 9], (4, 3, 2)))
    while stores:
        store = stores.pop()
        assert store.get_cell((1, 1, 1)) is not None
        refs = [weakref.ref(store), weakref.ref(store._file)]
        header = store.header  # a header takes no weak reference
        store.close()
        gc.disable()
        try:
            del store
            assert [ref() for ref in refs] == [None, None]
            # only this name holds it, plus the call's own argument where counted
            assert sys.getrefcount(header) <= 2
        finally:
            gc.enable()


def reference_cell(store, coords):
    """The reference array steps: linearize, locate, read_record."""
    record = store.header.locate(linearize(coords, store.cards))
    return None if record is None else store.read_record(record)


# boxes of k = 1..4 past two 512-bit blocks, each with padding bits in a
# bitmap's last byte, and the 5,890-cell box of the header fault tests
REFERENCE_BOXES = [(1500,), (50, 31), (12, 11, 13), (5, 7, 6, 9), (31, 19, 10)]


def reference_fills(total: int) -> dict:
    rng = SplitMix64(total)
    gaps = sorted(random_positions(total - 90, 30, seed=total))
    return {
        "every cell": list(range(1, total + 1)),
        "none": [],
        "odd cells": list(range(1, total + 1, 2)),
        "block edges": [1, 511, 512, 513, 1024, 1025, total],
        "a third": sorted(p for p in range(1, total + 1) if rng.below(3) == 0),
        # 30 runs of 3 records, after gaps of at least one empty cell
        "30 runs of 3": [g + 3 * n + d for n, g in enumerate(gaps) for d in range(3)],
    }


@pytest.mark.parametrize("cards", REFERENCE_BOXES, ids=str)
def test_compiled_get_cell_equals_the_reference_steps_at_every_cell(tmp_path, cards):
    total = cell_count(cards)
    assert total > 1025 and total % 8
    for name, positions in reference_fills(total).items():
        root = tmp_path / name
        root.mkdir()
        loaded, compressed = build_both_headers(root, positions, cards)
        with loaded, compressed:
            assert loaded.record_count == len(positions)
            for store in (loaded, compressed):
                answers = [store.get_cell(delinearize(p, cards)) for p in range(1, total + 1)]
                assert answers == [reference_cell(store, delinearize(p, cards))
                                   for p in range(1, total + 1)], (name, store is loaded)
                assert [p for p, a in enumerate(answers, 1) if a is not None] == positions
                for p in (511, 512, 513, 1024, 1025, total):
                    assert store.get_cell(list(delinearize(p, cards))) == answers[p - 1]
                # no coordinates reach a bitmap's padding bits: one past the
                # box in any dimension raises what the reference raises
                for coords in [cards[:-1] + (cards[-1] + 1,), (cards[0] + 1,) + cards[1:]]:
                    expected = raised(lambda c: reference_cell(store, c), coords)
                    assert expected[0] is RangeError
                    assert raised(store.get_cell, coords) == expected


# 75,000 cells: three header pages of 32,768, 32,768 and 9,464 cells
PAGED_BOX = (300, 250)
PAGE_CELLS = 32_768


def paged_stores(root):
    """(store over the header compress_stream returned, store over the header
    loaded from its file, answers by position) of a third of PAGED_BOX."""
    total = cell_count(PAGED_BOX)
    rng = SplitMix64(total)
    positions = [p for p in range(1, total + 1) if rng.below(3) == 0]
    loaded, compressed = build_both_headers(root, positions, PAGED_BOX)
    assert loaded.header.containers() == {"full": 0, "bitmap": 3, "offset list": 0}
    answers = dict.fromkeys(range(1, total + 1))
    answers.update(make_records(positions, 3))
    return compressed, loaded, answers


def test_compiled_get_cell_equals_the_reference_steps_over_pages_touched_in_any_order(
        tmp_path):
    """Each page's first lookup goes through locate; the rest run the compiled step."""
    compressed, loaded, _ = paged_stores(tmp_path)
    total = cell_count(PAGED_BOX)
    shuffle = random.Random(27).shuffle
    pages = [list(range(g * PAGE_CELLS + 1, min((g + 1) * PAGE_CELLS, total) + 1))
             for g in range(3)]
    for cells in pages:
        shuffle(cells)
    order = [p for g in (2, 0, 1) for p in pages[g]]
    with compressed, loaded:
        assert loaded.header._blocks == [None] * len(loaded.header._blocks)
        coords = [delinearize(p, PAGED_BOX) for p in order]
        answers = [loaded.get_cell(c) for c in coords]
        assert answers == [reference_cell(compressed, c) for c in coords]
        assert answers == [reference_cell(loaded, c) for c in coords]


def first_touch_race(root, cards, expected: dict, rounds: int = 20) -> None:
    """Four threads look up shuffled cells of expected's keys in a freshly
    loaded store, switching often, in each round."""
    probes = sorted(expected)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(rounds):
            store = ArrayStore.open(root / "rel.arr", root / "rel.hdr", cards, 3)
            wrong = []

            def look_up(seed, store=store, wrong=wrong):
                rng = random.Random(seed)
                for p in (rng.choice(probes) for _ in range(300)):
                    try:
                        got = store.get_cell(delinearize(p, cards))
                    except Exception as exc:  # reported below, as a wrong answer
                        got = exc
                    if got != expected[p]:
                        wrong.append((p, got))

            threads = [threading.Thread(target=look_up, args=(4 * round_ + i,))
                       for i in range(4)]
            with store:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
            assert wrong == [], round_
    finally:
        sys.setswitchinterval(switch)


def test_threads_that_first_touch_pages_together_answer_every_cell(tmp_path):
    """The list form: every cell of a three-page box."""
    compressed, loaded, expected = paged_stores(tmp_path)
    compressed.close()
    loaded.close()
    first_touch_race(tmp_path, PAGED_BOX, expected)


def test_threads_that_first_touch_dict_pages_together_answer_every_cell(tmp_path):
    """The dict form: 40 pages of 2^25 that hold 50 cells each, and a cell
    a page before each stored one, mostly in a page the index does not hold."""
    cards = (2**20, 2**20)
    pages = random_positions(2**25, 40, seed=11)
    positions = sorted((g - 1) * PAGE_CELLS + p for g in pages
                       for p in random_positions(PAGE_CELLS, 50, seed=g))
    build_array_files(tmp_path, make_records(positions, 3), cards, 3).close()
    expected = {p - PAGE_CELLS: None for p in positions if p > PAGE_CELLS}
    expected.update(make_records(positions, 3))
    first_touch_race(tmp_path, cards, expected, rounds=60)


# cells {1, 2, 3, 7} of a 4 x 2 box: (1, 1), (2, 1), (3, 1) and (3, 2)
SMALL_CARDS = (4, 2)
SMALL_POSITIONS = [1, 2, 3, 7]
NOT_INTS = [(3.5, 1), (2, 2.0), (1.0, 1), (Decimal(2), 1), (Fraction(3), 1),
            (1, Fraction(1, 2)), ("1", 1), (1, None), [2.0, 1]]
BOOLS = [((True, 1), (1, 1)), ((True, True), (1, 1)), ((3, True), (3, 1)), ([2, True], (2, 1))]


@pytest.fixture(params=["loaded", "compressed"])
def small_stores(request, tmp_path):
    """An array store over the header loaded from its file or the one
    compress_stream returned, and a table store, of SMALL_POSITIONS."""
    loaded, compressed = build_both_headers(tmp_path, SMALL_POSITIONS, SMALL_CARDS)
    array = loaded if request.param == "loaded" else compressed
    (compressed if array is loaded else loaded).close()
    table = build_table_files(tmp_path, make_records(SMALL_POSITIONS, 3), SMALL_CARDS, 3)
    yield array, table
    array.close()
    table.close()


def test_non_int_coordinates_raise_range_error_on_every_path(small_stores):
    array, table = small_stores
    for coords in NOT_INTS:
        expected = raised(lambda c: linearize(c, SMALL_CARDS), coords)
        assert expected[0] is RangeError and "not an integer" in expected[1], coords
        for path in (array.get_cell, table.btree_lookup, table.binary_search_lookup):
            assert raised(path, coords) == expected, (path.__name__, coords)
        with open(os.devnull, "wb") as sink:
            assert raised(lambda c: write_table([(c, b"abc")], sink, SMALL_CARDS, 3),
                          coords) == expected
    # bool is an int: True and False are 1 and 0 on every path
    for coords, same in BOOLS:
        assert array.get_cell(coords) == array.get_cell(same) is not None
        assert table.btree_lookup(coords) == table.btree_lookup(same) is not None
        assert table.binary_search_lookup(coords) == table.binary_search_lookup(same)
    expected = raised(lambda c: linearize(c, SMALL_CARDS), (False, 1))
    assert expected == (RangeError, "coordinate 1 is 0, outside 1..4")
    for path in (array.get_cell, table.btree_lookup, table.binary_search_lookup):
        assert raised(path, (False, 1)) == expected


def test_bytes_coordinates_are_small_ints_on_every_path(small_stores):
    # bytes are a sequence of ints, so b"\x02\x01" is (2, 1) on every path
    array, table = small_stores
    for path in (array.get_cell, table.btree_lookup, table.binary_search_lookup):
        assert path(b"\x02\x01") == path((2, 1)) is not None
        assert path(b"\x04\x01") is path((4, 1)) is None
        assert raised(path, b"\x05\x01") == raised(path, (5, 1)) == (
            RangeError, "coordinate 1 is 5, outside 1..4")


class Integral:
    """An integer that is not an int, as a NumPy integer is: it has __index__ only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Integral({self.value})"


def test_record_numbers_follow_the_coordinate_rule(small_stores):
    # read_record, read_row and read_measures take what a coordinate may be:
    # an int, a bool, or a value with __index__; anything else is RangeError
    array, table = small_stores
    records = [record for _, record in make_records(SMALL_POSITIONS, 3)]
    readers = {"read_record": array.read_record,
               "read_row": lambda recno: table.read_row(recno)[1],
               "read_measures": table.read_measures}
    for name, read in readers.items():
        for recno, record in [(2, records[1]), (True, records[0]), (Integral(3), records[2])]:
            assert read(recno) == record, (name, recno)
        for recno in [2.0, 2.5, "2", None, Decimal(2), Fraction(2), b"\x02", [2]]:
            assert raised(read, recno) == (
                RangeError, f"record number is {recno!r}, not an integer"), (name, recno)
        for recno in [0, False, 5, Integral(5)]:
            assert raised(read, recno) == (
                RangeError, f"record number {int(recno)} outside 1..4"), (name, recno)
    # a hit on record 2 keeps it, but only the int 2 is answered from it
    assert table.btree_lookup((2, 1)) == 2
    assert table.read_measures(2) == records[1]
    assert raised(table.read_measures, 2.0)[0] is RangeError
    assert table.read_measures(Integral(2)) == records[1]


def test_in_box_coordinates_beyond_the_stored_ones_miss_on_every_path(tmp_path):
    # every stored first coordinate is at most 255, yet 256..300 are in
    # the box; the index separates blocks by the table's 4-byte fields
    cards = (300, 4)
    stored = [(1, 1), (255, 1), (17, 3), (255, 4)]
    cells = make_records(sorted(linearize(c, cards) for c in stored), 3)
    array = build_array_files(tmp_path, cells, cards, 3)
    table = build_table_files(tmp_path, cells, cards, 3)
    with array, table:
        assert table.meta.key_bytes == 8
        paths = (array.get_cell, table.btree_lookup, table.binary_search_lookup)
        for coords in stored:
            assert all(path(coords) is not None for path in paths), coords
        for i in range(256, 301):
            for coords in [(i, j) for j in range(1, 5)] + [(Integral(i), 1), [i, 4]]:
                for path in paths:
                    assert path(coords) is None, (path.__name__, coords)
                table.btree_lookup(coords)
                assert table.last_page_reads == table.meta.height + 1
        for coords in [(301, 1), (Integral(301), 4), (256, 5), (256, 1.0)]:
            expected = raised(lambda c: linearize(c, cards), coords)
            assert expected[0] is RangeError
            for path in paths:
                assert raised(path, coords) == expected, (path.__name__, coords)


@st.composite
def any_coordinates(draw, cards):
    """Coordinates of any shape a caller might pass for this box."""
    k = len(cards)
    ints = [draw(st.integers(1, c)) for c in cards]
    j = draw(st.integers(0, k - 1))
    odd = draw(st.sampled_from([
        0, -1, cards[j] + 1, 2**32, 2**64, True, False, float(ints[j]), ints[j] + 0.5,
        Decimal(ints[j]), Fraction(ints[j]), Fraction(1, 2), str(ints[j]), None,
        Integral(ints[j]), Integral(cards[j] + 1),
    ]))
    bad = ints[:j] + [odd] + ints[j + 1:]
    return draw(st.sampled_from([
        tuple(ints), ints, tuple(bad), bad, tuple(ints[:-1]), tuple(ints) + (1,),
        set(ints), iter(ints), dict(enumerate(ints)), None, ints[0],
    ]))


def answer(fn, coords):
    try:
        return fn(coords)
    except Exception as exc:
        return type(exc)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_every_path_equals_the_dense_oracle_or_raises_the_same_error(data):
    cards = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    total = cell_count(cards)
    positions = sorted(data.draw(st.sets(st.integers(1, total), max_size=total)))
    cells = make_records(positions, 3)
    dense = dict(cells)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        array, compressed = build_both_headers(root, positions, cards)
        table = build_table_files(root, cells, cards, 3)
        with array, table, compressed:

            records = [record for _, record in cells]

            def via(lookup):
                def path(c):
                    recno = lookup(c)
                    if recno is None:
                        return None
                    # a record other than the one just found, when r > 1, is
                    # read from the table and leaves the found one in place
                    other = recno % len(records) + 1
                    assert table.read_measures(other) == records[other - 1]
                    return table.read_measures(recno)
                return path

            paths = [array.get_cell, compressed.get_cell,
                     via(table.btree_lookup), via(table.binary_search_lookup)]
            for _ in range(30):
                coords = data.draw(any_coordinates(cards))
                snapshot = list(coords) if isinstance(coords, Iterator) else None
                try:
                    expected = dense.get(linearize(coords, cards))
                except RangeError:
                    expected = RangeError
                for path in paths:
                    if snapshot is not None:  # an iterator is used up by one call
                        coords = iter(snapshot)
                    assert answer(path, coords) == expected, (cards, coords)
