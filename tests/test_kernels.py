"""Compiled coordinate kernels against linearize and encode_key, and the
out-of-box behaviour they give all three lookup paths."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestore import RangeError, encode_key, linearize
from cubestore.linearizer import U64_MAX, key_kernel, position_kernel
from conftest import build_array_files, build_table_files, make_records, random_positions

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


def test_stores_of_one_k_share_the_compiled_kernels(tmp_path):
    cells = make_records([1, 5, 9], 3)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    with build_array_files(tmp_path / "a", cells, (4, 3, 2), 3) as a, \
            build_array_files(tmp_path / "b", cells, (2, 2, 5), 3) as b, \
            build_table_files(tmp_path / "a", cells, (4, 3, 2), 3) as ta, \
            build_table_files(tmp_path / "b", cells, (2, 2, 5), 3) as tb:
        assert a._position is not b._position
        assert a._position.__code__ is b._position.__code__
        assert ta._key.__code__ is tb._key.__code__
        assert (a._position((4, 3, 2)), b._position((2, 2, 5))) == (24, 20)
        assert position_kernel((4, 3)).__code__ is not a._position.__code__
