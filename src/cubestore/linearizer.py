"""Row-major linearization between k-dimensional coordinates and logical positions.

Coordinates and logical positions are 1-based.  For per-dimension cell
counts (c_1, ..., c_k) the logical position of (i_1, ..., i_k) is

    (((i_k - 1) * c_{k-1} + i_{k-1} - 1) * c_{k-2} + ...) * c_1 + i_1

so the last dimension varies slowest, the first dimension is contiguous,
and the mapping costs exactly k - 1 multiplications.  Sorting cells by
the reversed coordinate tuple (i_k, ..., i_1) therefore equals sorting
by logical position.

Logical positions must fit in an unsigned 64-bit integer; anything
larger is rejected.  The coordinates must be a sequence (a set, an
iterator or a mapping is refused) of integers: ints, bool included, or
values with __index__ such as NumPy integers, which count as their int
value.  Anything else raises RangeError, naming the dimension of a
coordinate that is not an integer.  The stores' record numbers follow
the same rule.

linearize is the reference.  A store's point lookups run a kernel
compiled for its box instead (position_kernel, key_kernel): straight-line
code for its k that unpacks the coordinates, tests 1 <= i_j <= c_j for
every dimension, and returns either

    i_1 + i_2 * s_2 + ... + i_k * s_k - offset

with s_1 = 1, s_j = s_{j-1} * c_{j-1} and offset = s_1 + ... + s_k - 1,
which is k - 1 multiplications, or the coordinates packed last
dimension first.  Only a tuple or list of k in-box int coordinates takes
that path; any other input goes to linearize, so it raises exactly the
error linearize raises.  The source is generated from k alone, never
from the cards, and compiled once per process per k; building a
store's kernel is then one call of the compiled factory.  _prelude
writes the coordinate test for both these kernels and the array
store's compiled get_cell, which goes on to the header and the read.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Sequence
from functools import lru_cache
from operator import index

from .errors import CapacityError, RangeError

U64_MAX = 2**64 - 1

_SEQUENCES = frozenset((tuple, list))  # the input types a kernel unpacks itself


def _integer(value, what: str) -> int:
    """value as an int by the coordinate rule, else RangeError naming what and value."""
    try:
        return index(value)
    except TypeError:
        raise RangeError(f"{what} is {value!r}, not an integer") from None


def cell_count(cards: Sequence[int]) -> int:
    """Return the total cell count of a box, enforcing the 64-bit cap."""
    if not cards:
        raise RangeError("box needs at least one dimension")
    total = 1
    for c in cards:
        if c < 1:
            raise RangeError(f"cardinality must be >= 1, got {c}")
        total *= c
    if total > U64_MAX:
        raise CapacityError(f"cell count {total} exceeds the unsigned 64-bit range")
    return total


def linearize(indices: Sequence[int], cards: Sequence[int]) -> int:
    """Map 1-based coordinates to their 1-based logical position."""
    k = len(cards)
    if k == 0:
        raise RangeError("box needs at least one dimension")
    if type(indices) not in _SEQUENCES and not isinstance(indices, Sequence):
        raise RangeError(f"expected {k} coordinates, got a {type(indices).__name__}")
    if len(indices) != k:
        raise RangeError(f"expected {k} coordinates, got {len(indices)}")
    acc = 0
    for j in range(k - 1, -1, -1):
        i = indices[j]
        if type(i) is not int:
            i = _integer(i, f"coordinate {j + 1}")
        c = cards[j]
        if not 1 <= i <= c:
            raise RangeError(f"coordinate {j + 1} is {i}, outside 1..{c}")
        acc = acc * c + i - 1
    if acc >= U64_MAX:
        raise CapacityError("logical position exceeds the unsigned 64-bit range")
    return acc + 1


def delinearize(position: int, cards: Sequence[int]) -> tuple[int, ...]:
    """Map a 1-based logical position back to coordinates (inverse of linearize)."""
    total = cell_count(cards)
    if not 1 <= position <= total:
        raise RangeError(f"logical position {position} outside 1..{total}")
    z = position - 1
    out = []
    for c in cards[:-1]:
        out.append(z % c + 1)
        z //= c
    out.append(z + 1)
    return tuple(out)


def _prelude(k: int, then: str, errors: str = "TypeError, ValueError") -> tuple[str, str]:
    """Source of the coordinate step of a kernel compiled for k coordinates.

    Returns (bind, test).  bind, statements of the factory's body, unpacks
    its cards and strides arguments into c1..ck and s1..sk.  test, a
    statement of the kernel's body, takes only a tuple or list of k
    coordinates that pass 1 <= i_j <= c_j, and for them runs the source
    then, which may name {position} (i1 + i2 * s2 + ... + ik * sk) and
    {key} (ik, ..., i1).  A coordinate count that does not unpack, or any
    of errors raised on the way, leaves test with no result, so the
    kernel goes on to its reference fallback.
    """
    dims = range(1, k + 1)
    then = then.format(position=" + ".join(["i1"] + [f"i{j} * s{j}" for j in dims[1:]]),
                       key=", ".join(f"i{j}" for j in reversed(dims)))
    then = then.replace("\n", "\n" + " " * 20)  # indented under the range test
    bind = (f"    {''.join(f'c{j}, ' for j in dims)}= cards\n"
            f"    {''.join(f's{j}, ' for j in dims)}= strides\n")
    test = f"""\
        if type(indices) in _SEQUENCES:
            try:
                {"".join(f"i{j}, " for j in dims)}= indices
                if {" and ".join(f"1 <= i{j} <= c{j}" for j in dims)}:
                    {then}
            except ({errors}):
                pass
"""
    return bind, test


def _compile(source: str, name: str, **names) -> Callable:
    """The function `factory` that source defines, compiled with the kernels' globals."""
    namespace = {"_SEQUENCES": _SEQUENCES, "linearize": linearize, **names}
    exec(compile(source, f"<cubestore {name}>", "exec"), namespace)
    return namespace["factory"]


def _box(cards: Sequence[int]) -> tuple[tuple, list, int]:
    """(cards, strides, offset) of a box: position = i1 + i2 * s2 + ... - offset."""
    cards = tuple(cards)
    cell_count(cards)
    strides = [1]
    for c in cards[:-1]:
        strides.append(strides[-1] * c)
    return cards, strides, sum(strides) - 1


@lru_cache(maxsize=None)
def _kernel_factory(k: int) -> Callable:
    """Compile, once per process, the factory of the kernels for k coordinates.

    The factory takes (cards, strides, offset, pack) and returns the
    position and key kernels of that box.  The source is built from k
    only; the cards, strides and pack are bound as arguments.  Unpacking
    raises ValueError for a wrong count, the range test TypeError for a
    coordinate that does not compare with an int, and pack struct.error
    for one that is not an int; a position that is not an int (some
    coordinate was a float, Decimal or Fraction in range) is not
    returned.  All of these go to linearize, which checks in its own
    order and names the fault.  bool is an int, so True and False pass
    as 1 and 0 on every path; pack and linearize both take a value with
    __index__ as its int.
    """
    bind, position = _prelude(k, "p = {position} - offset\nif type(p) is int:\n    return p")
    _, key = _prelude(k, "return pack({key})", "TypeError, ValueError, StructError")
    source = f"""\
def factory(cards, strides, offset, pack):
{bind}
    def position(indices):
{position}\
        return linearize(indices, cards)

    def key(indices):
{key}\
        linearize(indices, cards)
        return pack(*reversed(indices))

    return position, key
"""
    return _compile(source, f"kernels k={k}", StructError=struct.error)


def _kernels(cards: Sequence[int], pack) -> tuple[Callable, Callable]:
    cards, strides, offset = _box(cards)
    return _kernel_factory(len(cards))(cards, strides, offset, pack)


def position_kernel(cards: Sequence[int]) -> Callable[[Sequence[int]], int]:
    """linearize(indices, cards) compiled for one box."""
    return _kernels(cards, None)[0]


def key_kernel(cards: Sequence[int], pack) -> Callable[[Sequence[int]], bytes]:
    """pack(*reversed(indices)) for the coordinates of one box, which it range-checks.

    pack is a struct.Struct(f">{k}I").pack; coordinates outside the box
    raise what linearize(indices, cards) raises, and in-box ints too
    wide for pack raise struct.error.
    """
    return _kernels(cards, pack)[1]
