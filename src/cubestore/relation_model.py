"""Relation schema, dimension directories, row encoding, and sparsity statistics.

A finite relation of arity n with a k-attribute primary key is stored with
the key attributes dictionary-encoded: every key attribute gets a directory
of its distinct values in sorted order, and a row's key collapses to the
1-based positions of its values in those directories.  The remaining n - k
attributes, each an int64, float64 or text column, are serialized into one
fixed-width measure record per row.  A key-only relation (k = n) has no
measure columns, and its record is the single byte 0x01, so every
relation shape shares the same record-per-row layout.

Directory files (.dim) are line-based UTF-8 text: one value per line in
sorted order, the 1-based line number being the value's index.  Newlines
and backslashes inside a value are escaped as \\n and \\\\.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import lt

from .errors import (
    DegenerateConjointError,
    DuplicateRowError,
    MalformedInputError,
    ParameterError,
    RangeError,
    UndefinedDensityError,
    UnknownDimensionValueError,
)
from .files import read_utf8
from .linearizer import _compile, cell_count
from .table_store import KEY_FIELD_WIDTH

MAX_CARDINALITY = 2**32 - 1  # key fields are 4-byte unsigned

KIND_INT = "int64"
KIND_FLOAT = "float64"
KIND_TEXT = "text"

_INT64 = struct.Struct("<q")
_FLOAT64 = struct.Struct("<d")
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1
_STRUCT_CODES = {KIND_INT: "q", KIND_FLOAT: "d"}  # other kinds are "{width}s"
_NUMBER = re.compile(r"([+-]?[0-9]+)|[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                     r"|nan|-?inf")


def parse_number(text: str):
    """The int or float that text spells in the one number grammar, else None.

    [+-]?[0-9]+ in ASCII digits is an int: an int64 when in range, a float
    past it.  A float adds a decimal point, an exponent or both, or is one
    of the tokens repr writes for non-finite values: nan, inf, -inf.  So
    every float repr writes parses back to itself.  A finite literal that
    overflows float64 is not a number.
    """
    match = _NUMBER.fullmatch(text)
    if match is None:
        return None
    if match[1] and len(text.lstrip("+-0")) < 20:  # 20 digits are past int64
        value = int(text)
        if _I64_MIN <= value <= _I64_MAX:
            return value
    value = float(text)
    return None if math.isinf(value) and text[-1] != "f" else value


@dataclass(frozen=True)
class MeasureColumn:
    """One non-key attribute: a name, a kind, and a fixed byte width.

    int64 is an 8-byte little-endian two's-complement integer, float64 an
    8-byte little-endian IEEE-754 double, text a NUL-padded UTF-8 field of
    the declared width.  A key-only relation has no column at all (see
    RecordCodec).
    """

    name: str
    kind: str
    width: int

    def __post_init__(self):
        if self.kind in (KIND_INT, KIND_FLOAT):
            if self.width != 8:
                raise ParameterError(f"{self.kind} columns are 8 bytes wide, got {self.width}")
        elif self.kind == KIND_TEXT:
            if self.width < 1:
                raise ParameterError("text columns need a width of at least 1")
        else:
            raise ParameterError(f"unknown column kind {self.kind!r}")

    def from_text(self, text: str):
        """Parse a textual value (e.g. a CSV field) into a typed value, by parse_number."""
        if self.kind == KIND_TEXT:
            return text
        value = parse_number(text)
        if self.kind == KIND_INT and type(value) is not int:
            raise MalformedInputError(f"column {self.name}: {text!r} is not an int64 integer")
        if value is None:
            raise MalformedInputError(f"column {self.name}: {text!r} is not a float64 number")
        return float(value) if self.kind == KIND_FLOAT else value

    def pack(self, value) -> bytes:
        if self.kind == KIND_INT:
            if not isinstance(value, int) or not _I64_MIN <= value <= _I64_MAX:
                raise MalformedInputError(f"column {self.name}: bad int64 value {value!r}")
            return _INT64.pack(value)
        if self.kind == KIND_FLOAT:
            return _FLOAT64.pack(float(value))
        try:
            raw = value.encode("utf-8") if isinstance(value, str) else bytes(value)
        except UnicodeEncodeError as exc:
            raise MalformedInputError(
                f"column {self.name}: character {exc.start} is not encodable as UTF-8"
            ) from None
        if b"\x00" in raw:
            raise MalformedInputError(f"column {self.name}: NUL bytes are not allowed in text")
        if len(raw) > self.width:
            raise MalformedInputError(
                f"column {self.name}: value is {len(raw)} bytes, width is {self.width}"
            )
        return raw.ljust(self.width, b"\x00")

    def unpack(self, raw: bytes):
        if self.kind == KIND_INT:
            return _INT64.unpack(raw)[0]
        if self.kind == KIND_FLOAT:
            return _FLOAT64.unpack(raw)[0]
        try:
            return raw.rstrip(b"\x00").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInputError(
                f"column {self.name}: corrupt text, byte {exc.start} is not UTF-8"
            ) from None

    def canonical(self, value) -> str:
        """Render a typed value back to its canonical text form."""
        if self.kind == KIND_FLOAT:
            return repr(value)
        return str(value)


class RecordCodec:
    """Packs and unpacks the fixed-width measure record of one row.

    A record is the columns' fields back to back, with no padding, read by
    one struct: "<" then "q" for int64, "d" for float64 and "{width}s" for
    text.  unpack is straight-line code compiled for the column kinds: a
    length check, the struct unpack and each text field decoded.  Its source
    names fields by position only, never by column name, for names come from
    CSV headers and may hold any text.  A record it refuses is decoded field
    by field, raising MeasureColumn.unpack's error.

    A key-only relation's codec has no columns, and its record is the single
    byte 0x01: pack(()) returns it, unpack of it returns (), and unpack of
    any other byte raises MalformedInputError.
    """

    __slots__ = ("columns", "record_width", "_struct", "unpack")

    def __init__(self, columns):
        self.columns = tuple(columns)
        self._struct = struct.Struct("<" + "".join(
            _STRUCT_CODES.get(col.kind, f"{col.width}s") for col in self.columns
        ))
        self.record_width = self._struct.size or 1  # a key-only record is the byte 0x01
        if self.columns:
            factory = _decoder_factory(tuple(col.kind for col in self.columns))
            self.unpack = factory(self._struct.unpack, self.record_width, self._refused)
        else:
            self.unpack = self._refused

    @property
    def is_presence(self) -> bool:
        """True for a key-only relation's codec, whose record only says the row exists."""
        return not self.columns

    def pack(self, values) -> bytes:
        if len(values) != len(self.columns):
            raise MalformedInputError(
                f"expected {len(self.columns)} measure values, got {len(values)}"
            )
        if not self.columns:
            return b"\x01"
        return b"".join(col.pack(v) for col, v in zip(self.columns, values))

    def _refused(self, raw: bytes) -> tuple:
        """Decode, field by field, a record the compiled decoder refused, or a key-only one."""
        if len(raw) != self.record_width:
            raise MalformedInputError(
                f"record is {len(raw)} bytes, expected {self.record_width}"
            )
        if not self.columns:
            if raw != b"\x01":
                raise MalformedInputError(f"corrupt presence byte {raw!r}")
            return ()
        return tuple(value if col.kind in _STRUCT_CODES else col.unpack(value)
                     for col, value in zip(self.columns, self._struct.unpack(raw)))


@lru_cache(maxsize=None)
def _decoder_factory(kinds: tuple):
    """Compile once per process the decoder factory (unpack, width, refused) of these kinds."""
    fields = [f"f{i}" for i in range(len(kinds))]
    text = "{}.rstrip(b'\\0').decode('utf-8')"
    values = [text.format(f) if k == KIND_TEXT else f for f, k in zip(fields, kinds)]
    source = f"""\
def factory(unpack, width, refused):
    def decode(raw):
        if len(raw) == width:
            {", ".join(fields)}, = unpack(raw)
            try:
                return ({", ".join(values)},)
            except UnicodeDecodeError:
                pass
        return refused(raw)
    return decode
"""
    return _compile(source, f"record decoder {len(kinds)} columns")


@dataclass(frozen=True)
class RelationSchema:
    """Shape of one stored relation.

    n is the arity, the first k attributes form the primary key, cards are
    the key-attribute cardinalities (directory sizes), and measure_widths
    are the byte widths of the n - k measure fields.  Key fields are
    stored as 4-byte unsigned integers, so each cardinality must fit in
    32 bits and the total cell count in 64 bits.
    """

    n: int
    k: int
    cards: tuple[int, ...]
    measure_widths: tuple[int, ...] = ()

    def __post_init__(self):
        if self.k < 1 or self.n < self.k:
            raise ParameterError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if len(self.cards) != self.k:
            raise ParameterError(f"expected {self.k} cardinalities, got {len(self.cards)}")
        for c in self.cards:
            if not 1 <= c <= MAX_CARDINALITY:
                raise ParameterError(f"cardinality {c} outside 1..{MAX_CARDINALITY}")
        cell_count(self.cards)  # enforces the 64-bit cap
        if len(self.measure_widths) != self.n - self.k:
            raise ParameterError(
                f"expected {self.n - self.k} measure widths, got {len(self.measure_widths)}"
            )
        for w in self.measure_widths:
            if w < 1:
                raise ParameterError(f"measure width must be >= 1, got {w}")

    @property
    def case(self) -> str:
        """Construction case: 1.1 for k = n, 1.2 for one measure, 1.3 otherwise."""
        if self.k == self.n:
            return "1.1"
        if self.k == self.n - 1:
            return "1.2"
        return "1.3"

    @property
    def cell_total(self) -> int:
        return cell_count(self.cards)

    @property
    def record_width(self) -> int:
        """Bytes per measure record; a key-only relation's record is one 0x01 byte."""
        if self.k == self.n:
            return 1
        return sum(self.measure_widths)

    @property
    def row_bytes(self) -> int:
        """Bytes per table row: key fields plus the measure record."""
        return KEY_FIELD_WIDTH * self.k + self.record_width

    @property
    def delta(self) -> float:
        """Fraction of a row taken by non-key data."""
        return self.record_width / self.row_bytes


class DimensionDirectory:
    """Distinct values of one dimension in sorted order; index = 1-based position.

    Values are compared by their UTF-8 encoding; for UTF-8 that equals
    code-point order, so plain string sorting is used.  Beside the sorted
    list, the first index_of builds a dict from each value to its index,
    so every lookup is one hash lookup; the dict holds one entry per value,
    O(cardinality) memory.  A directory that only maps indices to values,
    as in ingest and export, never builds it.
    """

    __slots__ = ("values", "_index")

    def __init__(self, values):
        vals = list(values)
        if not all(map(lt, vals, islice(vals, 1, None))):
            raise MalformedInputError("directory values must be strictly sorted")
        self.values = vals
        self._index: dict | None = None  # built by the first index_of

    @classmethod
    def from_values(cls, values) -> "DimensionDirectory":
        """Build a directory from an unordered iterable, deduplicating."""
        return cls(sorted(set(values)))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        return isinstance(other, DimensionDirectory) and self.values == other.values

    def index_of(self, value: str) -> int:
        try:
            return self._index[value]
        except (KeyError, TypeError):  # TypeError: no index yet, or unhashable
            if self._index is None:
                self._index = {v: i for i, v in enumerate(self.values, 1)}
                return self.index_of(value)
            raise UnknownDimensionValueError(
                f"value {value!r} is not in the directory"
            ) from None

    def value_of(self, index: int) -> str:
        if not 1 <= index <= len(self.values):
            raise RangeError(f"directory index {index} outside 1..{len(self.values)}")
        return self.values[index - 1]

    def _encoded(self, path) -> bytes:
        data = "".join(_escape(v) + "\n" for v in self.values)
        try:
            return data.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedInputError(
                f"{path}: character {exc.start} is not encodable as UTF-8"
            ) from None

    @classmethod
    def load(cls, path) -> "DimensionDirectory":
        data = read_utf8(path, "dimension directory")
        if not data:  # only a zero-byte file holds no values; "\n" holds ""
            return cls([])
        if not data.endswith("\n"):
            raise MalformedInputError("missing trailing newline")
        values = data[:-1].split("\n")
        if "\\" in data:  # only escaped values need the substitution
            values = [_ESCAPED.sub(_unescape_one, v) if "\\" in v else v for v in values]
        return cls(values)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


_ESCAPED = re.compile(r"\\([n\\])")


def _unescape_one(match) -> str:
    return "\n" if match.group(1) == "n" else "\\"


def compute_active_domains(rows, arity: int | None = None) -> list[DimensionDirectory]:
    """Collect the distinct values of every attribute position.

    Returns one directory per position.  Rejects rows of uneven arity and
    exact duplicate rows.  With no rows the arity cannot be inferred, so
    the result is empty unless an explicit arity is given.
    """
    seen = set()
    domains: list[set] | None = None
    for row in rows:
        t = tuple(row)
        if domains is None:
            if arity is not None and len(t) != arity:
                raise MalformedInputError(f"expected arity {arity}, got {len(t)}")
            arity = len(t)
            if arity == 0:
                raise MalformedInputError("rows must have at least one attribute")
            domains = [set() for _ in range(arity)]
        elif len(t) != arity:
            raise MalformedInputError(f"row arity {len(t)} differs from {arity}")
        if t in seen:
            raise DuplicateRowError(f"duplicate row {t!r}")
        seen.add(t)
        for dom, v in zip(domains, t):
            dom.add(v)
    if domains is None:
        return [DimensionDirectory([]) for _ in range(arity)] if arity else []
    return [DimensionDirectory.from_values(dom) for dom in domains]


def space_ratio(delta: float, rho: float) -> float:
    """Size of the uncompressed array relative to the table: delta / rho.

    A ratio below 1 means the array form is smaller, above 1 the table.
    """
    if rho == 0:
        raise UndefinedDensityError("space ratio is undefined at density zero")
    if not 0 <= delta < 1:
        raise ParameterError(f"data ratio must be in [0, 1), got {delta}")
    if not 0 < rho <= 1:
        raise ParameterError(f"density must be in (0, 1], got {rho}")
    return delta / rho


@dataclass(frozen=True)
class ConjointResult:
    """Outcome of folding the first h key dimensions into one.

    conjoint_values lists the distinct key prefixes in the order that
    preserves logical ordering (last prefix coordinate most significant),
    cell_ratio compares their count to the full prefix box, and rho_prime
    is the density of the remapped relation.
    """

    h: int
    conjoint_values: tuple[tuple[int, ...], ...]
    cell_ratio: float
    rho_prime: float
    cards_after: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.conjoint_values)


def build_conjoint(cells, h: int, cards, allow_degenerate: bool = False):
    """Fold the first h key dimensions of an encoded relation into one.

    cells is an iterable of (key indices, measures).  Returns the
    ConjointResult and the remapped cell list, whose keys are
    (conjoint index, i_{h+1}, ..., i_k).  Prefixes are ordered with the
    last coordinate most significant, matching logical order, so a
    stream sorted by logical position stays sorted after remapping.
    Folding the entire key (h = k) turns the array into a plain list of
    rows and is refused unless explicitly allowed.
    """
    k = len(cards)
    if not 1 <= h <= k:
        raise ParameterError(f"prefix length must be in 1..{k}, got {h}")
    if h == k and not allow_degenerate:
        raise DegenerateConjointError(
            "folding the whole key leaves a degenerate one-dimensional array"
        )
    cells = list(cells)
    prefixes = sorted({key[:h] for key, _ in cells}, key=lambda t: t[::-1])
    position = {prefix: j + 1 for j, prefix in enumerate(prefixes)}
    remapped = [((position[key[:h]],) + tuple(key[h:]), measures) for key, measures in cells]
    prefix_box = cell_count(cards[:h])
    rest_box = cell_count(cards[h:]) if h < k else 1
    size = len(prefixes)
    cards_after = (size,) + tuple(cards[h:])
    result = ConjointResult(
        h=h,
        conjoint_values=tuple(prefixes),
        cell_ratio=size / prefix_box,
        rho_prime=(len(cells) / (size * rest_box)) if size else 0.0,
        cards_after=cards_after,
    )
    return result, remapped
