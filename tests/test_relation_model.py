"""Schema, directories, row encoding, sparsity statistics, conjoint folding."""

import re
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubestore import (
    DegenerateConjointError,
    DuplicateRowError,
    MalformedInputError,
    ParameterError,
    RangeError,
    UndefinedDensityError,
    UnknownDimensionValueError,
    cell_count,
    linearize,
    space_ratio,
)
from cubestore.relation_model import (
    DimensionDirectory,
    MeasureColumn,
    RecordCodec,
    RelationSchema,
    build_conjoint,
    compute_active_domains,
    parse_number,
)
from oracle import encode_row, number_kind_by_scan, space_ratio_by_bytes, unescape_by_scan

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


class TestNumberGrammar:
    @pytest.mark.parametrize("text, value", [
        ("12", 12), ("-0", 0), ("+7", 7), ("007", 7),
        (str(2**63 - 1), 2**63 - 1), (str(-(2**63)), -(2**63)),
        ("0" * 30 + "1", 1),  # leading zeros do not count as digits
        (str(2**63), float(2**63)),  # past int64: a float, and digits are lost
        ("1.5", 1.5), (".5", 0.5), ("5.", 5.0), ("5.e3", 5000.0), ("-1E5", -100000.0),
        ("1e-400", 0.0),  # underflow is no overflow
        ("inf", float("inf")), ("-inf", float("-inf")),
    ])
    def test_numbers(self, text, value):
        got = parse_number(text)
        assert (got, type(got)) == (value, type(value))

    @pytest.mark.parametrize("text", [
        "", "+", "-", ".", "e5", "1e", "1e+", "1_000", "1_0", " 7 ", " 7", "7\n",
        "\u20281", "\ufeff1", "١٢", "٣", "1e400", "-1e400", "1" * 5000,
        "+inf", "-nan", "NaN", "Infinity", "0x10", "1.5.2",
    ])
    def test_not_numbers(self, text):
        assert parse_number(text) is None

    def test_nan_and_every_repr_parse_back(self):
        assert parse_number("nan") != parse_number("nan")  # a NaN, which equals nothing
        for value in (0.1, -0.0, 1e16, 1e-05, 1.7976931348623157e308, float("inf")):
            assert parse_number(repr(value)) == value

    @settings(max_examples=300)
    @given(st.text(st.sampled_from("0123456789+-.eE_ naif٣\n"), max_size=8))
    def test_agrees_with_the_scan(self, text):
        got = parse_number(text)
        kind = None if got is None else "int64" if type(got) is int else "float64"
        assert kind == number_kind_by_scan(text)


class TestMeasureColumn:
    def test_int64_roundtrip(self):
        col = MeasureColumn("qty", "int64", 8)
        for v in (0, 1, -1, 2**63 - 1, -(2**63)):
            assert col.unpack(col.pack(v)) == v
        assert col.from_text("-42") == -42
        for bad in ("12.5", str(2**63), "1_0", " 3", "٣"):
            with pytest.raises(MalformedInputError, match="is not an int64 integer"):
                col.from_text(bad)
        with pytest.raises(MalformedInputError):
            col.pack(2**63)
        assert col.canonical(7) == "7"

    def test_float64_roundtrip(self):
        col = MeasureColumn("price", "float64", 8)
        for v in (0.0, -2.5, 1e300, float("inf")):
            assert col.unpack(col.pack(v)) == v
        assert col.from_text("2.5") == 2.5
        assert type(col.from_text("2")) is float
        for bad in ("abc", "1_0", "1e400"):
            with pytest.raises(MalformedInputError, match="is not a float64 number"):
                col.from_text(bad)
        assert col.canonical(0.1) == "0.1"

    def test_text_padding(self):
        col = MeasureColumn("note", "text", 6)
        packed = col.pack("ab")
        assert packed == b"ab\x00\x00\x00\x00"
        assert col.unpack(packed) == "ab"
        assert col.unpack(col.pack("abcdef")) == "abcdef"
        with pytest.raises(MalformedInputError):
            col.pack("abcdefg")
        with pytest.raises(MalformedInputError):
            col.pack("a\x00b")
        # width counts bytes, not code points
        with pytest.raises(MalformedInputError):
            col.pack("éééé")  # 8 UTF-8 bytes

    def test_unencodable_text_names_column(self):
        col = MeasureColumn("t", "text", 4)
        with pytest.raises(MalformedInputError,
                           match="column t: character 1 is not encodable as UTF-8"):
            col.pack("x\ud800")

    def test_corrupt_text_names_column(self):
        col = MeasureColumn("note", "text", 3)
        with pytest.raises(MalformedInputError, match="column note: corrupt text, byte 0"):
            col.unpack(b"\xffa\x00")

    def test_kind_validation(self):
        with pytest.raises(ParameterError):
            MeasureColumn("x", "int64", 4)
        with pytest.raises(ParameterError):
            MeasureColumn("x", "text", 0)
        with pytest.raises(ParameterError):
            MeasureColumn("x", "blob", 8)


@st.composite
def _field(draw):
    """One measure column and a value that fills it, at the edges of its kind."""
    kind = draw(st.sampled_from(("int64", "float64", "text")))
    if kind == "int64":
        value = draw(st.sampled_from((_I64_MIN, _I64_MAX, -1, 0))
                     | st.integers(_I64_MIN, _I64_MAX))
        return MeasureColumn("i", kind, 8), value
    if kind == "float64":
        edges = (-0.0, float("inf"), float("-inf"), float("nan"))
        return MeasureColumn("f", kind, 8), draw(st.sampled_from(edges) | st.floats())
    # lone surrogates (category Cs) have no UTF-8 encoding, so no text column holds one
    value = draw(st.text(st.characters(exclude_characters="\x00",
                                       exclude_categories=("Cs",)), max_size=6))
    slack = draw(st.sampled_from((0, 0, 1, 3)))  # 0: the text fills its width
    return MeasureColumn("t", kind, max(len(value.encode("utf-8")) + slack, 1)), value


def _as_bytes(columns, values):
    """Decoded values with floats as their packed bytes, so NaN and -0.0 compare."""
    return [struct.pack("<d", v) if col.kind == "float64" else (type(v), v)
            for col, v in zip(columns, values)]


class TestRecordCodec:
    def test_layout_and_roundtrip(self):
        codec = RecordCodec((
            MeasureColumn("qty", "int64", 8),
            MeasureColumn("note", "text", 5),
        ))
        assert codec.record_width == 13
        raw = codec.pack((40, "hi"))
        assert len(raw) == 13
        assert codec.unpack(raw) == (40, "hi")
        with pytest.raises(MalformedInputError):
            codec.pack((40,))
        with pytest.raises(MalformedInputError):
            codec.unpack(raw[:-1])

    def test_presence_codec(self):
        """A key-only relation's codec has no columns; its record is the byte 0x01."""
        codec = RecordCodec(())
        assert codec.is_presence
        assert not RecordCodec((MeasureColumn("x", "int64", 8),)).is_presence
        assert codec.record_width == 1
        assert codec.pack(()) == b"\x01"
        assert codec.unpack(b"\x01") == ()
        for bad in (b"\x00", b"\x02", b"\xff"):
            with pytest.raises(MalformedInputError,
                               match=re.escape(f"corrupt presence byte {bad!r}")):
                codec.unpack(bad)
        for bad in (b"", b"\x01\x01"):
            with pytest.raises(MalformedInputError,
                               match=f"^record is {len(bad)} bytes, expected 1$"):
                codec.unpack(bad)
        with pytest.raises(MalformedInputError, match="expected 0 measure values, got 1"):
            codec.pack((1,))

    @settings(max_examples=200)
    @given(fields=st.lists(_field(), min_size=1, max_size=6))
    def test_unpack_matches_per_column_decode(self, fields):
        columns = [col for col, _ in fields]
        codec = RecordCodec(columns)
        raw = b"".join(col.pack(value) for col, value in fields)
        assert codec.record_width == len(raw)
        expected, pos = [], 0
        for col in columns:
            expected.append(col.unpack(raw[pos : pos + col.width]))
            pos += col.width
        got = codec.unpack(raw)
        assert isinstance(got, tuple)
        assert _as_bytes(columns, got) == _as_bytes(columns, expected)
        for bad in (raw[:-1], raw + b"\x00"):
            with pytest.raises(MalformedInputError, match="record is"):
                codec.unpack(bad)

    # a record of 26 bytes: label 0..5, qty 6..13, price 14..21, note 22..25
    MIXED = (MeasureColumn("label", "text", 6), MeasureColumn("qty", "int64", 8),
             MeasureColumn("price", "float64", 8), MeasureColumn("note", "text", 4))

    @staticmethod
    def error_of(decode, raw) -> str:
        with pytest.raises(MalformedInputError) as info:
            decode(raw)
        return str(info.value)

    def test_decoder_raises_the_columns_errors(self):
        codec = RecordCodec(self.MIXED)
        label, _, _, note = self.MIXED
        raw = codec.pack(("ab", -3, 0.5, "\u00e9"))
        assert codec.unpack(raw) == ("ab", -3, 0.5, "\u00e9")
        bad_label = b"a\xffb" + raw[3:]
        bad_note = raw[:22] + b"\xc3\0\0\0"  # a cut two-byte character
        for bad, col, field in ((bad_label, label, bad_label[:6]),
                                (bad_note, note, bad_note[22:])):
            assert self.error_of(codec.unpack, bad) == self.error_of(col.unpack, field)
        assert self.error_of(codec.unpack, bad_label) == (
            "column label: corrupt text, byte 1 is not UTF-8")
        # of two bad fields, the first column's error
        both = bad_label[:22] + bad_note[22:]
        assert self.error_of(codec.unpack, both) == self.error_of(label.unpack, both[:6])
        assert self.error_of(codec.unpack, raw + b"\0") == "record is 27 bytes, expected 26"

    @pytest.mark.parametrize("names", [
        ('a"b', "c'd", "e)f", "g\\"),
        ("x\ny", '"""', "); raise SystemExit(", "\\0'\n#"),
    ])
    def test_column_names_stay_out_of_the_decoder(self, names):
        columns = tuple(MeasureColumn(name, kind, width) for name, (kind, width) in zip(
            names, (("text", 4), ("float64", 8), ("int64", 8), ("text", 2))))
        codec = RecordCodec(columns)
        raw = codec.pack(("h\u00e9", 1.5, 7, "z"))
        assert codec.unpack(raw) == ("h\u00e9", 1.5, 7, "z")
        assert self.error_of(codec.unpack, b"\xff" + raw[1:]) == (
            f"column {names[0]}: corrupt text, byte 0 is not UTF-8")
        assert self.error_of(codec.unpack, raw[:-1] + b"\xe9") == (
            f"column {names[3]}: corrupt text, byte 1 is not UTF-8")


class TestRelationSchema:
    def test_cases(self):
        assert RelationSchema(n=3, k=3, cards=(2, 2, 2)).case == "1.1"
        assert RelationSchema(n=3, k=2, cards=(2, 2), measure_widths=(8,)).case == "1.2"
        assert RelationSchema(n=4, k=2, cards=(2, 2), measure_widths=(8, 4)).case == "1.3"

    def test_key_only_record_is_one_presence_byte(self):
        schema = RelationSchema(n=2, k=2, cards=(3, 4))
        assert schema.record_width == 1
        assert schema.row_bytes == 2 * 4 + 1
        assert schema.delta == 1 / 9

    def test_row_bytes_and_delta(self):
        schema = RelationSchema(n=4, k=2, cards=(5, 4), measure_widths=(8, 4))
        assert schema.record_width == 12
        assert schema.row_bytes == 8 + 12
        assert schema.delta == 0.6
        assert schema.cell_total == 20

    def test_validation(self):
        with pytest.raises(ParameterError):
            RelationSchema(n=1, k=2, cards=(2, 2))
        with pytest.raises(ParameterError):
            RelationSchema(n=2, k=0, cards=())
        with pytest.raises(ParameterError):
            RelationSchema(n=2, k=2, cards=(2,))
        with pytest.raises(ParameterError):
            RelationSchema(n=2, k=2, cards=(2, 0))
        with pytest.raises(ParameterError):
            RelationSchema(n=2, k=2, cards=(2, 2**32))
        with pytest.raises(ParameterError):
            RelationSchema(n=3, k=2, cards=(2, 2), measure_widths=())
        with pytest.raises(ParameterError):
            RelationSchema(n=3, k=2, cards=(2, 2), measure_widths=(0,))


class TestDimensionDirectory:
    def test_lookup(self):
        d = DimensionDirectory(["apple", "fig", "pear"])
        assert d.index_of("apple") == 1
        assert d.index_of("pear") == 3
        assert d.value_of(2) == "fig"
        with pytest.raises(UnknownDimensionValueError):
            d.index_of("plum")
        with pytest.raises(RangeError):
            d.value_of(0)
        with pytest.raises(RangeError):
            d.value_of(4)

    def test_from_values_sorts_and_dedups(self):
        d = DimensionDirectory.from_values(["b", "a", "b", "c"])
        assert list(d) == ["a", "b", "c"]

    def test_must_be_strictly_sorted(self):
        with pytest.raises(MalformedInputError):
            DimensionDirectory(["b", "a"])
        with pytest.raises(MalformedInputError):
            DimensionDirectory(["a", "a"])
        # the one pair out of order is the last of many
        with pytest.raises(MalformedInputError, match="directory values must be strictly sorted"):
            DimensionDirectory([f"v{i:03}" for i in range(680)] + ["v000"])

    def test_save_load_roundtrip(self, tmp_path):
        awkward = ["", "a\nb", "c\\n", "d\\\\e", "líne"]
        d = DimensionDirectory.from_values(awkward)
        path = tmp_path / "dim_1.dim"
        path.write_bytes(d._encoded(path))
        assert DimensionDirectory.load(path) == d

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "dim_1.dim"
        path.write_bytes(DimensionDirectory([])._encoded(path))
        assert len(DimensionDirectory.load(path)) == 0

    @pytest.mark.parametrize("values", [[], [""], ["", "a"]])
    def test_empty_string_value_roundtrip(self, tmp_path, values):
        path = tmp_path / "dim_1.dim"
        path.write_bytes(DimensionDirectory(values)._encoded(path))
        assert DimensionDirectory.load(path).values == values

    def test_missing_trailing_newline_rejected(self, tmp_path):
        path = tmp_path / "dim_1.dim"
        path.write_bytes(b"a\nb")
        with pytest.raises(MalformedInputError):
            DimensionDirectory.load(path)

    def test_file_is_one_escaped_line_per_value(self, tmp_path):
        path = tmp_path / "dim_1.dim"
        path.write_bytes(DimensionDirectory(["a\nb", "c"])._encoded(path))
        assert path.read_bytes() == b"a\\nb\nc\n"

    @settings(max_examples=100)
    @given(values=st.lists(st.text(max_size=4), unique=True, max_size=30),
           absent=st.text(max_size=4))
    def test_index_of_is_one_based_position(self, values, absent):
        for unhashable in ([], {}, ["a"]):  # also as a fresh directory's first lookup
            with pytest.raises(UnknownDimensionValueError):
                DimensionDirectory.from_values(values).index_of(unhashable)
        d = DimensionDirectory.from_values(values)
        if absent not in values:
            with pytest.raises(UnknownDimensionValueError):
                d.index_of(absent)
        for pos, value in enumerate(d.values, 1):
            assert d.index_of(value) == pos

    @settings(max_examples=100)
    @given(st.lists(st.text("\\na\u00e9", max_size=8), max_size=12))
    @example(["\\", "a\\", "b\\\\\\", "c\\x\\"])  # lone and trailing backslashes
    @example(["\\\\", "\\\\n", "\\\\\\n", "\\n\\", "x\\\\y"])
    @example(["n\\", "\\\\\\\\", "\\a\\nb\\\\"])
    def test_load_matches_scan_oracle(self, tmp_path_factory, lines):
        by_value = {unescape_by_scan(line): line for line in lines}
        lines = [by_value[v] for v in sorted(by_value)]
        path = tmp_path_factory.mktemp("dim") / "dim_1.dim"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert DimensionDirectory.load(path).values == sorted(by_value)


class TestDomainsAndEncoding:
    def test_domains(self):
        rows = [("b", "x", "9"), ("a", "y", "9"), ("b", "y", "7")]
        dirs = compute_active_domains(rows)
        assert [list(d) for d in dirs] == [["a", "b"], ["x", "y"], ["7", "9"]]

    def test_duplicate_rows_rejected(self):
        with pytest.raises(DuplicateRowError):
            compute_active_domains([("a", "x"), ("a", "x")])

    def test_uneven_arity_rejected(self):
        with pytest.raises(MalformedInputError):
            compute_active_domains([("a", "x"), ("a",)])
        with pytest.raises(MalformedInputError):
            compute_active_domains([("a", "x")], arity=3)

    def test_no_rows(self):
        assert compute_active_domains([]) == []
        dirs = compute_active_domains([], arity=2)
        assert len(dirs) == 2 and all(len(d) == 0 for d in dirs)

    def test_encode_row(self):
        dirs = [DimensionDirectory(["a", "b"]), DimensionDirectory(["x", "y"])]
        indices, measures = encode_row(("b", "x", "42"), dirs)
        assert indices == (2, 1)
        assert measures == ("42",)

    def test_encode_key_only_row_gets_presence(self):
        dirs = [DimensionDirectory(["a", "b"])]
        indices, measures = encode_row(("a",), dirs)
        assert indices == (1,)
        assert measures == ()

    def test_encode_short_row_rejected(self):
        dirs = [DimensionDirectory(["a"]), DimensionDirectory(["x"])]
        with pytest.raises(MalformedInputError):
            encode_row(("a",), dirs)


class TestSparsity:
    def test_space_ratio_values(self):
        # delta 0.2, rho 0.5: array takes 0.4 of the table's bytes
        assert space_ratio(0.2, 0.5) == pytest.approx(0.4)
        # equal delta and rho: break-even
        assert space_ratio(0.25, 0.25) == pytest.approx(1.0)

    def test_space_ratio_domain(self):
        with pytest.raises(UndefinedDensityError):
            space_ratio(0.2, 0.0)
        with pytest.raises(ParameterError):
            space_ratio(1.0, 0.5)
        with pytest.raises(ParameterError):
            space_ratio(-0.1, 0.5)
        with pytest.raises(ParameterError):
            space_ratio(0.2, 1.5)

    @given(
        k=st.integers(1, 4),
        record_width=st.integers(1, 16),
        st_seed=st.integers(0, 10**6),
    )
    @settings(max_examples=80)
    def test_space_ratio_equals_byte_count(self, k, record_width, st_seed):
        # the analytic ratio must equal dense-array bytes over table bytes
        cards = tuple(2 + (st_seed >> (3 * i)) % 5 for i in range(k))
        total = cell_count(cards)
        r = 1 + st_seed % total
        row_bytes = 4 * k + record_width
        exact = space_ratio_by_bytes(record_width, row_bytes, r, total)
        got = space_ratio(record_width / row_bytes, r / total)
        assert got == pytest.approx(float(exact), rel=1e-12)

    def test_smaller_side_matches_byte_count(self):
        # array side wins exactly when the ratio sits below 1
        schema = RelationSchema(n=3, k=2, cards=(10, 10), measure_widths=(8,))
        for r in (10, 47, 100):
            ratio = space_ratio(schema.delta, r / schema.cell_total)
            array_bytes = schema.cell_total * schema.record_width
            table_bytes = r * schema.row_bytes
            assert (ratio < 1) == (array_bytes < table_bytes)
            assert (ratio > 1) == (array_bytes > table_bytes)


class TestConjoint:
    CELLS = [
        ((1, 1, 1), b"a"),
        ((2, 1, 1), b"b"),
        ((1, 2, 2), b"c"),
        ((1, 1, 3), b"d"),
        ((2, 1, 3), b"e"),
    ]
    CARDS = (2, 2, 3)

    def test_fold_two_of_three(self):
        result, remapped = build_conjoint(self.CELLS, 2, self.CARDS)
        assert result.size == 3
        assert result.conjoint_values == ((1, 1), (2, 1), (1, 2))
        assert result.cell_ratio == pytest.approx(3 / 4)
        # density rises by the share of absent prefixes: rho' = rho * 4/3
        rho = len(self.CELLS) / cell_count(self.CARDS)
        assert result.rho_prime == pytest.approx(rho * 4 / 3)
        assert result.cards_after == (3, 3)
        keys = [key for key, _ in remapped]
        assert keys == [(1, 1), (2, 1), (3, 2), (1, 3), (2, 3)]

    def test_sorted_stream_stays_sorted(self):
        result, remapped = build_conjoint(self.CELLS, 2, self.CARDS)
        before = [linearize(key, self.CARDS) for key, _ in self.CELLS]
        after = [linearize(key, result.cards_after) for key, _ in remapped]
        assert before == sorted(before)
        assert after == sorted(after)

    def test_degenerate_fold_refused(self):
        with pytest.raises(DegenerateConjointError):
            build_conjoint(self.CELLS, 3, self.CARDS)
        result, remapped = build_conjoint(self.CELLS, 3, self.CARDS,
                                          allow_degenerate=True)
        assert result.size == len(self.CELLS)
        assert result.rho_prime == 1.0
        assert [key for key, _ in remapped] == [(1,), (2,), (3,), (4,), (5,)]

    def test_h_out_of_range(self):
        with pytest.raises(ParameterError):
            build_conjoint(self.CELLS, 0, self.CARDS)
        with pytest.raises(ParameterError):
            build_conjoint(self.CELLS, 4, self.CARDS)

    def test_empty_relation(self):
        result, remapped = build_conjoint([], 1, (3, 2))
        assert result.size == 0
        assert result.cell_ratio == 0.0
        assert result.rho_prime == 0.0
        assert remapped == []

    @given(st.data())
    @settings(max_examples=60)
    def test_fold_preserves_order_and_density(self, data):
        k = data.draw(st.integers(2, 4))
        cards = tuple(data.draw(st.integers(1, 4)) for _ in range(k))
        total = cell_count(cards)
        count = data.draw(st.integers(1, total))
        positions = data.draw(
            st.lists(st.integers(1, total), min_size=count, max_size=count,
                     unique=True)
        )
        positions.sort()
        from cubestore import delinearize

        cells = [(delinearize(p, cards), b"x") for p in positions]
        h = data.draw(st.integers(1, k - 1))
        result, remapped = build_conjoint(cells, h, cards)
        after = [linearize(key, result.cards_after) for key, _ in remapped]
        assert after == sorted(after)
        assert len(set(after)) == len(after)
        assert result.rho_prime == pytest.approx(
            len(cells) / (result.size * cell_count(cards[h:]))
        )
        assert result.rho_prime >= len(positions) / total - 1e-12
