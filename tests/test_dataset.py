"""Dataset directories: ingest, manifest, build, open, export."""

import errno
import hashlib
import os
import re
from contextlib import ExitStack
from itertools import product

import pytest

from cubestore import (
    DatasetError,
    StorageError,
    DuplicateKeyError,
    DuplicateRowError,
    MalformedInputError,
    build_dataset,
    cell_count,
    format_size_report,
    generate_synthetic,
    ingest_csv,
    ingest_rows,
    materialize_synthetic,
    open_dataset,
    size_report,
)
from cubestore.cli import main
from cubestore.dataset import MANIFEST_NAME, Manifest, export_rows
from cubestore.relation_model import MeasureColumn, RelationSchema
from test_table_store import CountedPread

HEADER = ["store", "day", "qty", "note"]
ROWS = [
    ("lyon", "mon", "4", "ok"),
    ("bern", "mon", "12", "late"),
    ("lyon", "tue", "7", "ok"),
    ("arles", "wed", "-3", "returned"),
]


def ingest_sample(out_dir, **kwargs):
    return ingest_rows(HEADER, ROWS, ["store", "day"], out_dir, **kwargs)


def every_answer(root) -> tuple[list, list]:
    """Each cell's answer on the three lookup paths, and the exported rows."""
    with open_dataset(root) as db:
        cells = [(db.array.get_cell(c), db.table.btree_lookup(c),
                  db.table.binary_search_lookup(c))
                 for c in product(*(range(1, card + 1) for card in db.manifest.cards))]
    return cells, list(export_rows(root))


class TestIngest:
    def test_empty_string_key_queried_by_value(self, tmp_path):
        ds = tmp_path / "ds"
        ingest_rows(["k", "v"], [("", "1")], ["k"], ds)
        build_dataset(ds)
        with open_dataset(ds) as db:
            (directory,) = db.dimension_directories()
            assert directory.values == [""]
            coords = (directory.index_of(""),)
            assert db.codec.unpack(db.array.get_cell(coords)) == (1,)
            assert db.table.btree_lookup(coords) == 1
            assert db.table.binary_search_lookup(coords) == 1

    def test_manifest_shape(self, tmp_path):
        manifest = ingest_sample(tmp_path / "ds")
        assert manifest.schema.n == 4
        assert manifest.schema.k == 2
        assert manifest.cards == (3, 3)  # arles/bern/lyon x mon/tue/wed
        assert manifest.r == 4
        assert manifest.schema.case == "1.3"
        assert manifest.key_columns == ("store", "day")
        kinds = [(c.name, c.kind) for c in manifest.measure_columns]
        assert kinds == [("qty", "int64"), ("note", "text")]

    def test_files_written(self, tmp_path):
        manifest = ingest_sample(tmp_path / "ds")
        root = tmp_path / "ds"
        assert (root / MANIFEST_NAME).exists()
        assert (root / "dim_1.dim").exists()
        assert (root / "dim_2.dim").exists()
        assert (root / "relation.tbl").stat().st_size == manifest.r * manifest.schema.row_bytes
        assert not (root / "relation.btx").exists()  # builds are separate

    def test_directories_sorted(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        text = (tmp_path / "ds" / "dim_1.dim").read_text()
        assert text == "arles\nbern\nlyon\n"

    def test_rows_stored_in_logical_order(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        rows = list(export_rows(tmp_path / "ds"))
        # day is the slow dimension (second key column): mon rows first
        assert rows == [
            ("bern", "mon", "12", "late"),
            ("lyon", "mon", "4", "ok"),
            ("lyon", "tue", "7", "ok"),
            ("arles", "wed", "-3", "returned"),
        ]

    def test_leading_zeros_become_canonical_ints(self, tmp_path):
        ingest_rows(["k", "v"], [("a", "007"), ("b", "8")], ["k"], tmp_path / "ds")
        assert list(export_rows(tmp_path / "ds")) == [("a", "7"), ("b", "8")]

    def test_float_inference(self, tmp_path):
        manifest = ingest_rows(["k", "v"], [("a", "1.5"), ("b", "2")], ["k"],
                               tmp_path / "ds")
        assert manifest.measure_columns[0].kind == "float64"
        assert list(export_rows(tmp_path / "ds")) == [("a", "1.5"), ("b", "2.0")]

    @pytest.mark.parametrize("value", ["1_000", " 7 ", "\u20281", "\u0661\u0662", "1e400",
                                       "1" * 5000, "NaN", "+inf", "Infinity"])
    def test_a_value_outside_the_number_grammar_makes_the_column_text(self, tmp_path, value):
        manifest = ingest_rows(["k", "v"], [("a", "1.5"), ("b", value)], ["k"], tmp_path / "ds")
        assert manifest.measure_columns[0].kind == "text"
        assert list(export_rows(tmp_path / "ds")) == [("a", "1.5"), ("b", value)]

    def test_text_width_inference(self, tmp_path):
        manifest = ingest_rows(["k", "v"], [("a", "héllo"), ("b", "x")], ["k"],
                               tmp_path / "ds")
        col = manifest.measure_columns[0]
        assert col.kind == "text"
        assert col.width == len("héllo".encode("utf-8"))

    def test_type_override(self, tmp_path):
        manifest = ingest_rows(["k", "v"], [("a", "12"), ("b", "7")], ["k"],
                               tmp_path / "ds", types={"v": "text:4"})
        assert manifest.measure_columns[0].kind == "text"
        assert manifest.measure_columns[0].width == 4
        assert list(export_rows(tmp_path / "ds")) == [("a", "12"), ("b", "7")]

    def test_override_errors(self, tmp_path):
        with pytest.raises(MalformedInputError):
            ingest_rows(["k", "v"], [("a", "1")], ["k"], tmp_path / "ds",
                        types={"nope": "text"})
        with pytest.raises(MalformedInputError):
            ingest_rows(["k", "v"], [("a", "1")], ["k"], tmp_path / "ds",
                        types={"v": "blob"})

    def test_key_only_relation(self, tmp_path):
        manifest = ingest_rows(["a", "b"], [("x", "p"), ("y", "q")], ["a", "b"],
                               tmp_path / "ds")
        assert manifest.schema.case == "1.1"
        assert manifest.measure_columns == ()
        assert manifest.schema.record_width == 1
        assert manifest.schema.row_bytes == 9
        assert manifest.schema.codec.columns == ()
        assert list(export_rows(tmp_path / "ds")) == [("x", "p"), ("y", "q")]
        # each row's record is the byte 0x01, which export checks
        tbl = tmp_path / "ds" / "relation.tbl"
        assert tbl.read_bytes()[8::9] == b"\x01\x01"
        tbl.write_bytes(tbl.read_bytes()[:-1] + b"\x00")
        with pytest.raises(MalformedInputError, match=re.escape("corrupt presence byte b'\\x00'")):
            list(export_rows(tmp_path / "ds"))

    def test_duplicate_key_rejected(self, tmp_path):
        rows = [("a", "1", "x"), ("a", "1", "y")]
        with pytest.raises(DuplicateKeyError):
            ingest_rows(["k1", "k2", "v"], rows, ["k1", "k2"], tmp_path / "ds")

    def test_duplicate_row_rejected(self, tmp_path):
        rows = [("a", "x"), ("a", "x")]
        with pytest.raises(DuplicateRowError):
            ingest_rows(["k", "v"], rows, ["k"], tmp_path / "ds")

    def test_input_shape_errors(self, tmp_path):
        with pytest.raises(MalformedInputError):
            ingest_rows(["k", "v"], [], ["k"], tmp_path / "ds")
        with pytest.raises(MalformedInputError):
            ingest_rows(["k", "v"], [("a",)], ["k"], tmp_path / "ds")
        with pytest.raises(MalformedInputError):
            ingest_rows(["k", "v"], [("a", "1")], ["missing"], tmp_path / "ds")
        with pytest.raises(MalformedInputError):
            ingest_rows(["k", "v"], [("a", "1")], [], tmp_path / "ds")
        with pytest.raises(MalformedInputError):
            ingest_rows(["k", "v"], [("a", "1")], ["k", "k"], tmp_path / "ds")
        with pytest.raises(MalformedInputError):
            ingest_rows(["k", "k"], [("a", "1")], ["k"], tmp_path / "ds")


    def test_unencodable_text_names_column_or_file(self, tmp_path):
        with pytest.raises(MalformedInputError, match=(
                "column v, data row 2: character 1 is not encodable as UTF-8")):
            ingest_rows(["k", "v"], [("a", "x"), ("b", "x\ud800")], ["k"], tmp_path / "ds")
        with pytest.raises(MalformedInputError, match=(
                "column v, data row 1: character 1 is not encodable as UTF-8")):
            ingest_rows(["k", "v"], [("a", "x\ud800")], ["k"], tmp_path / "ds",
                        types={"v": "text:4"})
        with pytest.raises(MalformedInputError, match=(
                r"dim_1\.dim: character 1 is not encodable as UTF-8")):
            ingest_rows(["k", "v"], [("a\ud800", "x")], ["k"], tmp_path / "ds")

    @pytest.mark.parametrize("columns,rows,message", [
        (["a", "b", "v"], [("y", "p", "7"), ("z", "\ud800", "8")],
         r"dim_2\.dim: character 2 is not encodable as UTF-8"),
        (["a", "b", "v\ud800"], [("y", "p", "7")],
         re.escape(r"manifest.txt: name 'v\ud800', character 1, is not encodable as UTF-8")),
    ], ids=["key value", "measure column name"])
    def test_unencodable_text_leaves_the_dataset_as_it_was(self, tmp_path, capsys,
                                                           columns, rows, message):
        # the second ingest fails on text it cannot write; no file changes,
        # and both paths still answer the first relation
        ds = tmp_path / "ds"
        ingest_rows(["a", "b", "v"], [("x", "p", "1"), ("y", "q", "2")], ["a", "b"], ds)
        build_dataset(ds)

        def digests():
            return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in sorted(ds.iterdir())}

        before = digests()
        with pytest.raises(MalformedInputError, match=message):
            ingest_rows(columns, rows, ["a", "b"], ds)
        assert digests() == before
        capsys.readouterr()
        for via in ("array", "table"):
            for at, code, out in (("x,p", 0, "v=1\n"), ("y,q", 0, "v=2\n"), ("y,p", 1, "empty\n")):
                assert main(["query", "--dataset", str(ds), "--at", at, "--via", via]) == code
                assert capsys.readouterr().out == out, (via, at)


class TestIngestCsv:
    def test_csv_with_quoting(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(
            'city,item,price\n'
            '"lyon, fr",bolt,2.5\n'
            '"x\ny",nut,1.0\n',
            encoding="utf-8",
        )
        manifest = ingest_csv(src, ["city", "item"], tmp_path / "ds")
        assert manifest.schema_name == "in"
        assert manifest.r == 2
        rows = set(export_rows(tmp_path / "ds"))
        assert ("lyon, fr", "bolt", "2.5") in rows
        assert ("x\ny", "nut", "1.0") in rows

    def test_missing_and_empty_files(self, tmp_path):
        with pytest.raises(MalformedInputError):
            ingest_csv(tmp_path / "nope.csv", ["a"], tmp_path / "ds")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(MalformedInputError):
            ingest_csv(empty, ["a"], tmp_path / "ds")

    def test_parser_error_names_file_and_line(self, tmp_path):
        src = tmp_path / "wide.csv"
        src.write_text("k,v\na,1\nb," + "x" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(MalformedInputError, match=r"wide\.csv, line 3: field larger"):
            ingest_csv(src, ["k"], tmp_path / "ds")

    def test_unreadable_input_is_a_read_error(self, tmp_path):
        folder = tmp_path / "folder.csv"
        folder.mkdir()
        with pytest.raises(MalformedInputError, match="cannot read .*folder.csv"):
            ingest_csv(folder, ["a"], tmp_path / "ds")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"k,v\na,1\nb,\xff\n")
        with pytest.raises(MalformedInputError, match="bad.csv is not UTF-8"):
            ingest_csv(bad, ["k"], tmp_path / "ds")

    def test_output_that_is_a_file_is_a_dataset_error(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("k,v\na,1\n", encoding="utf-8")
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        for out in (taken, taken / "ds"):
            with pytest.raises(DatasetError, match=f"cannot write the dataset to {out}"):
                ingest_csv(src, ["k"], out)
            with pytest.raises(DatasetError, match=f"cannot write the dataset to {out}"):
                ingest_rows(["k", "v"], [("a", "1")], ["k"], out)
        assert taken.read_text() == "not a directory"


class TestManifest:
    def test_roundtrip_awkward_names(self, tmp_path):
        manifest = ingest_rows(
            ["a=b", "v,1 100%"], [("x", "1"), ("y", "2")], ["a=b"], tmp_path / "ds",
            schema_name="smoke = test, 100%",
        )
        loaded = Manifest.load(tmp_path / "ds" / MANIFEST_NAME)
        assert loaded.schema_name == "smoke = test, 100%"
        assert loaded.key_columns == ("a=b",)
        assert loaded.measure_columns == manifest.measure_columns

    def test_load_errors(self, tmp_path):
        with pytest.raises(DatasetError):
            Manifest.load(tmp_path / "missing.txt")
        ingest_sample(tmp_path / "ds")
        path = tmp_path / "ds" / MANIFEST_NAME
        good = path.read_text()
        path.write_text(good.replace("format_version=1", "format_version=9"))
        with pytest.raises(DatasetError):
            Manifest.load(path)
        path.write_text(good.replace("row_bytes=", "row_bytes=9"))
        with pytest.raises(DatasetError):
            Manifest.load(path)
        path.write_text("no equals sign here\n")
        with pytest.raises(DatasetError):
            Manifest.load(path)

    def test_delta_and_rho_lines(self, tmp_path):
        # 3 of 6 cells, a 3-byte record in an 11-byte row
        manifest = ingest_rows(["a", "b", "v"], [("x", "p", "abc"), ("y", "q", "d"),
                                                 ("x", "r", "ef")], ["a", "b"], tmp_path / "ds")
        fields = dict(line.split("=", 1) for line in
                      (tmp_path / "ds" / MANIFEST_NAME).read_text().splitlines())
        assert fields["delta"] == repr(manifest.schema.delta) == repr(3 / 11)
        assert fields["rho"] == repr(manifest.rho) == repr(0.5)
        # the schema is built once per manifest
        assert manifest.schema is manifest.schema

    # the relation: one row of three key attributes, so n = k = 3, one cell,
    # case 1.1, a 1-byte record, a 13-byte row, delta = 1/13 and rho = 1.0;
    # delta and rho must be spelled as repr spells them
    @pytest.mark.parametrize("field, value, message", [
        ("r", "-3", "row count -3 is negative"),
        ("r", "2", "2 rows cannot fit 1 cells"),
        ("key_columns", "a,b", "expected 3 key column names, got 2"),
        ("cards", "4294967295,4294967295,4294967295",
         "bad manifest: cell count 79228162458924105385300197375 exceeds the unsigned "
         "64-bit range"),
    ] + [(field, value, f"manifest {field} is {value}, but its cards and measure columns "
                        f"give {derived}")
         for field, value, derived in [("n", "4", 3), ("n", "2", 3), ("k", "2", 3),
                                       ("k", "4", 3), ("case", "1.2", "1.1"),
                                       ("row_bytes", "14", 13), ("record_width", "2", 1)]]
    + [(field, value, f"manifest {field} is {value}, but its cards, measure columns and r "
                      f"give {derived}")
       for field, value, derived in [("delta", "70.07692307692308", "0.07692307692307693"),
                                     ("rho", "991.0", "1.0"), ("rho", "1", "1.0")]],
        ids=["negative-r", "r-above-cells", "key-columns-short", "cell-count-overflow",
             "n-over", "n-under", "k-under", "k-over", "case", "row_bytes", "record_width",
             "delta", "rho", "rho-spelling"])
    def test_bad_values_name_file(self, tmp_path, field, value, message):
        ingest_rows(["a", "b", "c"], [("x", "p", "u")], ["a", "b", "c"], tmp_path / "ds")
        path = tmp_path / "ds" / MANIFEST_NAME
        path.write_text("".join(
            f"{field}={value}\n" if line.startswith(f"{field}=") else line
            for line in path.read_text().splitlines(keepends=True)
        ))
        with pytest.raises(DatasetError, match=re.escape(f"{path}: {message}")):
            Manifest.load(path)

    def test_load_and_open_leave_the_codec_unbuilt(self, tmp_path):
        root = tmp_path / "ds"
        ingest_sample(root)
        build_dataset(root)
        assert "codec" not in Manifest.load(root / MANIFEST_NAME).schema.__dict__
        with open_dataset(root) as db:
            assert "codec" not in db.manifest.schema.__dict__
            assert db.codec is db.manifest.schema.codec

    @pytest.mark.parametrize("field, value, text", [
        ("r", "0_2", "0_2"), ("k", " ٢", " ٢"), ("n", "4.0", "4.0"),
        ("format_version", "١", "١"), ("cards", "3,3 ", "3 "), ("row_bytes", "2_4", "2_4"),
        ("record_width", "1.6e1", "1.6e1"), ("r", "9223372036854775808", "9223372036854775808"),
        ("measure_columns", "qty:int64:٨,note:text:8", "٨"),
    ])
    def test_a_number_outside_the_int_grammar_is_refused(self, tmp_path, field, value, text):
        # int() reads 0_2, spaces and non-ASCII digits; the manifest takes
        # only [+-]?[0-9]+ in ASCII digits, in the int64 range
        ingest_sample(tmp_path / "ds")
        path = tmp_path / "ds" / MANIFEST_NAME
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(f"{field}={value}\n" if line.startswith(f"{field}=") else line
                                for line in lines), encoding="utf-8")
        with pytest.raises(DatasetError, match=re.escape(
                f"{path}: bad manifest: {field} {text!r} is not an int64 integer")):
            Manifest.load(path)
        path.write_text("".join(lines).replace("\nr=4\n", "\nr=+004\n"), encoding="utf-8")
        assert Manifest.load(path).r == 4

    def test_file_names_are_not_fields(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        text = (tmp_path / "ds" / MANIFEST_NAME).read_text()
        assert text.startswith("format_version=1\n")
        assert re.findall(r"^(?:dim_files|\w+_file)=", text, re.M) == []
        for name in ("format_version", "dim_files", "table_file", "btree_file",
                     "array_file", "header_file"):
            with pytest.raises(TypeError):
                Manifest(schema_name="s", key_columns=("a",),
                         schema=RelationSchema((2,), (MeasureColumn("v", "int64", 8),)), r=1,
                         **{name: "x"})

    def test_manifest_that_names_its_files_still_opens(self, tmp_path):
        """A manifest in the earlier format, which listed the file names, answers as before."""
        root = tmp_path / "ds"
        ingest_sample(root)
        build_dataset(root)
        expected = every_answer(root)
        assert len(expected[1]) == 4
        path = root / MANIFEST_NAME
        lines = path.read_text().splitlines()
        assert lines[-1].startswith("built_at=")
        lines[-1:-1] = ["dim_files=dim_1.dim,dim_2.dim", "table_file=relation.tbl",
                        "btree_file=relation.btx", "array_file=relation.arr",
                        "header_file=relation.hdr"]
        path.write_text("\n".join(lines) + "\n")
        assert every_answer(root) == expected
        build_dataset(root)
        assert every_answer(root) == expected

    def test_unreadable_manifest_names_file(self, tmp_path):
        path = tmp_path / "missing.txt"
        with pytest.raises(DatasetError, match=re.escape(f"cannot read manifest {path}: ")):
            Manifest.load(path)

    def test_key_given_twice_names_both_lines(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        path = tmp_path / "ds" / MANIFEST_NAME
        lines = path.read_text().splitlines()
        first = next(n for n, line in enumerate(lines, start=1) if line.startswith("r="))
        path.write_text("\n".join(lines + ["r=1"]) + "\n")
        with pytest.raises(DatasetError, match=re.escape(
                f"{path}: manifest key 'r' is on lines {first} and {len(lines) + 1}")):
            Manifest.load(path)

    def test_bad_line_names_file_and_line_number(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        path = tmp_path / "ds" / MANIFEST_NAME
        lines = path.read_text().splitlines()
        lines.insert(3, "no equals sign here")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError,
                           match=re.escape(f"{path}: bad manifest line 4 'no equals sign here'")):
            Manifest.load(path)

    def test_unsupported_version_names_file(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        path = tmp_path / "ds" / MANIFEST_NAME
        path.write_text(path.read_text().replace("format_version=1", "format_version=9"))
        with pytest.raises(DatasetError, match=re.escape(f"{path}: unsupported manifest version 9")):
            Manifest.load(path)

    def test_missing_field_names_file(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        path = tmp_path / "ds" / MANIFEST_NAME
        path.write_text("".join(
            line for line in path.read_text().splitlines(keepends=True)
            if not line.startswith("row_bytes=")
        ))
        with pytest.raises(DatasetError, match=re.escape(f"{path}: bad manifest: 'row_bytes'")):
            Manifest.load(path)

    def test_bad_schema_names_file(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        path = tmp_path / "ds" / MANIFEST_NAME
        good = path.read_text()
        for old, new in (("cards=3,3", "cards=0,3"), (":int64:8", ":blob:8")):
            assert old in good
            path.write_text(good.replace(old, new))
            with pytest.raises(DatasetError, match=re.escape(f"{path}: bad manifest: ")):
                Manifest.load(path)

    def test_presence_measure_is_an_unknown_kind(self, tmp_path):
        """Key-only relations have no measure column, so a presence column is refused."""
        ingest_rows(["a", "b"], [("x", "p"), ("y", "q")], ["a", "b"], tmp_path / "ds")
        path = tmp_path / "ds" / MANIFEST_NAME
        good = path.read_text()
        assert "\nn=2\n" in good and "\nmeasure_columns=\n" in good
        path.write_text(good.replace("\nn=2\n", "\nn=3\n").replace(
            "\nmeasure_columns=\n", "\nmeasure_columns=here:presence:1\n"))
        with pytest.raises(DatasetError, match=re.escape(
                f"{path}: bad manifest: unknown column kind 'presence'")):
            Manifest.load(path)


class TestBuild:
    def test_build_both(self, tmp_path):
        manifest = ingest_sample(tmp_path / "ds")
        rep = build_dataset(tmp_path / "ds")
        root = tmp_path / "ds"
        for name in ("relation.btx", "relation.arr", "relation.hdr"):
            assert (root / name).exists()
        assert rep["table"] == manifest.r * manifest.schema.row_bytes
        assert rep["array"] == manifest.r * manifest.schema.record_width
        assert rep["header"] == (root / "relation.hdr").stat().st_size
        assert rep["rows"] == 4
        assert rep["dimensions"] == 2

    def test_build_single_targets(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        rep = build_dataset(tmp_path / "ds", "array")
        assert rep["btree"] is None
        assert rep["array"] is not None
        rep = build_dataset(tmp_path / "ds", "table")
        assert rep["btree"] is not None

    def test_build_is_deterministic(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        build_dataset(tmp_path / "ds")
        root = tmp_path / "ds"
        first = {
            name: (root / name).read_bytes()
            for name in ("relation.btx", "relation.arr", "relation.hdr")
        }
        build_dataset(tmp_path / "ds")
        for name, data in first.items():
            assert (root / name).read_bytes() == data

    def test_build_errors(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        with pytest.raises(DatasetError):
            build_dataset(tmp_path / "ds", "everything")
        (tmp_path / "ds" / "relation.tbl").unlink()
        with pytest.raises(DatasetError):
            build_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("name", ["relation.btx", "relation.arr", "relation.hdr"])
    def test_unwritable_output_is_a_dataset_error(self, tmp_path, name):
        ingest_sample(tmp_path / "ds")
        path = tmp_path / "ds" / name
        path.mkdir()
        with pytest.raises(DatasetError, match=re.escape(f"cannot write {path}: ")):
            build_dataset(tmp_path / "ds")

    def test_torn_table_fails_both_builds(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        tbl = tmp_path / "ds" / "relation.tbl"
        tbl.write_bytes(tbl.read_bytes()[:-1])
        for which in ("table", "array"):
            with pytest.raises(StorageError, match=f"size {tbl.stat().st_size} "):
                build_dataset(tmp_path / "ds", which)

    def test_report_rendering(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        build_dataset(tmp_path / "ds")
        text = format_size_report(size_report(tmp_path / "ds"))
        for label in ("Table", "B-tree index", "Compressed array", "Header",
                      "Dimension values", "number of dimensions", "rows stored"):
            assert label in text

    def test_report_before_build(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        text = format_size_report(size_report(tmp_path / "ds"))
        # the table is written, but neither total counts a part not built
        assert re.search(r"^table representation +\(not built\)$", text, re.M)
        assert re.search(r"^array representation +\(not built\)$", text, re.M)

    def test_report_refuses_a_missing_dimension_directory(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        build_dataset(tmp_path / "ds")
        dim = tmp_path / "ds" / "dim_2.dim"
        dim.unlink()
        with pytest.raises(DatasetError, match=re.escape(f"dimension file {dim} is missing")):
            size_report(tmp_path / "ds")


class TestTableShortByWholeRows:
    """A table cut by a whole row fails wherever it is streamed, naming the table."""

    @pytest.fixture
    def short(self, tmp_path):
        ds = tmp_path / "ds"
        manifest = ingest_rows(["k", "j", "v"], [("a", "x", "1"), ("b", "x", "2"),
                                                 ("c", "y", "3")], ["k", "j"], ds)
        tbl = ds / "relation.tbl"
        tbl.write_bytes(tbl.read_bytes()[: -manifest.schema.row_bytes])
        return ds, re.escape(f"{tbl}: table holds 2 rows, manifest says 3")

    def test_export_rows(self, short):
        ds, message = short
        with pytest.raises(DatasetError, match=message):
            list(export_rows(ds))

    @pytest.mark.parametrize("which", ["both", "table", "array"])
    def test_build_writes_nothing(self, short, which):
        ds, message = short
        with pytest.raises(DatasetError, match=message):
            build_dataset(ds, which)
        assert not [p for p in ds.iterdir() if p.suffix in (".btx", ".arr", ".hdr")]

    @pytest.mark.parametrize("argv", [["stats", "--conjoint", "1"], ["export"]])
    def test_cli(self, short, capsys, argv):
        ds, message = short
        assert main(argv[:1] + ["--dataset", str(ds)] + argv[1:]) == 2
        assert re.search(f"^error: {message}$", capsys.readouterr().err, re.MULTILINE)


class TestOpenAndQuery:
    def test_lookups_agree(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        build_dataset(tmp_path / "ds")
        with open_dataset(tmp_path / "ds") as db:
            dirs = db.dimension_directories()
            codec = db.codec
            seen = 0
            for store in dirs[0]:
                for day in dirs[1]:
                    indices = (dirs[0].index_of(store), dirs[1].index_of(day))
                    via_array = db.array.get_cell(indices)
                    recno = db.table.btree_lookup(indices)
                    via_table = db.table.read_measures(recno) if recno else None
                    assert via_array == via_table
                    if via_array is not None:
                        seen += 1
                        codec.unpack(via_array)
            assert seen == db.manifest.r == 4

    def test_dimension_size_mismatch_names_file_and_counts(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        build_dataset(tmp_path / "ds")
        dim = tmp_path / "ds" / "dim_2.dim"
        dim.write_text(dim.read_text() + "zzz\n")
        with open_dataset(tmp_path / "ds") as db:
            for _ in range(2):  # a failed check caches nothing
                with pytest.raises(DatasetError,
                                   match=re.escape(f"{dim}: dimension directory holds 4 "
                                                   "values, manifest says 3")):
                    db.dimension_directories()

    def test_open_refuses_unknown_store_names(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        build_dataset(tmp_path / "ds")
        for need in (("tabel",), ("table", "arrays"), "table"):
            with pytest.raises(DatasetError, match=re.escape(
                    f"need names the stores 'table' and 'array' only, not {need!r}")):
                open_dataset(tmp_path / "ds", need=need)

    def test_open_requires_builds(self, tmp_path):
        ingest_sample(tmp_path / "ds")
        with pytest.raises(DatasetError):
            open_dataset(tmp_path / "ds")
        build_dataset(tmp_path / "ds", "array")
        with pytest.raises(DatasetError):
            open_dataset(tmp_path / "ds", need=("table",))
        with open_dataset(tmp_path / "ds", need=("array",)) as db:
            assert db.table is None
            assert db.array.record_count == 4

    def test_a_closed_store_reads_no_other_file(self, tmp_path, monkeypatch):
        """Once closed, every reader raises EBADF and reads no file, even
        after another file has taken over the descriptor numbers the stores
        held.  The table has three blocks, so the binary search compares keys."""
        counted = CountedPread(os.pread)
        monkeypatch.setattr(os, "pread", counted)
        synth = generate_synthetic(2, (40, 40), 0.5, (4,), seed=3)
        materialize_synthetic(synth, tmp_path / "ds")
        build_dataset(tmp_path / "ds")
        db = open_dataset(tmp_path / "ds")
        table, array = db.table, db.array
        coords = table.read_row(5)[0]
        assert array.get_cell(coords) == table.read_measures(table.btree_lookup(coords))
        held = {table._tbl_fd, array._fd}
        db.close()
        with ExitStack() as files:
            opened = set()
            for i in range(64):
                if held <= opened:
                    break
                path = tmp_path / f"other{i}"
                path.write_bytes(b"Z" * 4096)
                opened.add(files.enter_context(open(path, "rb")).fileno())
            assert held <= opened  # both numbers now name files of Z
            readers = {
                "btree_lookup": lambda: table.btree_lookup(coords),
                "binary_search_lookup": lambda: table.binary_search_lookup(coords),
                "read_measures": lambda: table.read_measures(5),
                "read_row": lambda: table.read_row(5),
                "get_cell": lambda: array.get_cell(coords),
                "read_record": lambda: array.read_record(1),
            }
            for name, read in readers.items():
                counted.calls.clear()
                with pytest.raises(OSError) as failure:
                    read()
                assert failure.value.errno == errno.EBADF, name
                assert set(counted.calls) == {-1}, name


class TestMaterializeSynthetic:
    def test_matches_generator(self, tmp_path):
        synth = generate_synthetic(3, (6, 5, 4), 0.35, (3,), seed=8)
        manifest = materialize_synthetic(synth, tmp_path / "ds")
        assert manifest.r == synth.r == int(0.35 * cell_count((6, 5, 4)))
        build_dataset(tmp_path / "ds")
        with open_dataset(tmp_path / "ds") as db:
            stored = list(db.array.iterate_nonempty())
        from cubestore import delinearize

        expected = [(delinearize(p, (6, 5, 4)), rec) for p, rec in synth.cells]
        assert stored == expected

    def test_key_only_synthetic(self, tmp_path):
        synth = generate_synthetic(2, (9, 9), 0.5, (), seed=8)
        manifest = materialize_synthetic(synth, tmp_path / "ds")
        assert manifest.schema.case == "1.1"
        build_dataset(tmp_path / "ds")
        with open_dataset(tmp_path / "ds") as db:
            assert db.array.read_record(1) == b"\x01"
