"""End-to-end command-line runs against real dataset directories."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cubestore
from cubestore import open_dataset
from cubestore.cli import main
from cubestore.dataset import Manifest

CSV = (
    "store,day,qty,note\n"
    "lyon,mon,4,ok\n"
    "bern,mon,12,late\n"
    "lyon,tue,7,ok\n"
    "arles,wed,-3,returned\n"
)


@pytest.fixture
def dataset(tmp_path):
    src = tmp_path / "sales.csv"
    src.write_text(CSV, encoding="utf-8")
    ds = tmp_path / "ds"
    code = main(["ingest", "--csv", str(src), "--keys", "store,day",
                 "--out", str(ds)])
    assert code == 0
    return ds


@pytest.fixture
def built(dataset):
    assert main(["build", "--dataset", str(dataset)]) == 0
    return dataset


class TestIngest:
    def test_output(self, tmp_path, capsys):
        src = tmp_path / "sales.csv"
        src.write_text(CSV, encoding="utf-8")
        code = main(["ingest", "--csv", str(src), "--keys", "store,day",
                     "--out", str(tmp_path / "ds")])
        out = capsys.readouterr().out
        assert code == 0
        assert "ingested 4 rows" in out
        assert "store, day" in out
        assert "qty (int64, 8 B)" in out

    def test_duplicate_key_fails(self, tmp_path, capsys):
        src = tmp_path / "dup.csv"
        src.write_text("k,v\na,1\na,2\n", encoding="utf-8")
        code = main(["ingest", "--csv", str(src), "--keys", "k",
                     "--out", str(tmp_path / "ds")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_csv_parser_error_fails_without_traceback(self, tmp_path, capsys):
        src = tmp_path / "wide.csv"
        src.write_text("k,v\na," + "x" * 200_000 + "\n", encoding="utf-8")
        code = main(["ingest", "--csv", str(src), "--keys", "k",
                     "--out", str(tmp_path / "ds")])
        assert code == 2
        assert "line 2: field larger than field limit" in capsys.readouterr().err

    def test_missing_key_column_fails(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("k,v\na,1\n", encoding="utf-8")
        code = main(["ingest", "--csv", str(src), "--keys", "zzz",
                     "--out", str(tmp_path / "ds")])
        assert code == 2
        assert "zzz" in capsys.readouterr().err

    def test_types_override(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        src.write_text("k,v\na,12\n", encoding="utf-8")
        code = main(["ingest", "--csv", str(src), "--keys", "k",
                     "--out", str(tmp_path / "ds"), "--types", "v=text:6"])
        assert code == 0
        assert "v (text, 6 B)" in capsys.readouterr().out

    def test_column_names_with_a_comma_or_an_equals_sign(self, tmp_path, capsys):
        # --keys and --types read one CSV record each, and a type splits on
        # its last "=", so any column name can be a key or typed
        src = tmp_path / "t.csv"
        src.write_text('"city, state",month,"units, sold",x=y\nParis,jan,12,a\n',
                       encoding="utf-8")
        code = main(["ingest", "--csv", str(src), "--keys", '"city, state",month',
                     "--out", str(tmp_path / "ds"),
                     "--types", '"units, sold=text:4",x=y=text:3'])
        assert code == 0, capsys.readouterr().err
        assert "units, sold (text, 4 B), x=y (text, 3 B)" in capsys.readouterr().out
        assert main(["export", "--dataset", str(tmp_path / "ds")]) == 0
        assert capsys.readouterr().out == (
            '"city, state",month,"units, sold",x=y\nParis,jan,12,a\n')

    @pytest.mark.parametrize("spec", ["v=text:abc", "v=text: 9", "v=text:٩", "v=text:0",
                                      "v=text:-3", "v=text:1.5", "v=text:", "v=int64:8",
                                      "v=float64:8"])
    def test_bad_type_width_exits_2_without_traceback(self, tmp_path, capsys, spec):
        # only text takes a width, and it is a positive integer in ASCII digits
        src = tmp_path / "t.csv"
        src.write_text("k,v\na,12\n", encoding="utf-8")
        code = main(["ingest", "--csv", str(src), "--keys", "k",
                     "--out", str(tmp_path / "ds"), "--types", spec])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: bad column type {spec.partition('=')[2]!r} for v: "
            "only text takes a width, and it is a positive integer\n")

    @pytest.mark.parametrize("rows", ["a,12\n", "a,12\nb,7\n"])
    def test_a_text_width_that_cannot_be_allocated_exits_2(self, tmp_path, capsys, rows):
        # r * width records are allocated at once: past the address space
        # (one row) or past an index (two), a named error and no traceback
        src = tmp_path / "t.csv"
        src.write_text("k,v\n" + rows, encoding="utf-8")
        width = 2**63 - 1
        code = main(["ingest", "--csv", str(src), "--keys", "k",
                     "--out", str(tmp_path / "ds"), "--types", f"v=text:{width}"])
        assert code == 2
        r = rows.count("\n")
        assert capsys.readouterr().err == (
            f"error: column v: text width {width} at r = {r} needs {r * width:,} record "
            "bytes, more than can be allocated\n")
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("types, rows, message", [
        ("v=int64", "a,12\nb,hello\n", "column v, data row 2: 'hello' is not an int64 integer"),
        ("v=int64", "a,1_0\n", "column v, data row 1: '1_0' is not an int64 integer"),
        ("v=float64", "a,1.5\nb,2\nc,1e400\n",
         "column v, data row 3: '1e400' is not a float64 number"),
        ("v=text:2", "a,ab\nb,abc\n", "column v, data row 2: value is 3 bytes, width is 2"),
    ])
    def test_a_refused_value_names_its_column_and_data_row(self, tmp_path, capsys,
                                                          types, rows, message):
        src = tmp_path / "t.csv"
        src.write_text("k,v\n" + rows, encoding="utf-8")
        code = main(["ingest", "--csv", str(src), "--keys", "k",
                     "--out", str(tmp_path / "ds"), "--types", types])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestBuild:
    def test_report(self, built, capsys):
        # the fixture already built once; build again and read the report
        assert main(["build", "--dataset", str(built)]) == 0
        out = capsys.readouterr().out
        for label in ("Table", "B-tree index", "Compressed array", "Header",
                      "Dimension values"):
            assert label in out

    def test_array_only(self, dataset, capsys):
        assert main(["build", "--dataset", str(dataset), "--only", "array"]) == 0
        out = capsys.readouterr().out
        assert "(not built)" in out  # the index side
        # the table total waits for its index; the array total is its three parts
        array = sum(path.stat().st_size for path in [dataset / "relation.arr",
                                                     dataset / "relation.hdr",
                                                     *dataset.glob("dim_*.dim")])
        assert re.search(r"^table representation +\(not built\)$", out, re.M)
        assert re.search(rf"^array representation +{array:,} bytes$", out, re.M)
        assert (dataset / "relation.arr").exists()
        assert not (dataset / "relation.btx").exists()

    def test_missing_dataset(self, tmp_path, capsys):
        assert main(["build", "--dataset", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_page_size_variable_is_not_read(self, dataset, monkeypatch):
        monkeypatch.setenv("CUBESTORE_PAGE_SIZE", "128")
        assert main(["build", "--dataset", str(dataset)]) == 0
        with open_dataset(dataset, need=("table",)) as db:
            assert db.table.meta.page_size == 4096
        assert main(["build", "--dataset", str(dataset), "--page-size", "256"]) == 0
        with open_dataset(dataset, need=("table",)) as db:
            assert db.table.meta.page_size == 256


class TestQuery:
    def test_key_only_relation(self, tmp_path, capsys):
        src = tmp_path / "pairs.csv"
        src.write_text("a,b\nx,p\ny,q\n", encoding="utf-8")
        ds = tmp_path / "ds"
        assert main(["ingest", "--csv", str(src), "--keys", "a,b", "--out", str(ds)]) == 0
        assert main(["build", "--dataset", str(ds)]) == 0
        capsys.readouterr()
        for via in ("array", "table"):
            assert main(["query", "--dataset", str(ds), "--at", "y,q", "--via", via]) == 0
            assert capsys.readouterr().out == "present\n"
            assert main(["query", "--dataset", str(ds), "--at", "x,q", "--via", via]) == 1
            assert capsys.readouterr().out == "empty\n"
        assert main(["export", "--dataset", str(ds), "--out", str(tmp_path / "back.csv")]) == 0
        assert (tmp_path / "back.csv").read_text(encoding="utf-8").splitlines() == [
            "a,b", "x,p", "y,q"]

    def test_hit_via_both_paths(self, built, capsys):
        for via in ("array", "table"):
            code = main(["query", "--dataset", str(built),
                         "--at", "lyon,mon", "--via", via])
            out = capsys.readouterr().out
            assert code == 0
            assert "qty=4" in out
            assert "note=ok" in out

    def test_empty_cell(self, built, capsys):
        code = main(["query", "--dataset", str(built), "--at", "arles,mon"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "empty"

    def test_unknown_value(self, built, capsys):
        code = main(["query", "--dataset", str(built), "--at", "paris,mon"])
        assert code == 2
        assert "paris" in capsys.readouterr().err

    def test_wrong_value_count(self, built, capsys):
        code = main(["query", "--dataset", str(built), "--at", "lyon"])
        assert code == 2
        assert "2 dimensions" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, stored", [
        (["query", "--at", "bern,mon", "--via", "array"], "relation.arr"),
        (["query", "--at", "bern,mon", "--via", "table"], "relation.tbl"),
        (["export"], "relation.tbl"),
    ])
    def test_corrupt_text_byte_fails_without_traceback(self, built, capsys, argv, stored):
        path = built / stored
        data = bytearray(path.read_bytes())
        data[data.index(b"late")] = 0xFF
        path.write_bytes(bytes(data))
        assert main(argv[:1] + ["--dataset", str(built)] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: column note: corrupt text, byte 0 is not UTF-8")

    def test_key_value_with_a_comma_round_trips_through_export(self, tmp_path, capsys):
        # --at reads one CSV record, so the key export writes queries its row
        src = tmp_path / "sales.csv"
        src.write_text('city,month,sales\n"Paris, TX",jan,1\nLyon,feb,2\nOslo,jan,3\n',
                       encoding="utf-8")
        ds = tmp_path / "ds"
        assert main(["ingest", "--csv", str(src), "--keys", "city,month",
                     "--out", str(ds)]) == 0
        assert main(["build", "--dataset", str(ds)]) == 0
        capsys.readouterr()
        assert main(["export", "--dataset", str(ds)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines() if "Paris" in line)
        assert line == '"Paris, TX",jan,1'
        for via in ("array", "table"):
            assert main(["query", "--dataset", str(ds), "--at", line.rsplit(",", 1)[0],
                         "--via", via]) == 0
            assert capsys.readouterr().out == "sales=1\n"

    def test_query_needs_build(self, dataset, capsys):
        code = main(["query", "--dataset", str(dataset), "--at", "lyon,mon"])
        assert code == 2
        assert "build" in capsys.readouterr().err

    @pytest.mark.parametrize("via,name", [("array", "relation.arr"), ("table", "relation.btx")])
    def test_ingest_over_a_built_dataset_needs_a_new_build(self, tmp_path, capsys, via, name):
        # the old build's files would answer for the old table: v=1 via the
        # array while the table says v=7
        ds = tmp_path / "ds"
        for rows in ("a,1\nb,2\n", "a,7\nb,8\n"):
            src = tmp_path / "in.csv"
            src.write_text("k,v\n" + rows, encoding="utf-8")
            assert main(["ingest", "--csv", str(src), "--keys", "k", "--out", str(ds)]) == 0
            if rows.startswith("a,1"):
                assert main(["build", "--dataset", str(ds)]) == 0
        for built in ("relation.btx", "relation.arr", "relation.hdr"):
            assert not (ds / built).exists()
        capsys.readouterr()
        assert main(["query", "--dataset", str(ds), "--at", "a", "--via", via]) == 2
        kind = {"relation.arr": "array", "relation.btx": "index"}[name]
        assert capsys.readouterr().err == f"error: {kind} file {ds / name} is missing; run build\n"
        assert main(["build", "--dataset", str(ds)]) == 0
        capsys.readouterr()
        assert main(["query", "--dataset", str(ds), "--at", "a", "--via", via]) == 0
        assert capsys.readouterr().out == "v=7\n"


class TestStats:
    def test_figures_and_verdict(self, built, capsys):
        assert main(["stats", "--dataset", str(built)]) == 0
        # 4 of 9 cells, 16-byte record (int64 + text:8), 24-byte row:
        # delta = 2/3, rho = 4/9, delta/rho = 1.5 > 1; 9 cells take 24 + 8 + 2
        # bitmap bytes (preamble, one rank directory entry, body) against
        # 3 runs of 16 bytes
        assert capsys.readouterr().out.splitlines()[:9] == [
            "rows (r)                  4",
            "cells                     9",
            "row bytes                 24",
            "record bytes              16",
            "data ratio (delta)        0.6666666666666666",
            "density (rho)             0.4444444444444444",
            "size ratio (delta/rho)    1.5",
            "verdict: table smaller (uncompressed model)",
            "header encoding           presence bitmap, 34 bytes (run header: 48 bytes)",
        ]

    @pytest.mark.parametrize("damage", ["missing dimension", "bitmap page"])
    def test_a_damaged_dataset_prints_only_its_error(self, built, capsys, damage):
        if damage == "missing dimension":
            (built / "dim_2.dim").unlink()
            named = f"{built / 'dim_2.dim'} is missing"
        else:
            hdr = built / "relation.hdr"
            data = bytearray(hdr.read_bytes())
            data[32] ^= 1  # cell 1, in the body's first byte, after one directory entry
            hdr.write_bytes(bytes(data))
            named = f"{hdr}: bitmap page 0 at byte 32 holds "
        capsys.readouterr()
        assert main(["stats", "--dataset", str(built)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert named in err

    def test_header_encoding_before_build(self, dataset, capsys):
        assert main(["stats", "--dataset", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "header encoding           (not built)" in out
        assert not any(line.startswith("B-tree ") for line in out.splitlines())

    def test_btree_shape(self, tmp_path, capsys):
        # 200 rows of two 4-byte key fields and an 8-byte measure: 8-byte
        # separators in 256-byte pages give t = 248 // 16 = 15, and the
        # 16-byte rows make 13 blocks of 256 // 16 = 16 rows under one root
        src = tmp_path / "d.csv"
        src.write_text("a,b,v\n" + "".join(
            f"a{i:03},b{i % 7},{i}\n" for i in range(200)
        ), encoding="utf-8")
        ds = tmp_path / "ds"
        assert main(["ingest", "--csv", str(src), "--keys", "a,b", "--out", str(ds)]) == 0
        assert main(["build", "--dataset", str(ds), "--page-size", "256"]) == 0
        capsys.readouterr()
        assert main(["stats", "--dataset", str(ds)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[9] == ("B-tree                    height 1, t 15, key 8 bytes, "
                            "pages: 1 internal over 13 table blocks of 16 rows")

    def test_sparse_relation_keeps_run_header(self, tmp_path, capsys):
        # 200 diagonal rows of a 200 x 200 box: 200 runs (3,200 bytes)
        # against 24 + 2 * 8 + 5,000 bitmap bytes (two 4,096-byte pages)
        src = tmp_path / "d.csv"
        src.write_text("a,b,v\n" + "".join(
            f"a{i:03},b{i:03},{i}\n" for i in range(200)
        ), encoding="utf-8")
        ds = tmp_path / "ds"
        assert main(["ingest", "--csv", str(src), "--keys", "a,b", "--out", str(ds)]) == 0
        assert main(["build", "--dataset", str(ds)]) == 0
        capsys.readouterr()
        assert main(["stats", "--dataset", str(ds)]) == 0
        out = capsys.readouterr().out
        assert ("header encoding           run header, 3,200 bytes "
                "(presence bitmap: 5,040 bytes)") in out
        assert (ds / "relation.hdr").stat().st_size == 3200

    def test_array_smaller_verdict(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        src.write_text("a,b,v\n" + "".join(
            f"a{i},b{j},{i * 10 + j}\n" for i in range(4) for j in range(4)
        ), encoding="utf-8")
        assert main(["ingest", "--csv", str(src), "--keys", "a,b",
                     "--out", str(tmp_path / "ds")]) == 0
        capsys.readouterr()
        assert main(["stats", "--dataset", str(tmp_path / "ds")]) == 0
        out = capsys.readouterr().out
        # dense relation: rho = 1 >= delta, so the array side wins
        assert "verdict: multidimensional smaller (uncompressed model)" in out

    def test_conjoint(self, built, capsys):
        assert main(["stats", "--dataset", str(built), "--conjoint", "1"]) == 0
        out = capsys.readouterr().out
        assert "conjoint of dimensions" in out
        assert "conjoint size" in out
        assert "density after (rho-prime)" in out

    def test_degenerate_conjoint(self, built, capsys):
        assert main(["stats", "--dataset", str(built), "--conjoint", "2"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["stats", "--dataset", str(built), "--conjoint", "2",
                     "--allow-degenerate"]) == 0


class TestBrokenDimensionDirectory:
    COMMANDS = {
        "query": ["query", "--at", "lyon,mon"],
        "export": ["export"],
    }
    MESSAGES = {
        "missing": "cannot read dimension directory {dim}: ",
        "invalid-utf8": "cannot read dimension directory {dim}: byte 0 is not UTF-8",
        "unsorted": "cannot read dimension directory {dim}: directory values must be "
                    "strictly sorted",
        "extra-value": "{dim}: dimension directory holds 4 values, manifest says 3",
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("damage", sorted(MESSAGES))
    def test_error_names_file(self, built, capsys, command, damage):
        dim = built / "dim_1.dim"
        if damage == "missing":
            dim.unlink()
        elif damage == "invalid-utf8":
            dim.write_bytes(b"\xff\xfe\n")
        elif damage == "unsorted":
            dim.write_text("lyon\narles\nbern\n")
        else:
            dim.write_text(dim.read_text() + "zzz\n")
        argv = self.COMMANDS[command]
        assert main(argv[:1] + ["--dataset", str(built)] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + self.MESSAGES[damage].format(dim=dim))


class TestBrokenDatasetFile:
    """A missing file, or one that disagrees with the manifest: exit 2, the file named."""

    CASES = {
        "partial-row": ("table", "relation.tbl",
                        "{path}: size 95 is not a multiple of the 24-byte row"),
        "table-rows": ("table", "relation.tbl", "{path}: table holds 4 rows, manifest says 3"),
        "array-records": ("array", "relation.hdr",
                          "{path}: array holds 4 records, manifest says 3"),
        "missing-array": ("array", "relation.arr", "array file {path} is missing; run build"),
        "missing-header": ("array", "relation.hdr", "header file {path} is missing; run build"),
    }

    @pytest.mark.parametrize("damage", sorted(CASES))
    def test_error_names_file(self, built, capsys, damage):
        via, name, message = self.CASES[damage]
        path = built / name
        if damage == "partial-row":
            path.write_bytes(path.read_bytes()[:-1])
        elif damage.startswith("missing"):
            path.unlink()
        else:
            manifest = built / "manifest.txt"
            manifest.write_text(manifest.read_text().replace("\nr=4\n", "\nr=3\n"))
        assert main(["query", "--dataset", str(built), "--at", "bern,mon", "--via", via]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(path=path))


class TestNonUtf8Manifest:
    """A manifest byte that is not UTF-8: exit 2 and one error line naming the file."""

    @pytest.mark.parametrize("argv", [["query", "--at", "lyon,mon"], ["stats"], ["export"]])
    def test_exit_code(self, built, capsys, argv):
        manifest = built / "manifest.txt"
        data = bytearray(manifest.read_bytes())
        data[20] = 0xFF
        manifest.write_bytes(bytes(data))
        assert main(argv[:1] + ["--dataset", str(built)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot read manifest {manifest}: "
                                f"byte 20 is not UTF-8\n")


class TestManifestFileNames:
    """The file names are fixed: name lines in a manifest are ignored."""

    def test_names_outside_the_dataset_are_not_written(self, dataset, tmp_path, capsys):
        outside = tmp_path / "outside"
        outside.mkdir()
        manifest = dataset / "manifest.txt"
        manifest.write_text(manifest.read_text() + f"btree_file={outside / 'escaped.btx'}\n"
                            "header_file=../outside.hdr\n")
        assert main(["build", "--dataset", str(dataset)]) == 0
        assert list(outside.iterdir()) == []
        assert not (tmp_path / "outside.hdr").exists()
        capsys.readouterr()
        for via in ("array", "table"):
            assert main(["query", "--dataset", str(dataset), "--at", "bern,mon",
                         "--via", via]) == 0
            assert capsys.readouterr().out == "qty=12\nnote=late\n"

    def test_dim_files_line_drops_no_column(self, built, capsys):
        manifest = built / "manifest.txt"
        manifest.write_text(manifest.read_text() + "dim_files=dim_1.dim\n")
        assert main(["export", "--dataset", str(built)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "store,day,qty,note"
        assert "bern,mon,12,late" in lines


def readme_walkthrough() -> tuple[str, str, list[list[str]]]:
    """(CSV file name, CSV text, each command's arguments) of README's "CLI walkthrough"."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI walkthrough\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    name, csv_text = re.search(r"^cat > (\S+) <<'EOF'\n(.*?^)EOF$", block, re.M | re.S).groups()
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("cubestore ")]
    return name, csv_text, commands


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    name, csv_text, commands = readme_walkthrough()
    assert [argv[0] for argv in commands] == ["ingest", "build", "query", "stats", "bench",
                                              "cost", "export"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(csv_text, encoding="utf-8")
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "back.csv").read_text().splitlines()[0] == "store,day,qty,note"


def assert_unwritable(tmp_path, capsys, run):
    """run(directory) writes into a directory that does not exist: one error line, exit 2.

    The command fails before it prints anything.
    """
    missing = tmp_path / "missing"
    assert run(missing) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(missing) in err


class TestCost:
    def test_custom_grid(self, capsys):
        assert main(["cost", "--p", "2", "--r", "1000", "--k", "5", "--t", "10"]) == 0
        out = capsys.readouterr().out
        assert "p = 2" in out
        assert "B-tree index, p = 2, t = 10" in out

    def test_default_grid(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "p = 1500" in out
        assert "1.79" in out
        assert "4.37" in out

    def test_csv_output(self, tmp_path, capsys):
        assert main(["cost", "--p", "3", "--r", "100", "--k", "4",
                     "--csv", str(tmp_path / "cost")]) == 0
        assert (tmp_path / "cost_p3.csv").exists()
        assert (tmp_path / "cost_btree_p3_t89.csv").exists()

    def test_unwritable_csv_prefix(self, tmp_path, capsys):
        assert_unwritable(tmp_path, capsys, lambda path: main(
            ["cost", "--p", "3", "--r", "100", "--k", "4", "--csv", str(path / "cost")]))


class TestBench:
    def test_run_and_csv(self, built, tmp_path, capsys):
        code = main(["bench", "--dataset", str(built), "--sizes", "20", "5",
                     "--seed", "3", "--csv", str(tmp_path / "b.csv")])
        out = capsys.readouterr().out
        assert code == 0
        assert "lookup cross-check: OK" in out
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_unwritable_csv(self, built, tmp_path, capsys):
        assert_unwritable(tmp_path, capsys, lambda path: main(
            ["bench", "--dataset", str(built), "--sizes", "5", "--csv", str(path / "b.csv")]))

    def test_deterministic_samples(self, built, capsys):
        assert main(["bench", "--dataset", str(built), "--sizes", "10",
                     "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["bench", "--dataset", str(built), "--sizes", "10",
                     "--seed", "5"]) == 0
        second = capsys.readouterr().out
        # timings vary run to run; the sampled percentages must not
        pct_line = [l for l in first.splitlines() if l.startswith("sample %")]
        assert pct_line == [l for l in second.splitlines() if l.startswith("sample %")]

    def test_needs_build(self, dataset, capsys):
        assert main(["bench", "--dataset", str(dataset), "--sizes", "5"]) == 2
        assert "error:" in capsys.readouterr().err


class TestExport:
    def test_round_trip(self, built, tmp_path, capsys):
        out_file = tmp_path / "round.csv"
        assert main(["export", "--dataset", str(built),
                     "--out", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "store,day,qty,note"
        assert len(lines) == 5
        assert "bern,mon,12,late" in lines

    def test_stdout(self, built, capsys):
        assert main(["export", "--dataset", str(built)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("store,day,qty,note")

    def test_header_and_rows_come_from_one_manifest_load(self, built, monkeypatch, capsys):
        loads = []
        load = Manifest.load.__func__
        monkeypatch.setattr(Manifest, "load", classmethod(
            lambda cls, path: loads.append(path) or load(cls, path)))
        assert main(["export", "--dataset", str(built)]) == 0
        assert loads == [built / "manifest.txt"]

    def test_unwritable_output(self, built, tmp_path, capsys):
        assert_unwritable(tmp_path, capsys, lambda path: main(
            ["export", "--dataset", str(built), "--out", str(path / "x.csv")]))

    def test_failed_export_keeps_the_old_output(self, built, tmp_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out_file = out_dir / "out.csv"
        out_file.write_bytes(b"k,v\n1,2\n")
        tbl = built / "relation.tbl"
        tbl.write_bytes(tbl.read_bytes()[:-3])
        assert main(["export", "--dataset", str(built), "--out", str(out_file)]) == 2
        assert f"{tbl}: size" in capsys.readouterr().err
        assert out_file.read_bytes() == b"k,v\n1,2\n"
        assert list(out_dir.iterdir()) == [out_file]  # no temporary file is left


class TestClosedStdout:
    """A reader that closes stdout first, as `| head -1` does, ends the CLI quietly."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", [
        ["stats"],
        ["export"],
        ["bench", "--sizes", "5", "--csv", "b.csv"],
    ], ids=["stats", "export", "bench-csv"])
    def test_exit_141_and_nothing_on_stderr(self, built, tmp_path, command, buffered):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        env = {**os.environ, "PYTHONPATH": str(Path(cubestore.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)  # every write to stdout fails with EPIPE
        try:
            run = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-m", "cubestore.cli",
                 command[0], "--dataset", str(built), *command[1:]],
                stdout=write, stderr=subprocess.PIPE, cwd=out_dir, env=env, timeout=120,
            )
        finally:
            os.close(write)
        assert (run.returncode, run.stderr) == (141, b"")
        # bench prints its report before it writes the CSV, so neither the
        # CSV nor its .b.csv.*.tmp is left
        assert list(out_dir.iterdir()) == []


class TestParser:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "ingest" in capsys.readouterr().out
