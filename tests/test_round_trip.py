"""Ingest, build, query, export, ingest again: the same relation, or a named error.

Each drawn relation is ingested twice, from rows by ingest_rows and from
a CSV file that files.csv_writer wrote by ingest_csv.  Both must write
the same files or raise the same named error.  A query on each path
answers every row, with --at written by the same writer.  export is
ingested and exported again: the second export equals the first byte
for byte, and each exported value is its input or the input's canonical
number form.  The column kinds are checked against oracle's character
scan of the number grammar.
"""

import csv
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from cubestore import CubeStoreError, ingest_csv, ingest_rows
from cubestore.cli import main
from cubestore.files import csv_writer
from oracle import number_kind_by_scan

# Quotes, commas, line ends, a backslash, Unicode line breaks and a BOM,
# ASCII and Arabic-Indic digits, number marks, an underscore and a space.
ALPHABET = ['"', ",", "\r", "\n", "\\", "\x85", "\u2028", "\ufeff", "0", "1", "7",
            "\u0661", "\u0667", "_", " ", ".", "e", "-", "+", "x"]
TOKENS = ["nan", "inf", "-inf", "1e400", "1_000", " 7 ", "12", "-3", "0.5", "\u0661\u0662",
          str(2**63), "x\r", ""]
VALUES = st.one_of(st.sampled_from(TOKENS), st.text(st.sampled_from(ALPHABET), max_size=5))
KEYS = ("k\r1", "k,2")
MEASURES = ("m\n1", 'm"2')


@st.composite
def relations(draw):
    """(header, rows, keys): 1 or 2 keys, 0 to 2 measures, 1 to 4 rows, keys may repeat."""
    keys = list(KEYS[: draw(st.integers(1, 2))])
    measures = list(MEASURES[: draw(st.integers(0, 2))])
    width = len(keys) + len(measures)
    rows = draw(st.lists(st.tuples(*[VALUES] * width), min_size=1, max_size=4))
    return keys + measures, rows, keys


def _record(values) -> str:
    """values as one CSV record, without its line end, as csv_writer writes it."""
    out = io.StringIO(newline="")
    csv_writer(out).writerow(values)
    return out.getvalue()[:-1]


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _files(root: Path, names) -> dict:
    return {name: (root / name).read_bytes() for name in names}


def _canonical(kind: str, text: str) -> str:
    if kind == "int64":
        return str(int(text))
    if kind == "float64":
        return repr(float(text))
    return text


def _ingested(ingest, *args):
    """The manifest ingest returns, or the class of the named error it raises."""
    try:
        return ingest(*args, schema_name="relation")
    except CubeStoreError as exc:
        return type(exc)


def _round_trip(header, rows, keys, tmp: Path):
    manifest = _ingested(ingest_rows, header, rows, keys, tmp / "rows")
    src = tmp / "in.csv"
    with open(src, "w", newline="", encoding="utf-8") as f:
        writer = csv_writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    from_csv = _ingested(ingest_csv, src, keys, tmp / "csv")
    event(manifest.__name__ if isinstance(manifest, type) else "ingested")
    if isinstance(manifest, type):
        assert from_csv is manifest
        return

    names = [f"dim_{i}.dim" for i in range(1, len(keys) + 1)] + ["relation.tbl"]
    assert _files(tmp / "csv", names) == _files(tmp / "rows", names)
    assert from_csv.measure_columns == manifest.measure_columns
    columns = list(zip(*rows))[len(keys):]
    kinds = [col.kind for col in manifest.measure_columns]
    for kind, values in zip(kinds, columns):
        scanned = {number_kind_by_scan(v) for v in values}
        assert kind == (scanned.pop() if len(scanned) == 1 and None not in scanned
                        else "float64" if None not in scanned else "text"), values

    assert _cli("build", "--dataset", str(tmp / "csv"))[0] == 0
    for row in rows:
        expected = "".join(f"{name}={_canonical(kind, value)}\n" for name, kind, value
                           in zip(header[len(keys):], kinds, row[len(keys):]))
        for via in ("array", "table"):
            code, out, err = _cli("query", "--dataset", str(tmp / "csv"),  # "=": "-inf" too
                                  "--at=" + _record(row[: len(keys)]), "--via", via)
            assert (code, out, err) == (0, expected or "present\n", ""), via

    first, second = tmp / "first.csv", tmp / "second.csv"
    assert _cli("export", "--dataset", str(tmp / "csv"), "--out", str(first))[0] == 0
    code, _, err = _cli("ingest", "--csv", str(first), "--keys", _record(keys),
                        "--out", str(tmp / "again"), "--name", "relation")
    assert code == 0, err
    assert _files(tmp / "again", names) == _files(tmp / "csv", names)
    assert _cli("export", "--dataset", str(tmp / "again"), "--out", str(second))[0] == 0
    assert second.read_bytes() == first.read_bytes()

    with open(first, newline="", encoding="utf-8") as f:
        exported = list(csv.reader(f))
    assert exported[0] == header
    expected_rows = [tuple(row[: len(keys)]) + tuple(
        _canonical(kind, value) for kind, value in zip(kinds, row[len(keys):])) for row in rows]
    assert sorted(map(tuple, exported[1:])) == sorted(expected_rows)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations())
@example((["k\r1", "m\n1"], [("a", "x\r"), ("b\r", "+0\r")], ["k\r1"]))
@example((["k\r1", "m\n1"], [("a", "1_000"), ("b", "2")], ["k\r1"]))
@example((["k\r1", "m\n1", 'm"2'], [("a", "nan", "1e400"), ("b", "-inf", "1")], ["k\r1"]))
@example((["k\r1", "m\n1"], [("a", str(2**63)), ("b", "٣")], ["k\r1"]))
def test_ingest_export_ingest_is_the_same_relation(relation):
    header, rows, keys = relation
    with tempfile.TemporaryDirectory() as tmp:
        _round_trip(header, rows, keys, Path(tmp))


def test_export_quotes_a_carriage_return(tmp_path):
    src = tmp_path / "in.csv"
    src.write_bytes(b'k,v,f\r\n"a\rb","x\r",1\r\nc,y,2.50\r\n')
    assert _cli("ingest", "--csv", str(src), "--keys", "k", "--out", str(tmp_path / "ds"))[0] == 0
    assert _cli("export", "--dataset", str(tmp_path / "ds"),
                "--out", str(tmp_path / "out.csv"))[0] == 0
    assert (tmp_path / "out.csv").read_bytes() == b'k,v,f\n"a\rb","x\r",1.0\nc,y,2.5\n'
