"""The storage module: it alone touches dataset files, and every failure is a named error."""

import ast
import builtins
import errno
import io
import os
import re
import shutil
from itertools import product
from pathlib import Path

import pytest

from conftest import random_positions
from cubestore import (
    CubeStoreError,
    DatasetError,
    SplitMix64,
    StorageError,
    build_dataset,
    delinearize,
    ingest_rows,
    open_dataset,
)
from cubestore import files, table_store
from cubestore.dataset import export_rows

SRC = Path(__file__).resolve().parent.parent / "src" / "cubestore"
CARDS = (8, 6, 5)
ROWS = 116
SEED = 2011
PAGE_SIZE = 256
KINDS = ("dim_1.dim", "dim_2.dim", "dim_3.dim", "manifest.txt",
         "relation.tbl", "relation.btx", "relation.arr", "relation.hdr")
COPIES = 20


def ingest(out, rows: int = ROWS):
    """A k = 3 relation of `rows` seeded cells in the 8 x 6 x 5 box, int and text measures."""
    cells = [delinearize(p, CARDS) for p in random_positions(240, rows, seed=SEED)]
    data = [(f"a{a}", f"b{b}", f"c{c}", str(a * 100 - b * c), f"t{a + b + c}")
            for a, b, c in cells]
    return ingest_rows(["a", "b", "c", "qty", "note"], data, ["a", "b", "c"], out)


# --- the one-module rule ---------------------------------------------------

FILE_METHODS = {"read_bytes", "write_bytes", "read_text", "write_text", "unlink",
                "stat", "exists"}
OS_CALLS = {"replace", "remove", "unlink", "rename"}
# (module, function, call) of the files that are not dataset files, and
# of the reads every lookup makes, which stay inline: the table's block
# read and its key probe, bound at open and unbound at close.  The third,
# ArrayStore's compiled get_cell, is source in a string, which ast never sees.
ALLOWED = {
    ("dataset.py", "ingest_csv", "open"),  # the CSV input, read as it streams
    ("table_store.py", "_search_block", "os.pread"),
    ("table_store.py", "__init__", "os.pread"),
    ("table_store.py", "close", "os.pread"),
}


def file_calls(source: str):
    """(function, call) of every file-touching call, and os.pread reference, in module source.

    Each is listed under its enclosing function.
    """
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call):
                f = child.func
                if isinstance(f, ast.Name) and f.id == "open":
                    found.append((function, "open"))
                elif isinstance(f, ast.Attribute) and f.attr in FILE_METHODS:
                    found.append((function, f".{f.attr}"))
                elif (isinstance(f, ast.Attribute) and f.attr in OS_CALLS
                      and isinstance(f.value, ast.Name) and f.value.id == "os"):
                    found.append((function, f"os.{f.attr}"))
            elif (isinstance(child, ast.Attribute) and child.attr == "pread"
                  and isinstance(child.value, ast.Name) and child.value.id == "os"):
                found.append((function, "os.pread"))  # a call, or passed on as partial's
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_only_the_storage_module_touches_files():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "files.py")
    assert len(modules) >= 9
    calls = {(p.name, function, call) for p in modules
             for function, call in file_calls(p.read_text(encoding="utf-8"))}
    assert calls == ALLOWED


def test_guard_sees_each_kind_of_call():
    source = """
open(a)
def f():
    p.read_bytes(); p.write_bytes(b""); p.read_text(); p.write_text("")
    class C:
        def g(self):
            p.unlink(); os.replace(a, b); os.remove(a)
def h():
    p.stat(); p.exists(); os.pread(fd, 1, 0); read = partial(os.pread, fd, 4)
"""
    assert file_calls(source) == [
        (None, "open"), ("f", ".read_bytes"), ("f", ".write_bytes"), ("f", ".read_text"),
        ("f", ".write_text"), ("g", ".unlink"), ("g", "os.replace"), ("g", "os.remove"),
        ("h", ".stat"), ("h", ".exists"), ("h", "os.pread"), ("h", "os.pread"),
    ]


def test_every_csv_leaves_through_one_writer():
    writers = [(p.name, node.lineno) for p in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "writer"
               and isinstance(node.value, ast.Name) and node.value.id == "csv"]
    assert [name for name, _ in writers] == ["files.py"]


def test_csv_writer_quotes_line_breaks_and_ends_rows_in_a_line_feed():
    out = io.StringIO(newline="")
    writer = files.csv_writer(out)
    writer.writerow(["a,b", 'q"', "x\r", "y\n", "\r\n", "", "\x85\u2028\ufeff", 7])
    writer.writerows([[""], ["plain", "1.5"]])
    assert out.getvalue() == (
        '"a,b","q""","x\r","y\n","\r\n",,\x85\u2028\ufeff,7\n""\nplain,1.5\n')


def test_array_store_imports_nothing_from_table_store():
    tree = ast.parse((SRC / "array_store.py").read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "table_store" not in modules


# --- seeded damage over every file kind -----------------------------------

def damaged_copies(data: bytes, rng: SplitMix64):
    """COPIES damaged versions of data: a third truncations, the rest single bit flips."""
    for i in range(COPIES):
        if i % 3 == 0:
            cut = rng.below(len(data))
            yield f"cut to {cut} bytes", data[:cut]
        else:
            bit = rng.below(8 * len(data))
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            yield f"bit {bit} flipped", bytes(flipped)


def escapes(root) -> list:
    """Run open, the three lookups at every cell, the directories and export on root.

    Returns (operation, exception) for each exception that escapes; a
    CubeStoreError is the expected outcome of damage and is not listed.
    """
    escaped = []

    def attempt(name, call):
        try:
            return call()
        except CubeStoreError:
            return None
        except Exception as exc:  # noqa: BLE001 - the test reports every other kind
            escaped.append((name, repr(exc)))
            return None

    box = list(product(*(range(1, c + 1) for c in CARDS)))
    for need in (("table",), ("array",)):
        db = attempt(f"open_dataset {need}", lambda: open_dataset(root, need=need))
        if db is None:
            continue
        with db:
            unpack = db.codec.unpack
            for cell in box:
                if db.table:
                    for lookup in (db.table.btree_lookup, db.table.binary_search_lookup):
                        recno = attempt(lookup.__name__, lambda: lookup(cell))
                        if recno is not None:
                            attempt("read_measures",
                                    lambda: unpack(db.table.read_measures(recno)))
                else:
                    record = attempt("get_cell", lambda: db.array.get_cell(cell))
                    if record is not None:
                        attempt("unpack", lambda: unpack(record))
            attempt("dimension_directories", db.dimension_directories)
    attempt("export_rows", lambda: list(export_rows(root)))
    return escaped


@pytest.fixture
def no_fd_leak():
    """Fail a test that leaves more descriptors open than it found, where /proc lists them."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = len(os.listdir("/proc/self/fd"))
    yield
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine") / "ds"
    manifest = ingest(root)
    assert manifest.cards == CARDS and manifest.r == ROWS
    build_dataset(root, "both", page_size=PAGE_SIZE)
    return root


@pytest.mark.usefixtures("no_fd_leak")
def test_damage_raises_only_cubestore_errors(pristine, tmp_path):
    rng = SplitMix64(SEED)
    work = tmp_path / "ds"
    shutil.copytree(pristine, work)
    manifest = (pristine / "manifest.txt").read_bytes()
    forced = bytearray(manifest)
    forced[len(forced) // 2] = 0xFF  # never valid in UTF-8
    cases = [("manifest.txt", "byte set to 0xff", bytes(forced))]
    for kind in KINDS:
        cases += [(kind, how, data)
                  for how, data in damaged_copies((pristine / kind).read_bytes(), rng)]
    assert len(cases) == 1 + COPIES * len(KINDS)
    escaped = []
    for kind, how, data in cases:
        (work / kind).write_bytes(data)
        escaped += [(kind, how, *escape) for escape in escapes(work)]
        (work / kind).write_bytes((pristine / kind).read_bytes())
    assert escaped == []
    assert escapes(work) == []  # and the restored copy answers


def test_non_utf8_manifest_is_a_dataset_error_naming_the_byte(pristine, tmp_path):
    work = tmp_path / "ds"
    shutil.copytree(pristine, work)
    path = work / "manifest.txt"
    data = bytearray(path.read_bytes())
    data[7] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(DatasetError, match=f"cannot read manifest {path}: byte 7 is not UTF-8"):
        open_dataset(work)


# --- short reads and the one descriptor ------------------------------------

COLD_READS = ("iter_rows", "iterate_nonempty", "build_index", "read_row", "read_measures",
              "read_record")


@pytest.mark.parametrize("read", COLD_READS)
@pytest.mark.usefixtures("no_fd_leak")
def test_short_read_names_the_file_and_offset(pristine, tmp_path, monkeypatch, read):
    """A file cut after open makes each read that is not a lookup raise, naming where."""
    work = tmp_path / "ds"
    shutil.copytree(pristine, work)
    tbl, arr = work / "relation.tbl", work / "relation.arr"
    # the table sized before the cut, as if it shrank while build read it
    monkeypatch.setattr(table_store, "_table_rows", lambda f, row: ROWS)
    with open_dataset(work) as db:
        table, array = db.table, db.array
        row, width, key = table.row_bytes, array.record_width, table.key_bytes
        assert table._kept[0] is None  # no lookup, so read_measures must read
        # the file, the read the cut cuts short (size, offset), and the call
        path, size, offset, call = {
            "iter_rows": (tbl, ROWS * row, 0, lambda: list(table.iter_rows())),
            "iterate_nonempty": (arr, ROWS * width, 0,
                                 lambda: list(array.iterate_nonempty())),
            "build_index": (tbl, key, 5 * table.leaf_rows * row,
                            lambda: table_store.build_index_from_table(
                                tbl, tmp_path / "again.btx", len(CARDS),
                                table.record_width, PAGE_SIZE)),
            "read_row": (tbl, row, 99 * row, lambda: table.read_row(100)),
            "read_measures": (tbl, table.record_width, 99 * row + key,
                              lambda: table.read_measures(100)),
            "read_record": (arr, width, 99 * width, lambda: array.read_record(100)),
        }[read]
        os.truncate(path, offset + size - 1)
        with pytest.raises(StorageError, match=re.escape(
                f"{path}: short read of {size} bytes at offset {offset}")):
            call()


@pytest.mark.parametrize("which", ["table", "array"])
def test_a_table_read_error_in_build_names_the_table(pristine, tmp_path, monkeypatch, which):
    """Build reads the table inside the block that writes .btx or .arr; the error names .tbl.

    The table spans several 256-byte-page blocks, so the index build reads
    first keys: one block would need none.
    """
    work = tmp_path / "ds"
    shutil.copytree(pristine, work)
    tbl = work / "relation.tbl"
    inode = tbl.stat().st_ino
    pread = os.pread

    def failing_pread(fd, size, offset):
        if os.fstat(fd).st_ino == inode:
            raise OSError(errno.EIO, "Input/output error")
        return pread(fd, size, offset)

    row = 3 * 4 + 8 + 3  # three key fields, an int64 and a 3-byte text
    assert tbl.stat().st_size == ROWS * row and ROWS > PAGE_SIZE // row
    size = {"table": 3 * 4, "array": ROWS * row}[which]  # the first key, or every row
    monkeypatch.setattr(os, "pread", failing_pread)
    with pytest.raises(StorageError) as info:
        build_dataset(work, which, page_size=PAGE_SIZE)
    assert str(info.value) == (
        f"cannot read {size} bytes at offset 0 of {tbl}: [Errno 5] Input/output error")


def test_open_table_store_holds_the_table_file_only(pristine, tmp_path, monkeypatch):
    """Open reads the index whole, so its lookups outlast the file, and close closes one."""
    work = tmp_path / "ds"
    shutil.copytree(pristine, work)
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(builtins.open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(files, "open", recording_open, raising=False)
    box = list(product(*(range(1, c + 1) for c in CARDS)))

    def answers(table):
        found = [(table.btree_lookup(c), table.binary_search_lookup(c)) for c in box]
        return found, [table.read_measures(n) for n, _ in found if n is not None]

    with open_dataset(work, need=("table",)) as db:
        assert [f.name for f in opened] == [str(work / "relation.tbl")]
        expected = answers(db.table)
        assert len(expected[1]) == ROWS
        btx = work / "relation.btx"
        btx.write_bytes(bytes(btx.stat().st_size))
        assert answers(db.table) == expected
    assert [f.closed for f in opened] == [True]


@pytest.mark.parametrize("read, error", [(files.read_binary, StorageError),
                                         (files.read_utf8, DatasetError)])
@pytest.mark.parametrize("kind, code", [("missing", errno.ENOENT), ("directory", errno.EISDIR)])
def test_a_whole_file_read_names_the_file_and_the_error(tmp_path, read, error, kind, code):
    path = tmp_path / "x"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(error) as info:
        read(path, "thing")
    assert str(info.value).startswith(f"cannot read thing {path}: [Errno {code}] "
                                      f"{os.strerror(code)}")


def test_open_stats_no_file_and_reads_each_whole_file_once(pristine, monkeypatch):
    """The store files are opened without a stat, and the manifest, .btx and .hdr read once."""
    stats, opened = [], []
    stat, os_open = os.stat, os.open

    def counted_stat(path, *args, **kwargs):
        stats.append(path)
        return stat(path, *args, **kwargs)

    def counted_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        return os_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counted_stat)
    monkeypatch.setattr(os, "open", counted_open)
    with open_dataset(pristine):
        assert stats == []
        assert sorted(opened) == ["manifest.txt", "relation.btx", "relation.hdr"]


# the message for each store file that is missing; a store whose two files
# are both missing names the first of them
MISSING = {
    "relation.tbl": ("table", "table file {} is missing; ingest first"),
    "relation.btx": ("table", "index file {} is missing; run build"),
    "relation.arr": ("array", "array file {} is missing; run build"),
    "relation.hdr": ("array", "header file {} is missing; run build"),
}


@pytest.mark.usefixtures("no_fd_leak")
@pytest.mark.parametrize("need", [("table",), ("array",), ("table", "array")])
@pytest.mark.parametrize("removed", [("relation.tbl",), ("relation.btx",), ("relation.arr",),
                                     ("relation.hdr",), ("relation.tbl", "relation.btx"),
                                     ("relation.arr", "relation.hdr")])
def test_a_missing_store_file_is_named(pristine, tmp_path, need, removed):
    work = tmp_path / "ds"
    shutil.copytree(pristine, work)
    for name in removed:
        (work / name).unlink()
    store, message = MISSING[removed[0]]
    if store not in need:
        open_dataset(work, need).close()
        return
    with pytest.raises(DatasetError) as info:
        open_dataset(work, need)
    assert str(info.value) == message.format(work / removed[0])


@pytest.mark.usefixtures("no_fd_leak")
@pytest.mark.parametrize("spelling", ["ds", "ds/", "./ds", "ds/./", ".", "./"])
def test_a_missing_store_file_is_spelled_as_path_joins_it(pristine, tmp_path, monkeypatch,
                                                         spelling):
    # open joins the file names to the root as strings
    work = tmp_path / "ds"
    shutil.copytree(pristine, work)
    (work / "relation.btx").unlink()
    monkeypatch.chdir(work if "ds" not in spelling else tmp_path)
    with pytest.raises(DatasetError) as info:
        open_dataset(spelling)
    assert str(info.value) == f"index file {Path(spelling) / 'relation.btx'} is missing; run build"


# --- fault injection at the module's writes --------------------------------

class FailingWrites:
    """Counts the files cubestore.files creates and the writes to them; the n-th raises.

    Installed as the module's open, so reads pass through untouched.
    """

    def __init__(self, n: int):
        self.n = n
        self.calls = 0
        self.failed = None  # the path of the call that raised

    def tick(self, path):
        self.calls += 1
        if self.calls == self.n:
            self.failed = Path(path)
            raise OSError(errno.ENOSPC, "No space left on device")

    def open(self, path, mode="r", *args, **kwargs):
        if "w" not in mode:
            return builtins.open(path, mode, *args, **kwargs)
        self.tick(path)
        return Sink(builtins.open(path, mode, *args, **kwargs), self, path)


class Sink:
    def __init__(self, f, faults: FailingWrites, path):
        self._f, self._faults, self._path = f, faults, path

    def write(self, data):
        self._faults.tick(self._path)
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def fail_each_write(monkeypatch, run) -> int:
    """Run run(n) with the n-th write failing, for n = 1, 2, ... until one run completes.

    Every failing run must raise DatasetError naming the file that failed.
    Returns the number of writes the complete run made.
    """
    for n in range(1, 10_000):
        faults = FailingWrites(n)
        with monkeypatch.context() as patch:
            patch.setattr(files, "open", faults.open, raising=False)
            try:
                run(n)
            except DatasetError as exc:
                assert faults.failed is not None, n
                named = faults.failed
                if named.name.endswith(".tmp"):  # written whole under .<name>.<pid>.tmp
                    named = named.with_name(named.name[1:].rsplit(".", 2)[0])
                assert f"cannot write {named}: " in str(exc), (n, str(exc))
                continue
        assert faults.failed is None
        return faults.calls
    raise AssertionError("the run never completed")


@pytest.mark.usefixtures("no_fd_leak")
def test_every_ingest_write_failure_names_its_file(tmp_path, monkeypatch):
    writes = fail_each_write(monkeypatch, lambda n: ingest(tmp_path / f"ds{n}", rows=20))
    # each file's creation and each of its writes: three directories and
    # the manifest, written whole, and the table, one write per row
    assert writes == 2 * 3 + (1 + 20) + 2


@pytest.mark.usefixtures("no_fd_leak")
def test_every_build_write_failure_names_its_file(tmp_path, monkeypatch):
    base = tmp_path / "base"
    ingest(base, rows=20)

    def build(n):
        shutil.copytree(base, tmp_path / f"ds{n}")
        build_dataset(tmp_path / f"ds{n}", "both", page_size=PAGE_SIZE)

    writes = fail_each_write(monkeypatch, build)
    assert writes > 3 + 20  # each file's creation, and at least one write per record


@pytest.mark.usefixtures("no_fd_leak")
def test_a_failed_ingest_is_refused_not_mixed_with_the_last_one(tmp_path, monkeypatch):
    """After an ingest fails at any write, build and open refuse its directory.

    Relation A is ingested and built, and each run ingests B over a copy
    of it.  An ingest removes the manifest before its first write and
    writes it last, whole or not at all, so no failure leaves A's
    manifest and table to be built beside B's directories, or part of a
    manifest, or its temporary file.
    """
    names, keys = ["a", "b", "v"], ["a", "b"]
    base = tmp_path / "base"
    ingest_rows(names, [("x", "p", "1"), ("y", "q", "2")], keys, base)
    build_dataset(base)
    b_rows = [("y", "p", "7"), ("z", "r", "8")]

    def ingest_b(n):
        shutil.copytree(base, tmp_path / f"ds{n}")
        ingest_rows(names, b_rows, keys, tmp_path / f"ds{n}")

    writes = fail_each_write(monkeypatch, ingest_b)
    for n in range(1, writes + 1):
        missing = re.escape(f"cannot read manifest {tmp_path / f'ds{n}' / 'manifest.txt'}: ")
        with pytest.raises(DatasetError, match=missing):
            build_dataset(tmp_path / f"ds{n}")
        with pytest.raises(DatasetError, match=missing):
            open_dataset(tmp_path / f"ds{n}")
        assert not list((tmp_path / f"ds{n}").glob(".*.tmp")), n
    done = tmp_path / f"ds{writes + 1}"
    build_dataset(done)
    assert list(export_rows(done)) == b_rows
    answers = {}
    with open_dataset(done) as db:
        dirs = db.dimension_directories()
        for coords in product(*(range(1, len(d) + 1) for d in dirs)):
            record = db.array.get_cell(coords)
            recno = db.table.btree_lookup(coords)
            assert record == (None if recno is None else db.table.read_measures(recno))
            if record is not None:
                key = tuple(d.value_of(i) for d, i in zip(dirs, coords))
                answers[key] = db.codec.unpack(record)
    assert answers == {("y", "p"): (7,), ("z", "r"): (8,)}
