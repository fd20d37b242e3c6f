"""The storage module: it alone touches dataset files, and every failure is a named error."""

import ast
import builtins
import errno
import os
import shutil
from itertools import product
from pathlib import Path

import pytest

from conftest import random_positions
from cubestore import (
    CubeStoreError,
    DatasetError,
    SplitMix64,
    build_dataset,
    delinearize,
    ingest_rows,
    open_dataset,
)
from cubestore import files
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

FILE_METHODS = {"read_bytes", "write_bytes", "read_text", "write_text", "unlink"}
OS_CALLS = {"replace", "remove", "unlink", "rename"}
# (module, function, call) of the files that are not dataset files
ALLOWED = {("dataset.py", "ingest_csv", "open")}  # the CSV input, read as it streams


def file_calls(source: str):
    """(function, call) of every file-touching call in module source, by enclosing function."""
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
"""
    assert file_calls(source) == [
        (None, "open"), ("f", ".read_bytes"), ("f", ".write_bytes"), ("f", ".read_text"),
        ("f", ".write_text"), ("g", ".unlink"), ("g", "os.replace"), ("g", "os.remove"),
    ]


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
                assert f"cannot write {faults.failed}: " in str(exc), (n, str(exc))
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
