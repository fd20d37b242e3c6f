"""The public API contract: the exported names, and the names perfbench imports."""

import ast
import importlib
import re
from pathlib import Path

import cubestore
from cubestore.dataset import MANIFEST_NAME, Manifest, ingest_rows
from cubestore.table_store import TableStore, build_index_from_table, write_table

ROOT = Path(__file__).resolve().parent.parent


def documented_names() -> list[str]:
    """The names in the bullet list under README's "Public API" heading."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("### Public API") + 1
    names = []
    for line in lines[start:]:
        if line.startswith("#"):
            break
        if line.startswith("- "):
            names += re.findall(r"`(\w+)`", line)
    return names


def perfbench_imports() -> list[tuple[str, str, str | None]]:
    """(file, module, name) for every cubestore import in perfbench/*.py."""
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cubestore":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "cubestore"]
    return found


def test_all_is_the_documented_list():
    documented = documented_names()
    assert len(documented) == len(set(documented))
    assert sorted(cubestore.__all__) == sorted(documented)
    assert len(cubestore.__all__) <= 40


def test_exported_names_resolve():
    assert [name for name in cubestore.__all__ if not hasattr(cubestore, name)] == []


def test_perfbench_imports_resolve():
    imports = perfbench_imports()
    assert imports  # the parse found the harness's imports
    missing = []
    for file, module, name in imports:
        target = importlib.import_module(module)
        if name is not None and not hasattr(target, name):
            missing.append(f"{file}: from {module} import {name}")
    assert missing == []


def test_perfbench_calls_keep_working(tmp_path):
    """The calls perfbench makes into the table store, pinned on every Python version.

    Its traced run builds an index with build_index_from_table(tbl, btx,
    k, record width, page size), all positional and k an int, and its
    calibrate_p times comparisons of TableStore.key_bytes-byte keys: the
    table's key, four bytes per field, whatever width the index chose.
    perfbench/selftest.py covers the same calls but runs on fewer versions.
    """
    cards = (300, 5, 2)
    tbl, btx = tmp_path / "t.tbl", tmp_path / "t.btx"
    with open(tbl, "wb") as f:
        write_table([((1, 1, 1), b"ab"), ((299, 5, 2), b"cd")], f, cards, 2)
    meta = build_index_from_table(tbl, btx, 3, 2, 256)
    assert (meta.page_size, meta.entry_count, meta.key_bytes) == (256, 2, 6)
    with TableStore.open(tbl, cards, 2, btx) as store:
        assert store.key_bytes == 4 * 3
        assert store.btree_lookup((299, 5, 2)) == 2


def test_perfbench_reads_file_names_off_a_manifest(tmp_path):
    """perfbench's harness and lookups take these three names from a loaded manifest."""
    ingest_rows(["k", "v"], [("a", "1")], ["k"], tmp_path)
    manifest = Manifest.load(tmp_path / MANIFEST_NAME)
    assert (manifest.table_file, manifest.btree_file, manifest.header_file) == (
        "relation.tbl", "relation.btx", "relation.hdr")
