"""The public API contract: the exported names, and the names perfbench imports."""

import ast
import importlib
import re
from pathlib import Path

import cubestore

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
