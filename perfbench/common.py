"""Paths and the percentile helper shared by the benchmark scripts.

The benchmark runs from the root of a source checkout and imports the
program from `src/` in that checkout, never from an installed copy, so
that it always measures the code it sits beside.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

PAGE_SIZE = 4096  # passed explicitly to every build


class MissingProgram(Exception):
    """The checkout does not hold the program's source."""


def use_program_source() -> None:
    """Put the checkout's `src/` first on the import path and check it is there."""
    package = SRC / "cubestore" / "__init__.py"
    if not package.is_file():
        raise MissingProgram(f"no program source at {package}; run from a source checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import cubestore

    if Path(cubestore.__file__).resolve() != package.resolve():
        raise MissingProgram(f"imported cubestore from {cubestore.__file__}, not {package}")


def percentile(sorted_values, pct: int):
    """Nearest-rank percentile (pct in 1..100) of a sorted, non-empty sequence."""
    rank = -(-pct * len(sorted_values) // 100)
    return sorted_values[rank - 1]

