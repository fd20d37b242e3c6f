"""Shared helpers for building in-memory relations and on-disk stores."""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for `import oracle`

from cubestore import (
    ArrayStore,
    SplitMix64,
    TableStore,
    build_table,
    cell_count,
    compress_stream,
    delinearize,
)


def make_records(positions, record_width: int = 3):
    """Deterministic distinct records: position rendered into fixed bytes."""
    out = []
    for position in positions:
        raw = position.to_bytes(8, "little")[:record_width]
        out.append((position, raw.ljust(record_width, b"\xaa")))
    return out


def random_positions(total: int, count: int, seed: int = 7) -> list[int]:
    """count distinct positions in 1..total, reproducibly."""
    rng = SplitMix64(seed)
    chosen = set()
    while len(chosen) < count:
        chosen.add(rng.below(total) + 1)
    return sorted(chosen)


def compress_to_memory(cells, total_cells: int, record_width: int):
    """Run the streaming compressor; returns (header, array bytes)."""
    buf = io.BytesIO()
    header = compress_stream(iter(cells), total_cells, record_width, buf)
    return header, buf.getvalue()


def build_array_files(tmp_path: Path, cells, cards, record_width: int,
                      name: str = "rel") -> ArrayStore:
    arr = tmp_path / f"{name}.arr"
    hdr = tmp_path / f"{name}.hdr"
    with open(arr, "wb") as f:
        header = compress_stream(iter(cells), cell_count(cards), record_width, f)
    header.save(hdr)
    return ArrayStore.open(arr, hdr, cards, record_width)


def build_table_files(tmp_path: Path, cells, cards, record_width: int,
                      name: str = "rel", page_size: int | None = None) -> TableStore:
    tbl = tmp_path / f"{name}.tbl"
    btx = tmp_path / f"{name}.btx"
    coords = [(delinearize(p, cards), record) for p, record in cells]
    build_table(iter(coords), tbl, btx, cards, record_width, page_size)
    return TableStore.open(tbl, cards, record_width, btx)


@pytest.fixture
def tiny_cells():
    """The worked {2, 3, 7} example in an 8-cell box (cards 4, 2)."""
    return make_records([2, 3, 7])
