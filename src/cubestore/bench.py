"""Point-lookup benchmark harness and synthetic relation generator.

Randomness comes from SplitMix64, a named, seedable 64-bit generator
that behaves identically on every platform, so samples and synthetic
relations are reproducible from the seed alone.  Bounded draws use
rejection sampling, never a bare modulo, so they are exactly uniform.

A benchmark run samples stored rows (physical record ordinals) with
equal probability and with repetition, reads each one's coordinates from
its table row before any clock starts, then times one bulk lookup loop
per representation over the same coordinates: the table path encodes the
key, descends the B-tree and reads one block, the row's only read; the
array path linearizes, searches the cached header and reads the record.
Coordinate-to-key and coordinate-to-position work is inside the timed
region on both sides.  The quotient is table time over array time.
After timing, every sampled lookup is cross-checked untimed against a
direct read of the known record ordinal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate

from .cost_model import round2
from .errors import CapacityError, DatasetError, EmptyRelationError, ParameterError
from .files import csv_writer
from .relation_model import KIND_TEXT, MeasureColumn, RelationSchema

_MASK64 = (1 << 64) - 1
_SPAN64 = 1 << 64

MAX_SAMPLE_SIZE = 1 << 27  # keep one sample list comfortably in memory

DEFAULT_SIZES = (100000, 50000, 10000, 5000, 1000, 500, 100)


class SplitMix64:
    """SplitMix64 generator: 64-bit state, 64-bit output, period 2**64."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (no modulo bias)."""
        if n < 1:
            raise ParameterError(f"bound must be positive, got {n}")
        limit = _SPAN64 - (_SPAN64 % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


def draw_sample(r: int, n_samples: int, seed: int) -> list[int]:
    """n_samples record ordinals in 1..r, uniform, with repetition."""
    if n_samples < 0:
        raise ParameterError(f"sample size cannot be negative, got {n_samples}")
    if n_samples > MAX_SAMPLE_SIZE:
        raise CapacityError(f"sample size {n_samples} exceeds {MAX_SAMPLE_SIZE}")
    if n_samples == 0:
        return []
    if r < 1:
        raise EmptyRelationError("cannot sample from an empty relation")
    rng = SplitMix64(seed)
    below = rng.below
    return [below(r) + 1 for _ in range(n_samples)]


def _floyd_sample(rng: SplitMix64, total: int, count: int) -> list[int]:
    """count distinct integers in 1..total, uniformly, sorted ascending."""
    chosen = set()
    for upper in range(total - count + 1, total + 1):
        pick = rng.below(upper) + 1
        chosen.add(upper if pick in chosen else pick)
    return sorted(chosen)


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class SyntheticRelation:
    """A generated relation: its schema, sorted nonempty cells and dimension values."""

    schema: RelationSchema
    cells: tuple[tuple[int, bytes], ...]  # (logical position, record), ascending
    dimension_values: tuple[tuple[str, ...], ...]

    @property
    def r(self) -> int:
        return len(self.cells)


def generate_synthetic(k: int, cards, rho_target: float, measure_widths,
                       seed: int) -> SyntheticRelation:
    """Generate a relation with floor(rho_target * cells) distinct random keys.

    Measures are text columns of the given widths filled with random
    lowercase letters; with no measure widths the relation is key-only
    and its record is the single byte 0x01.  Dimension value j of
    dimension i is the zero-padded decimal of j, so value order equals
    index order.
    """
    cards = tuple(cards)
    if len(cards) != k:
        raise ParameterError(f"expected {k} cardinalities, got {len(cards)}")
    if not 0 < rho_target <= 1:
        raise ParameterError(f"target density must be in (0, 1], got {rho_target}")
    measure_widths = tuple(measure_widths)
    schema = RelationSchema(cards, tuple(
        MeasureColumn(f"m{i + 1}", KIND_TEXT, w) for i, w in enumerate(measure_widths)
    ))
    codec = schema.codec
    total = schema.cell_total
    count = int(rho_target * total)
    rng = SplitMix64(seed)
    positions = _floyd_sample(rng, total, count) if count else []
    cells = []
    for position in positions:
        measures = ["".join(_LETTERS[rng.below(26)] for _ in range(w)) for w in measure_widths]
        cells.append((position, codec.pack(measures)))
    values = tuple(
        tuple(f"{j:0{len(str(c))}d}" for j in range(1, c + 1)) for c in cards
    )
    return SyntheticRelation(schema, tuple(cells), values)


@dataclass(frozen=True)
class BenchResult:
    """Timing of one sample size over both representations."""

    sample_size: int
    sample_pct: float  # 100 * size / r, rounded to 2 decimals
    table_ns: int
    array_ns: int
    quotient: float
    correct: bool


def sample_percentage(size: int, r: int) -> float:
    """100 * size / r rounded to 2 decimals, halves away from zero."""
    return round2(100 * size / r)


def run_benchmark(db, sizes=DEFAULT_SIZES, seed: int = 1,
                  warmup: bool = False) -> list[BenchResult]:
    """Time both representations of a built dataset over shared samples.

    db must expose .table (TableStore with index) and .array (ArrayStore)
    over the same relation.  The samples are consecutive slices of one
    draw_sample(r, sum(sizes), seed) stream, so identical (db, sizes,
    seed) arguments give identical samples.
    """
    table = db.table
    array = db.array
    if table is None or array is None:
        raise DatasetError("benchmark needs both representations built")
    r = array.record_count
    if r < 1:
        raise EmptyRelationError("cannot benchmark an empty relation")
    if table.row_count != r:
        raise ParameterError(
            f"representations disagree: table has {table.row_count} rows, array {r}"
        )
    read_row = table.read_row
    sizes = tuple(sizes)
    for size in sizes:
        if size < 1:
            raise ParameterError(f"sample sizes must be positive, got {size}")
    stream = draw_sample(r, sum(sizes), seed)

    results = []
    for size, end in zip(sizes, accumulate(sizes)):
        ordinals = stream[end - size : end]
        coords = [read_row(p)[0] for p in ordinals]

        lookup = table.btree_lookup
        measures = table.read_measures
        get_cell = array.get_cell

        if warmup:
            for c in coords:
                measures(lookup(c))
                get_cell(c)

        table_out = []
        append = table_out.append
        t0 = time.perf_counter_ns()
        for c in coords:
            append(measures(lookup(c)))
        table_ns = time.perf_counter_ns() - t0

        array_out = []
        append = array_out.append
        t0 = time.perf_counter_ns()
        for c in coords:
            append(get_cell(c))
        array_ns = time.perf_counter_ns() - t0

        read_record = array.read_record
        correct = all(
            t == a == read_record(p)
            for t, a, p in zip(table_out, array_out, ordinals)
        )
        results.append(BenchResult(
            sample_size=size,
            sample_pct=sample_percentage(size, r),
            table_ns=table_ns,
            array_ns=array_ns,
            quotient=table_ns / max(array_ns, 1),
            correct=correct,
        ))
    return results


def report(results, warmup: bool = False) -> str:
    """Render benchmark results: size-indexed and percentage-indexed views."""
    rows = sorted(results, key=lambda b: -b.sample_size)
    label_width = 13
    col = max(10, *(len(f"{b.sample_size:,}") for b in rows)) if rows else 10
    all_ok = all(b.correct for b in rows)
    lines = [
        "point-lookup benchmark: table with B-tree index vs compressed array",
        f"warm-up pass: {'enabled' if warmup else 'disabled'}",
        "lookup cross-check: " + ("OK (every sampled lookup agreed)"
                                  if all_ok else "FAILED (representations disagree)"),
        "",
        "quotient by sample size (table time / array time):",
        "sample size".ljust(label_width)
        + "".join(f"{b.sample_size:,}".rjust(col) for b in rows),
        "quotient".ljust(label_width)
        + "".join(f"{b.quotient:.2f}".rjust(col) for b in rows),
        "",
        "quotient by sample percentage of stored rows:",
        "sample %".ljust(label_width)
        + "".join(f"{b.sample_pct:.2f}".rjust(col) for b in rows),
        "quotient".ljust(label_width)
        + "".join(f"{b.quotient:.2f}".rjust(col) for b in rows),
    ]
    return "\n".join(lines)


def write_bench_csv(results, out) -> None:
    """Write the results as CSV to an open text file."""
    writer = csv_writer(out)
    writer.writerow(["sample_size", "sample_pct", "table_ns", "array_ns", "quotient"])
    for b in results:
        writer.writerow([b.sample_size, f"{b.sample_pct:.2f}",
                         b.table_ns, b.array_ns, f"{b.quotient:.6f}"])
