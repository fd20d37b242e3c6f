"""The three workloads: seeded relations, their CSV input, lookup keys and answers.

Every input derives from a seed through SplitMix64, so one seed always
gives byte-identical CSV text and the same lookup keys.  The expected
answer of each key comes from the generated relation itself, never from
either store, so the stores are checked against ground truth.

Why these three (see BENCHMARK.json for the one-line form):

- hit-dense is the criterion-7 relation of the acceptance suite (k=3,
  cards 60x70x50, rho=0.55, one text:8 measure, relation seed 99).
  Lookups are uniform over stored rows, so every lookup hits; B-tree page
  search and record reads dominate and the header is modest.
- miss-sparse has wide keys (k=5, 16^5 cells, rho=0.2).  Lookups are
  uniform over the whole box, so about 80% miss and stop before any
  record read; linearize does 4 multiplications, the header is larger
  than the array, and binary search reads the most rows.
- csv-typed is near-dense (k=2, rho=0.9) with string key values and
  three inferred measures (int64, float64, text).  Lookups take key
  values, resolve them through the dimension directories and decode the
  record, as `cubestore query` does; ingest type inference and parsing
  carry the write cost.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from cubestore.bench import SplitMix64, draw_sample, generate_synthetic
from cubestore.linearizer import delinearize

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_LOOKUP_SALT = 0x6C6F6F6B7570  # keeps the lookup stream apart from the relation's


@dataclass(frozen=True)
class Shape:
    cards: tuple[int, ...]
    rho: float


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: dict  # scale name -> Shape
    fixed_relation_seed: int | None  # None: the relation follows --seed
    by_values: bool  # lookups pass key values, resolved through the directories
    uniform_over: str  # "rows": every lookup hits; "cells": the whole box


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hit-dense",
            {"full": Shape((60, 70, 50), 0.55), "tiny": Shape((6, 7, 5), 0.55)},
            99, False, "rows",
        ),
        Workload(
            "miss-sparse",
            {"full": Shape((16,) * 5, 0.2), "tiny": Shape((4,) * 5, 0.2)},
            None, False, "cells",
        ),
        Workload(
            "csv-typed",
            {"full": Shape((400, 280), 0.9), "tiny": Shape((12, 9), 0.9)},
            None, True, "cells",
        ),
    )
}


@dataclass
class Relation:
    """One generated relation, ready to be written as CSV and looked up."""

    workload: Workload
    relation_seed: int
    header: list[str]
    rows: list[list[str]]  # CSV data rows, in the order written
    key_columns: tuple[str, ...]
    k: int
    cards: tuple[int, ...]  # cardinalities the built dataset must have
    record_width: int  # bytes per measure record the built dataset must have
    measure_kinds: tuple[str, ...]  # column kinds ingest must infer
    answers: dict  # lookup key -> expected answer; absent keys are empty cells
    stored_keys: list  # coordinates of the stored rows in logical order (text relations)
    key_values: list  # per dimension, the sorted directory values

    @property
    def r(self) -> int:
        return len(self.rows)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(self.header)
            writer.writerows(self.rows)

    def values_of(self, coords) -> tuple[str, ...]:
        """Key values of directory coordinates."""
        return tuple(vals[i - 1] for vals, i in zip(self.key_values, coords))


def relation_seed(workload: Workload, seed: int) -> int:
    return workload.fixed_relation_seed if workload.fixed_relation_seed is not None else seed


def lookup_seed(seed: int) -> int:
    return SplitMix64(seed ^ _LOOKUP_SALT).next_u64()


def make_relation(workload: Workload, seed: int, scale: str = "full") -> Relation:
    shape = workload.shapes[scale]
    rseed = relation_seed(workload, seed)
    if workload.by_values:
        return _typed_relation(workload, shape, rseed)
    return _text_relation(workload, shape, rseed)


def _text_relation(workload: Workload, shape: Shape, rseed: int) -> Relation:
    """Zero-padded decimal key values and one text:8 measure of random letters."""
    cards = shape.cards
    k = len(cards)
    synth = generate_synthetic(k, cards, shape.rho, (8,), rseed)
    names = [f"d{i + 1}" for i in range(k)]
    rows = []
    answers = {}
    stored = []
    for position, record in synth.cells:
        coords = delinearize(position, cards)
        rows.append([synth.dimension_values[d][i - 1] for d, i in enumerate(coords)]
                    + [record.decode("ascii")])
        answers[coords] = record
        stored.append(coords)
    return Relation(
        workload=workload, relation_seed=rseed, header=names + ["m1"], rows=rows,
        key_columns=tuple(names), k=k, cards=cards, record_width=8,
        measure_kinds=("text",), answers=answers, stored_keys=stored,
        key_values=[list(v) for v in synth.dimension_values],
    )


def _word(rng: SplitMix64, lo: int, hi: int) -> str:
    return "".join(_LETTERS[rng.below(26)] for _ in range(lo + rng.below(hi - lo + 1)))


def _typed_relation(workload: Workload, shape: Shape, rseed: int) -> Relation:
    """String keys in random order; int64, float64 and text measures.

    The generated box is indexed in generation order; ingest sorts each
    dimension's values, so answers are keyed by values, not coordinates.
    """
    cards = shape.cards
    k = len(cards)
    key_columns = ("store", "day")[:k]
    rng = SplitMix64(rseed)
    dim_values = []
    for column, card in zip(key_columns, cards):
        seen = set()
        vals = []
        while len(vals) < card:
            v = f"{column}-{_word(rng, 4, 8)}"
            if v not in seen:
                seen.add(v)
                vals.append(v)
        dim_values.append(vals)
    # Positions come from the program's own generator, as a key-only relation.
    positions = [p for p, _ in generate_synthetic(k, cards, shape.rho, (), rseed ^ 1).cells]
    rows = []
    answers = {}
    used = [set() for _ in range(k)]
    for position in positions:
        coords = delinearize(position, cards)
        values = tuple(dim_values[d][i - 1] for d, i in enumerate(coords))
        qty = rng.below(2_000_001) - 1_000_000
        price = rng.below(10**9) / 1000
        note = _word(rng, 1, 12)
        rows.append(list(values) + [str(qty), repr(price), note])
        answers[values] = (qty, price, note)
        for d, v in enumerate(values):
            used[d].add(v)
    key_values = [sorted(u) for u in used]
    return Relation(
        workload=workload, relation_seed=rseed,
        header=[*key_columns, "qty", "price", "note"], rows=rows,
        key_columns=key_columns, k=k,
        cards=tuple(len(v) for v in key_values),
        record_width=8 + 8 + max(len(row[-1]) for row in rows),
        measure_kinds=("int64", "float64", "text"), answers=answers,
        stored_keys=[], key_values=key_values,
    )


def lookup_keys(rel: Relation, n: int, seed: int) -> list:
    """n seeded lookup keys: uniform over stored rows or over the whole box."""
    lseed = lookup_seed(seed)
    if rel.workload.uniform_over == "rows":
        return [rel.stored_keys[o - 1] for o in draw_sample(rel.r, n, lseed)]
    keys = [delinearize(p, rel.cards) for p in draw_sample(math.prod(rel.cards), n, lseed)]
    if rel.workload.by_values:
        return [rel.values_of(c) for c in keys]
    return keys
