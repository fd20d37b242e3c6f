"""The one-pass ingest and the streaming B-tree load against their references.

oracle.ingest_rows_in_memory and oracle.build_index_in_memory hold every
row and every page; the production write path must write the same
bytes, raise the same error classes, and hold far less memory.
"""

import dataclasses
import random
import tracemalloc

import pytest

import oracle
from cubestore import (
    CubeStoreError,
    DuplicateKeyError,
    DuplicateRowError,
    MalformedInputError,
    delinearize,
    ingest_rows,
)
from cubestore.table_store import block_rows, build_index_from_table, min_degree

_ALPHABET = "abcxyz,\"'é中 \\\n-"
INPUT_FORMS = ("tuples", "lists", "generator of tuples", "generator of lists",
               "generator of iterators")


def _word(rng, lo=1, hi=6):
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(lo, hi)))


def _measure_value(rng, kind):
    if kind == "int":
        if rng.random() < 0.02:
            return str(2**63)  # past int64, so the column is inferred as float64
        return rng.choice([str(rng.randint(-10**6, 10**6)), f"{rng.randint(0, 99):03d}",
                           f"+{rng.randint(0, 9)}"])
    if kind == "float":
        # a few integer-looking values still leave the column float64
        return rng.choice([f"{rng.uniform(-1e3, 1e3):.3f}", f"{rng.randint(0, 9)}.5",
                           str(rng.randint(0, 9)), "1e3"])
    return _word(rng)


@dataclasses.dataclass
class Case:
    header: list
    rows: list  # lists of strings, in header order
    key_columns: list
    measure_kinds: dict  # measure column name -> "int" / "float" / "text"
    types: dict
    form: str

    def feed(self):
        rows = [list(row) for row in self.rows]
        if "tuples" in self.form:
            rows = [tuple(row) for row in rows]
        if "iterators" in self.form:
            rows = [iter(row) for row in rows]
        return (row for row in rows) if self.form.startswith("generator") else rows

    def ingest(self, ingest, out_dir):
        return ingest(self.header, self.feed(), self.key_columns, out_dir,
                      schema_name="case", types=self.types)


def random_case(seed: int) -> Case:
    """A seeded relation: k in 1..4, presence/int/float/text/mixed measures."""
    rng = random.Random(seed)
    k = 1 + seed % 4
    kinds = [[], ["int"], ["float"], ["text"], ["int", "float", "text"]][seed // 4 % 5]
    cards = [rng.randint(1, 5) for _ in range(k)]
    dims = []
    for card in cards:
        values = set()
        while len(values) < card:
            values.add(_word(rng))
        dims.append(sorted(values, key=lambda _: rng.random()))
    total = 1
    for c in cards:
        total *= c
    keys = [f"k{d}" for d in range(k)]
    measures = [f"m{j}" for j in range(len(kinds))]
    names = keys + measures
    rows = []
    for position in rng.sample(range(1, total + 1), rng.randint(1, min(total, 40))):
        coords = delinearize(position, cards)
        rows.append([dims[d][i - 1] for d, i in enumerate(coords)]
                    + [_measure_value(rng, kind) for kind in kinds])
    perm = rng.sample(range(len(names)), len(names))
    types = {}
    if measures and rng.random() < 0.3:
        j = rng.randrange(len(measures))
        widest = max(len(row[k + j].encode("utf-8")) for row in rows)
        types[measures[j]] = rng.choice(
            {"int": ["float64", "text"], "float": ["text"], "text": ["text"]}[kinds[j]]
            + [f"text:{widest + 2}"]
        )
    return Case(
        header=[names[i] for i in perm],
        rows=[[row[i] for i in perm] for row in rows],
        key_columns=rng.sample(keys, k),
        measure_kinds=dict(zip(measures, kinds)),
        types=types,
        form=INPUT_FORMS[seed % len(INPUT_FORMS)],
    )


def _dataset_files(root):
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())
            if path.name != "manifest.txt"}


def _manifest_text(root):
    lines = (root / "manifest.txt").read_text().splitlines()
    return [line for line in lines if not line.startswith("built_at=")]


SEEDS = range(240)


def test_ingest_matches_reference(tmp_path):
    forms = set()
    for seed in SEEDS:
        case = random_case(seed)
        ref_dir, new_dir = tmp_path / f"{seed}-ref", tmp_path / f"{seed}-new"
        expected = case.ingest(oracle.ingest_rows_in_memory, ref_dir)
        got = case.ingest(ingest_rows, new_dir)
        assert got == dataclasses.replace(expected, built_at=got.built_at), seed
        assert _manifest_text(new_dir) == _manifest_text(ref_dir), seed
        assert _dataset_files(new_dir) == _dataset_files(ref_dir), seed
        forms.add(case.form)
    assert forms == set(INPUT_FORMS)


# Fault kinds in the order the reference reports them.
PRECEDENCE = (
    ("arity", MalformedInputError),
    ("empty", MalformedInputError),
    ("duplicate row", DuplicateRowError),
    ("type", MalformedInputError),
    ("duplicate key", DuplicateKeyError),
)


def _another_value(value, kind):
    """A different string that the column accepts."""
    if kind == "int":
        return str(int(value) + 1)
    if kind == "float":
        if "e" in value:
            return value.replace("e", "E")
        return value + "0" if "." in value else value + ".0"
    return value + "z"


def inject_faults(case: Case, rng: random.Random) -> set:
    """Apply a random non-empty set of faults to the case; return their names."""
    faults = {name for name, _ in PRECEDENCE if rng.random() < 0.35}
    measures = list(case.measure_kinds)
    if not measures:
        faults.discard("duplicate key")  # with no measures it is a duplicate row
    faults = faults or {"duplicate row"}
    rows = case.rows
    if "type" in faults:
        pick = rng.randrange(3) if measures else 0
        if pick == 0:
            case.types = {"no such column": "text"}
        else:
            name = rng.choice(measures)
            col = case.header.index(name)
            if pick == 1:
                case.types = {name: "int64"}
                rows[rng.randrange(len(rows))][col] = "x1"
            else:
                case.types.pop(name, None)
                rows[rng.randrange(len(rows))][col] = "a\x00b"  # NUL is not allowed in text
    if "duplicate row" in faults:
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    if "duplicate key" in faults:
        copy = list(rng.choice(rows))
        name = rng.choice(measures)
        col = case.header.index(name)
        if copy[col] not in ("x1", "a\x00b"):
            copy[col] = _another_value(copy[col], case.measure_kinds[name])
        else:
            copy[col] += "?"
        rows.insert(rng.randrange(len(rows) + 1), copy)
    if "arity" in faults:
        bad = list(rng.choice(rows))
        bad = bad[:-1] if rng.random() < 0.5 else bad + ["extra"]
        rows.insert(rng.randrange(len(rows) + 1), bad)
    if "empty" in faults:
        case.rows = []
    return faults


def _raised(case, ingest, out_dir):
    try:
        case.ingest(ingest, out_dir)
    except CubeStoreError as exc:
        return type(exc)
    return None


def test_faults_raise_like_reference(tmp_path):
    seen = set()
    for seed in SEEDS:
        case = random_case(seed)
        faults = inject_faults(case, random.Random(seed + 10_000))
        first = next(name for name, _ in PRECEDENCE if name in faults)
        expected = dict(PRECEDENCE)[first]
        reference = _raised(case, oracle.ingest_rows_in_memory, tmp_path / f"{seed}-ref")
        assert reference is expected, (seed, faults)
        assert _raised(case, ingest_rows, tmp_path / f"{seed}-new") is expected, (seed, faults)
        seen.add(first)
    assert seen == {name for name, _ in PRECEDENCE}


def test_equal_floats_in_different_text_are_a_duplicate_key(tmp_path):
    rows = [("a", "x", "1.0"), ("b", "x", "2"), ("a", "x", "1.00")]
    with pytest.raises(DuplicateKeyError):
        oracle.ingest_rows_in_memory(["k1", "k2", "v"], iter(rows), ["k1", "k2"], tmp_path / "ref")
    with pytest.raises(DuplicateKeyError, match="rows 1 and 3 share the key"):
        ingest_rows(["k1", "k2", "v"], iter(rows), ["k1", "k2"], tmp_path / "new")


def test_duplicate_row_found_among_three_rows_of_one_key(tmp_path):
    # rows 1 and 3 are equal, but row 2 sits between them in the key's group
    rows = [("a", "1"), ("a", "2"), ("a", "1")]
    with pytest.raises(DuplicateRowError, match="rows 1 and 3"):
        ingest_rows(["k", "v"], rows, ["k"], tmp_path / "ds")


def _index_sizes(b, t):
    """Row counts around one block, one node and two levels of blocks of b rows."""
    sizes = {0, 1, b - 1, b, b + 1}
    for m in (2, 3, t, 2 * t, 2 * t + 1, 4 * t * t + 1):
        sizes |= {m * b - 1, m * b + 1}
    return sorted(sizes)


def _write_rows(path, n, key_bytes, record_width):
    """An n-row table of ascending keys 0, 1, ... and zero records."""
    path.write_bytes(b"".join(i.to_bytes(key_bytes, "big") + bytes(record_width)
                              for i in range(n)))
    return path


@pytest.mark.parametrize("record_width", [2, 3, 4, 12, 20])
def test_build_index_matches_reference(tmp_path, record_width):
    # two 4-byte key fields in 128-byte pages: t = 7, and B from 12 down to 4
    t = min_degree(128, 8)
    for r in _index_sizes(block_rows(128, 8 + record_width), t):
        tbl = _write_rows(tmp_path / "t.tbl", r, 8, record_width)
        expected = oracle.build_index_in_memory(tbl.read_bytes(), tmp_path / "ref.btx", 2,
                                                record_width, 128)
        got = build_index_from_table(tbl, tmp_path / "new.btx", 2, record_width, 128)
        assert got == expected, r
        assert (tmp_path / "new.btx").read_bytes() == (tmp_path / "ref.btx").read_bytes(), r


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_ingest_memory_per_row(tmp_path):
    rng = random.Random(5)
    cards = (32, 32, 32)
    rows = []
    for position in rng.sample(range(1, 32_769), 16_384):
        i, j, k = delinearize(position, cards)
        rows.append((f"a{i:03d}", f"b{j:03d}", f"c{k:03d}", str(rng.randint(-10**6, 10**6))))
    peak = _traced_peak(lambda: ingest_rows(["x", "y", "z", "v"], rows, ["x", "y", "z"],
                                            tmp_path / "ds"))
    assert peak / len(rows) <= 150


def test_build_index_memory_is_flat(tmp_path):
    # 112-byte rows make blocks of 36 rows: 456 and 1,821 blocks, whose
    # first keys are streamed into the bottom level rather than held
    tables = {n: _write_rows(tmp_path / f"{n}.tbl", n, 12, 100) for n in (1000, 16_384, 65_536)}

    def build(n):
        return build_index_from_table(tables[n], tmp_path / f"{n}.btx", 3, 100, 4096)

    build(1000)
    small = _traced_peak(lambda: build(16_384))
    large = _traced_peak(lambda: build(65_536))
    assert large <= 1.5 * small
