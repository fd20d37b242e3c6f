"""Self-test of the benchmark itself.  Run from the checkout root:

    python3 perfbench/selftest.py

At tiny scale it checks that:

- every workload, untraced and traced, prints a result line with exactly
  the keys correct, attempted, failed and metrics, carries every metric
  BENCHMARK.json names for that mode with its unit, and counts no failure;
- one seed gives byte-identical CSV input and the same lookup keys, and
  another seed gives different ones;
- CSV ingest of the hit-dense relation writes the same relation.tbl as
  materialize_synthetic;
- the checker counts an injected wrong record and an injected exception
  as failures.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import common

def check_runs(expect, spec) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, mode in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                cwd=common.ROOT, capture_output=True, text=True, timeout=170, check=False,
            )
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 (stderr: {proc.stderr.strip()[-500:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} result has exactly the four keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label} is correct with no failure")
            want = {m["name"]: m["unit"] for m in spec[mode]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{label} emits every {mode} metric with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{label} metric values are numbers")


def check_determinism(expect) -> None:
    import workloads

    work = common.WORK_DIR / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in workloads.WORKLOADS.items():
            texts = []
            keys = []
            for n, seed in enumerate((7, 7, 8)):
                rel = workloads.make_relation(workload, seed, "tiny")
                path = work / f"{name}-{n}.csv"
                rel.write_csv(path)
                texts.append(path.read_bytes())
                keys.append(workloads.lookup_keys(rel, 500, seed))
            expect(texts[0] == texts[1] and keys[0] == keys[1],
                   f"{name}: one seed gives byte-identical CSV and the same keys")
            expect(keys[0] != keys[2], f"{name}: another seed gives other keys")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_hit_dense_table(expect) -> None:
    import workloads
    from cubestore.bench import generate_synthetic
    from cubestore.dataset import TABLE_NAME, ingest_csv, materialize_synthetic

    workload = workloads.WORKLOADS["hit-dense"]
    shape = workload.shapes["tiny"]
    work = common.WORK_DIR / "selftest-tbl"
    work.mkdir(parents=True, exist_ok=True)
    try:
        rel = workloads.make_relation(workload, 1, "tiny")
        rel.write_csv(work / "in.csv")
        ingest_csv(work / "in.csv", rel.key_columns, work / "csv")
        synth = generate_synthetic(len(shape.cards), shape.cards, shape.rho, (8,),
                                   workload.fixed_relation_seed)
        materialize_synthetic(synth, work / "synth")
        same = (work / "csv" / TABLE_NAME).read_bytes() == (work / "synth" / TABLE_NAME).read_bytes()
        expect(same, "hit-dense CSV ingest writes the table materialize_synthetic writes")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_checker(expect) -> None:
    from array import array

    import lookups

    keys = [(1, 1), (1, 2), (2, 1)]
    expected = {(1, 1): b"right", (2, 1): b"other"}
    truth = {(1, 1): b"right", (1, 2): None, (2, 1): b"other"}

    def faulty(key):
        if key == (1, 2):
            raise OSError("injected")
        return b"wrong" if key == (2, 1) else truth[key]

    answers = lookups.timed_pass(faulty, keys, array("q"))
    wrong, first = lookups.count_wrong(keys, answers, expected)
    expect(wrong == 2 and first is not None,
           "untraced check counts an injected exception and a wrong record")
    answers = lookups.traced_pass(lambda key, lid: faulty(key), keys, 0)
    wrong, _ = lookups.count_wrong(keys, answers, expected)
    expect(wrong == 2, "traced check counts an injected exception and a wrong record")
    answers = lookups.timed_pass(truth.get, keys, array("q"))
    expect(lookups.count_wrong(keys, answers, expected)[0] == 0,
           "check passes right answers, misses included")


def main() -> int:
    common.use_program_source()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    check_checker(expect)
    check_determinism(expect)
    check_hit_dense_table(expect)
    check_runs(expect, spec)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
