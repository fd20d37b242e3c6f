"""Benchmark of cubestore: ingest, build, open, and point lookups on three paths.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload hit-dense --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py for why each was chosen): hit-dense,
miss-sparse, csv-typed.  With --trace 0 the result carries the
end-to-end metrics named in BENCHMARK.json; with --trace 1 a separate
traced run carries the per-layer metrics and writes its spans to
.perfbench_out/.  --scale tiny shrinks every relation, for the
self-test.

Standard output ends with two JSON lines: the full report (run context,
every metric, the cost model beside the measured quotients, failures),
then the result {"correct", "attempted", "failed", "metrics"}.  The
report is also written to .perfbench_out/.  Exits 2 without a result
when the checkout holds no program source, 1 on any other fatal error.
"""

from __future__ import annotations

import argparse
import json
import sys

import common


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hit-dense", "miss-sparse", "csv-typed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.use_program_source()
    except common.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness

    result, report = harness.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.scale)
    common.OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (common.OUT_DIR / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
