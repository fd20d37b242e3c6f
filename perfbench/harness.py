"""One benchmark run: write, build, open and look up, then check and report.

A run of one workload first generates the seeded relation, writes it
as CSV and draws the lookup keys (all untimed).  It then runs SEGMENTS
segments, each made of:

1. one write sample: ingest and build in a fresh child process
   (child_write.py), for ingest_s, build_s and the peak RSS of a process
   that only writes.  Builds pass the page size explicitly.  The first
   sample's files are checked against the relation and the exact space
   model and hashed, which reads each once, so the page cache is warm;
   they are the ones looked up.  Later samples must rebuild them byte for
   byte and are then deleted;
2. OPEN_SAMPLES opens for setup_s: open_dataset, plus loading the
   dimension directories when lookups take key values;
3. lookup rounds: each round runs the three paths over the same batch of
   keys, timing one call at a time, and checks every answer against the
   relation after its pass.

Spreading every kind of sample over the whole run lets each meet the
same range of host states.

Why "quiet" rounds.  On a shared host the speed of this process swings
by up to 1.8x from one second to the next while it keeps the whole
processor.  Outside work can only slow a pass, never speed it up, so
each lookup metric is taken over the fastest tenth (1/QUIET_SHARE) of
each path's rounds: throughput is their lookups over their time, and
p50/p99 are percentiles of their pooled per-call latencies.  For the
same reason ingest_s and build_s are the fastest of their samples.
setup_s is the median of its samples.  The report keeps the all-rounds
figures too.  Slow phases that last minutes still move every timing
between runs; no choice within one run removes that.

With tracing on, the lookup time is split: the first half runs as
above (the base for the measured quotients), the second runs each
traced pass right after an untraced pass over the same keys (the base
for the trace overhead).  Traced paths record one span per public call.
The traced run also times the layer calls behind ingest, build and open
one by one, and writes every span to OUT_DIR.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import timeit
from array import array
from statistics import median

import common
import lookups
import workloads
from common import OUT_DIR, PAGE_SIZE, WORK_DIR, percentile
from cubestore.array_store import Header, compress_stream
from cubestore.bench import SplitMix64
from cubestore.cost_model import q_btree, q_plain
from cubestore.dataset import MANIFEST_NAME, Manifest, open_dataset, size_report
from cubestore.linearizer import linearize
from cubestore.relation_model import compute_active_domains
from cubestore.table_store import (
    PAGE_SIZE_ENV,
    TableStore,
    build_index_from_table,
    worst_case_page_reads,
)
from spans import Tracer

SEGMENTS = 3  # each: one write sample, OPEN_SAMPLES opens, then lookup rounds
OPEN_SAMPLES = 5
LAYER_SAMPLES = 3  # repeats of each write- and open-side layer call when tracing
QUIET_SHARE = 10  # lookup metrics use the fastest 1/QUIET_SHARE of rounds
POOL_KEYS = {"full": 50_000, "tiny": 2_000}
BATCH = {"full": 1_000, "tiny": 200}
TRACE_LOOKUPS = {"full": 10_000, "tiny": 400}  # per path; bounds span memory
CHILD_TIMEOUT_S = 150
MAX_FAILURE_NOTES = 5


class Checks:
    """Attempted and failed operations, with the first few failures described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def count(self, attempted: int, failed: int, note: str | None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note and len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(note)

    def expect(self, ok: bool, note: str) -> None:
        self.count(1, 0 if ok else 1, note)


def load_metric_specs() -> dict:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def write_sample(csv_path, out_dir, key_columns) -> dict:
    """Ingest and build in a fresh child process; its times and peak RSS."""
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "child_write.py"), str(csv_path),
         str(out_dir), ",".join(key_columns), str(PAGE_SIZE)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"ingest and build failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def hash_files(ds) -> dict:
    """sha256 of every dataset file; reading them also warms the page cache."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(ds.iterdir())}


def calibrate_p(key_bytes: int, trials: int = 7, number: int = 20_000) -> float:
    """Cost of one key-bytes comparison over one integer multiplication, on this host.

    Keys differ only in their last byte, so the comparison reads the full
    width.  Each statement is repeated 20 times per loop, and the time of
    the same loop loading the two names without an operation is
    subtracted from both.
    """
    a = bytes(key_bytes)
    b = bytes(key_bytes - 1) + b"\x01"
    setup = f"a = {a!r}; b = {b!r}; x = 1_000_003; c = 70"

    def best(stmt):
        return min(timeit.repeat(stmt * 20, setup, repeat=trials, number=number))

    base = best("a; b; ")
    return (best("a < b; ") - base) / (best("x * c; ") - base)


def rotated(rnd: int) -> tuple[str, ...]:
    i = rnd % len(lookups.PATHS)
    return lookups.PATHS[i:] + lookups.PATHS[:i]


def path_stats(rounds) -> dict:
    """Throughput and latency percentiles over (wall ns, latencies) rounds."""
    pooled = sorted(x for _, lat in rounds for x in lat)
    return {
        "lookups_per_s": len(pooled) * 1e9 / sum(wall for wall, _ in rounds),
        "p50_us": percentile(pooled, 50) / 1000,
        "p99_us": percentile(pooled, 99) / 1000,
        "rounds": len(rounds),
        "samples": len(pooled),
    }


def quiet_stats(rounds) -> dict:
    fastest = sorted(rounds, key=lambda r: r[0])
    return path_stats(fastest[: max(1, len(fastest) // QUIET_SHARE)])


class Run:
    """State of one run of one workload, from relation to result."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, scale: str, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.work = work
        self.batch = BATCH[scale]
        self.checks = Checks()
        self.rel = None
        self.ds = None
        self.db = None
        self.traced_counts = None

    # ---------------------------------------------------------------- set-up

    def prepare(self) -> None:
        self.rel = workloads.make_relation(self.workload, self.seed, self.scale)
        self.csv_path = self.work / "input.csv"
        self.rel.write_csv(self.csv_path)
        self.keys = workloads.lookup_keys(self.rel, POOL_KEYS[self.scale], self.seed)
        self.writes = []
        self.open_samples = []

    def write(self) -> None:
        """One ingest-and-build sample.  The first one becomes the dataset
        that is opened and looked up; later ones must rebuild it byte for byte."""
        n = len(self.writes)
        out = self.work / f"ds{n}"
        self.writes.append(write_sample(self.csv_path, out, self.rel.key_columns))
        self.checks.count(2, 0, None)  # one ingest, one build
        if n == 0:
            self.ds = out
            self.sizes = self.check_dataset()
            self.digests = hash_files(out)
            return
        digests = hash_files(out)
        del digests[MANIFEST_NAME]  # holds the ingest time
        same = all(self.digests.get(name) == digest for name, digest in digests.items())
        self.checks.expect(same, f"write sample {n} is not byte-identical to the first")
        shutil.rmtree(out)

    def check_dataset(self) -> dict:
        """Structural checks against the relation and the exact space model."""
        rel = self.rel
        expect = self.checks.expect
        manifest = Manifest.load(self.ds / MANIFEST_NAME)
        report = size_report(self.ds)
        r, k, m = rel.r, rel.k, rel.record_width
        expect(manifest.r == r and report["rows"] == r,
               f"manifest holds {manifest.r} rows, relation has {r}")
        expect(manifest.cards == rel.cards, f"cards {manifest.cards}, expected {rel.cards}")
        kinds = tuple(c.kind for c in manifest.measure_columns)
        expect(kinds == rel.measure_kinds, f"measure kinds {kinds}, expected {rel.measure_kinds}")
        expect(manifest.schema.record_width == m,
               f"record width {manifest.schema.record_width}, expected {m}")
        expect(report["table"] == r * (4 * k + m),
               f".tbl is {report['table']} bytes, model says r(4k+M) = {r * (4 * k + m)}")
        expect(report["array"] == r * m, f".arr is {report['array']} bytes, model says rM = {r * m}")
        return report

    def open_for_lookups(self):
        db = open_dataset(self.ds)
        if self.workload.by_values:
            db.dimension_directories()
        return db

    def measure_setup(self) -> None:
        """OPEN_SAMPLES setup_s samples from one collector state; keeps the last open."""
        for _ in range(OPEN_SAMPLES):
            if self.db is not None:
                self.db.close()
                self.db = None
            gc.collect()
            t0 = time.perf_counter()
            self.db = self.open_for_lookups()
            self.open_samples.append(time.perf_counter() - t0)
            self.checks.count(1, 0, None)
        gc.collect()
        gc.freeze()  # the benchmark's own data stays out of the program's collections

    # --------------------------------------------------------------- lookups

    def untraced_lookups(self, seconds: float) -> dict:
        """SEGMENTS of (write sample, open samples, lookup rounds), seconds in all."""
        keys, batch, expected = self.keys, self.batch, self.rel.answers
        rounds = {p: [] for p in lookups.PATHS}
        array_hits = 0
        batches = len(keys) // batch
        clock = time.perf_counter_ns
        rnd = 0
        for segment in range(SEGMENTS):
            self.write()
            self.measure_setup()
            ops = lookups.path_ops(self.db, self.workload.by_values)
            if segment == 0:  # warm-up, untimed: lets the interpreter specialise
                for path in lookups.PATHS:
                    answers = lookups.timed_pass(ops[path], keys[:batch], array("q"))
                    self.checks.count(batch, *lookups.count_wrong(keys[:batch], answers, expected))
            deadline = time.perf_counter() + seconds / SEGMENTS
            while True:
                start = (rnd % batches) * batch
                chunk = keys[start : start + batch]
                for path in rotated(rnd):
                    lat = array("q")
                    t0 = clock()
                    answers = lookups.timed_pass(ops[path], chunk, lat)
                    rounds[path].append((clock() - t0, lat))
                    self.checks.count(len(chunk), *lookups.count_wrong(chunk, answers, expected))
                    if path == "array":
                        array_hits += sum(a is not None for a in answers)
                rnd += 1
                if time.perf_counter() >= deadline:
                    break
        return {
            "quiet": {p: quiet_stats(rounds[p]) for p in lookups.PATHS},
            "all": {p: path_stats(rounds[p]) for p in lookups.PATHS},
            "array_hit_ratio": array_hits / (rnd * batch),
        }

    def traced_lookups(self, tracer: Tracer, seconds: float):
        """Traced rounds until TRACE_LOOKUPS per path or seconds.

        Each traced pass follows an untraced pass over the same keys, so
        the two meet the same host state; returns the traced paths and
        the untraced latencies of those paired passes.
        """
        meta = self.db.table.meta
        rng = SplitMix64(workloads.lookup_seed(self.seed) ^ 0x5EED)
        file_pages = self.sizes["btree"] // meta.page_size
        random_pages = [rng.below(file_pages) for _ in range(4096)]
        random_rows = [rng.below(self.rel.r) for _ in range(4096)]
        ops = lookups.path_ops(self.db, self.workload.by_values)
        paths = lookups.TracedPaths(self.db, self.rel, tracer, random_pages, random_rows)
        paired = {p: array("q") for p in lookups.PATHS}
        keys, batch, expected = self.keys, self.batch, self.rel.answers
        batches = len(keys) // batch
        deadline = time.perf_counter() + seconds
        rnd = 0
        lid = 0
        try:
            while rnd * batch < TRACE_LOOKUPS[self.scale]:
                start = (rnd % batches) * batch
                chunk = keys[start : start + batch]
                for path in rotated(rnd):
                    for answers in (lookups.timed_pass(ops[path], chunk, paired[path]),
                                    lookups.traced_pass(getattr(paths, path), chunk, lid)):
                        self.checks.count(len(chunk),
                                          *lookups.count_wrong(chunk, answers, expected))
                    lid += len(chunk)
                rnd += 1
                if time.perf_counter() >= deadline:
                    break
        finally:
            paths.close()
        bound = worst_case_page_reads(self.rel.r, meta.t)
        over = sum(1 for n in paths.page_reads if n > bound)
        self.checks.count(len(paths.page_reads), over,
                          f"{over} B-tree lookups read more than {bound} pages")
        return paths, paired

    def trace_layers(self, tracer: Tracer) -> None:
        """Time the layer calls behind ingest, build and open one by one, as root spans."""
        manifest = self.db.manifest
        ds, rel = self.ds, self.rel
        tbl = ds / manifest.table_file
        btx = ds / manifest.btree_file
        hdr = ds / manifest.header_file
        m = rel.record_width
        cards = manifest.cards
        cells = [(linearize(c, cards), rec) for c, rec in self.db.table.iter_rows()]
        total = manifest.schema.cell_total
        for _ in range(LAYER_SAMPLES):
            tracer.timed("relation_model.active_domains", compute_active_domains, rel.rows)
            tracer.timed("table_store.build_index", build_index_from_table,
                         tbl, self.work / "layer.btx", rel.k, m, PAGE_SIZE)
            with open(self.work / "layer.arr", "wb") as sink:
                tracer.timed("array_store.compress", compress_stream, cells, total, m, sink)
            tracer.timed("dataset.open_dataset", open_dataset, ds).close()
            tracer.timed("dataset.manifest_load", Manifest.load, ds / MANIFEST_NAME)
            tracer.timed("table_store.table_open", TableStore.open, tbl, cards, m, btx).close()
            tracer.timed("array_store.header_load", Header.load, hdr)

    # -------------------------------------------------------------- metrics

    def measure(self) -> tuple[dict, dict]:
        """Run the lookups; returns (end-to-end metrics, per-layer metrics)."""
        plain = self.untraced_lookups(self.seconds / 2 if self.trace else self.seconds)
        self.plain = plain
        quiet = plain["quiet"]
        rel = self.rel
        meta = self.db.table.meta
        sizes = self.sizes
        p_host = calibrate_p(self.db.table.key_bytes)
        self.model = {
            "p_calibrated": p_host,
            "t": meta.t,
            "q_plain_pred": q_plain(rel.r, rel.k, p_host),
            "q_btree_pred": q_btree(rel.r, rel.k, p_host, meta.t),
            "q_plain_measured": quiet["bsearch"]["p50_us"] / quiet["array"]["p50_us"],
            "q_btree_measured": quiet["btree"]["p50_us"] / quiet["array"]["p50_us"],
        }
        e2e = {
            "ingest_s": min(w["ingest_s"] for w in self.writes),
            "build_s": min(w["build_s"] for w in self.writes),
            "setup_s": median(self.open_samples),
            "write_peak_rss_mb": median([w["peak_rss_mb"] for w in self.writes]),
            "table_bytes_per_row": (sizes["table"] + sizes["btree"]) / rel.r,
            "array_bytes_per_row":
                (sizes["array"] + sizes["header"] + sizes["dimension_values"]) / rel.r,
        }
        for path, stats in quiet.items():
            for name in ("lookups_per_s", "p50_us", "p99_us"):
                e2e[f"{path}_{name}"] = stats[name]
        layer = self.measure_layers() if self.trace else {}
        return e2e, layer

    def measure_layers(self) -> dict:
        tracer = Tracer()
        self.trace_layers(tracer)
        gc.collect()
        gc.freeze()
        paths, paired = self.traced_lookups(tracer, self.seconds / 2)
        self.traced_counts = {"btree": len(paths.page_reads), "bsearch": len(paths.row_reads),
                              "spans": len(tracer)}
        self_ns = tracer.self_times()

        def ns(name):
            return median(self_ns[name])

        def secs(name):
            return median(self_ns[name]) / 1e9

        overhead = []
        for p in lookups.PATHS:
            untraced = median(paired[p])
            overhead.append(100 * (median(tracer.durations("path." + p)) - untraced) / untraced)
        meta = self.db.table.meta
        sizes = self.sizes
        model = self.model
        layer = {
            "linearizer.linearize_ns": ns("linearizer.linearize"),
            "array_store.locate_ns": ns("array_store.locate"),
            "array_store.hit_ratio": self.plain["array_hit_ratio"],
            "array_store.read_record_ns": ns("array_store.read_record"),
            "array_store.header_load_s": secs("array_store.header_load"),
            "array_store.header_entries": len(self.db.array.header),
            "array_store.header_bytes": sizes["header"],
            "array_store.compress_s": secs("array_store.compress"),
            "table_store.encode_key_ns": ns("table_store.encode_key"),
            "table_store.btree_lookup_ns": ns("table_store.btree_lookup"),
            "table_store.btree_pages_per_lookup": sum(paths.page_reads) / len(paths.page_reads),
            "os.pread_page_ns": ns("os.pread_page"),
            "table_store.read_measures_ns": ns("table_store.read_measures"),
            "os.pread_record_ns": ns("os.pread_record"),
            "table_store.bsearch_ns": ns("table_store.binary_search_lookup"),
            "table_store.bsearch_rows_per_lookup": sum(paths.row_reads) / len(paths.row_reads),
            "table_store.build_index_s": secs("table_store.build_index"),
            "table_store.btree_height": meta.height,
            "table_store.btree_t": meta.t,
            "table_store.btree_bytes": sizes["btree"],
            "relation_model.index_of_ns": ns("relation_model.index_of"),
            "relation_model.unpack_ns": ns("relation_model.unpack"),
            "relation_model.active_domains_s": secs("relation_model.active_domains"),
            "dataset.manifest_load_s": secs("dataset.manifest_load"),
            "dataset.table_open_s": secs("table_store.table_open"),
            "cost_model.p_calibrated": model["p_calibrated"],
            "cost_model.q_plain_pred": model["q_plain_pred"],
            "cost_model.q_btree_pred": model["q_btree_pred"],
            "bench.q_plain_measured": model["q_plain_measured"],
            "bench.q_btree_measured": model["q_btree_measured"],
            "bench.trace_overhead_pct": sum(overhead) / len(overhead),
        }
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{self.workload.name}-seed{self.seed}.tsv.gz")
        return layer

    def context(self) -> dict:
        rel = self.rel
        meta = self.db.table.meta
        quiet = self.plain["quiet"]
        return {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "workload": self.workload.name,
            "scale": self.scale,
            "seed": self.seed,
            "relation_seed": rel.relation_seed,
            "lookup_seed": workloads.lookup_seed(self.seed),
            "seconds": self.seconds,
            "client": "one closed-loop client on one thread",
            "r": rel.r,
            "k": rel.k,
            "cards": list(rel.cards),
            "record_width": rel.record_width,
            "uniform_over": self.workload.uniform_over,
            "lookup_keys_in_pool": len(self.keys),
            "lookups_per_round": self.batch,
            "rounds": {p: s["rounds"] for p, s in self.plain["all"].items()},
            "quiet_rounds": {p: s["rounds"] for p, s in quiet.items()},
            "percentile_samples": {p: s["samples"] for p, s in quiet.items()},
            "traced": self.traced_counts,
            "write_samples": len(self.writes),
            "open_samples": len(self.open_samples),
            "page_size": PAGE_SIZE,
            "page_size_env_set": PAGE_SIZE_ENV in os.environ,
            "page_size_env_value": os.environ.get(PAGE_SIZE_ENV),
            "btree_t": meta.t,
            "btree_height": meta.height,
            "page_cache": "warm: just written and read once",
            "sha256": self.digests,
            "sizes": self.sizes,
        }


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """Run one workload; returns (result line, full report)."""
    specs = load_metric_specs()
    mode = "per_layer" if trace else "end_to_end"
    work = WORK_DIR / f"{workload_name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    bench = Run(workloads.WORKLOADS[workload_name], seed, seconds, trace, scale, work)
    try:
        bench.prepare()
        e2e, layer = bench.measure()
        context = bench.context()
    finally:
        if bench.db is not None:
            bench.db.close()
        shutil.rmtree(work, ignore_errors=True)
    source = layer if trace else e2e
    missing = sorted(set(specs[mode]) - set(source))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    checks = bench.checks
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in specs[mode].items()},
    }
    report = {
        "context": context,
        "checks": {
            "attempted": checks.attempted,
            "failed": checks.failed,
            "error_rate": checks.failed / checks.attempted,
            "first_failures": checks.notes,
        },
        "end_to_end": e2e,
        "per_layer": layer,
        "model": bench.model,
        "lookups_all_rounds": bench.plain["all"],
        "samples": {"writes": bench.writes, "setup_s": bench.open_samples},
    }
    return result, report
