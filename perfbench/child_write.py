"""Ingest a CSV and build the dataset in a fresh process; print times and peak RSS.

Usage: python3 perfbench/child_write.py CSV OUT_DIR KEY[,KEY...] PAGE_SIZE

The benchmark runs this once per write sample, so that the peak resident
set size and the write times belong to a process that does nothing else.
Prints one JSON object: ingest_s, build_s, peak_rss_mb.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import common


def main(argv) -> int:
    csv_path, out_dir, keys, page_size = argv
    common.use_program_source()
    from cubestore.dataset import build_dataset, ingest_csv

    t0 = time.perf_counter()
    ingest_csv(csv_path, keys.split(","), out_dir)
    t1 = time.perf_counter()
    build_dataset(out_dir, page_size=int(page_size))
    t2 = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"ingest_s": t1 - t0, "build_s": t2 - t1, "peak_rss_mb": peak_kb / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
