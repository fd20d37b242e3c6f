"""Command-line interface.

Subcommands:

  ingest   read a CSV file into a dataset directory
  build    derive the B-tree index and/or compressed array
  query    look up one cell by its dimension values
  stats    report sparsity figures, the size verdict, the header encoding
           and the B-tree's shape
  cost     print the analytic lookup-cost tables
  bench    time point lookups against both representations
  export   write the stored rows back out as CSV

Exit status: 0 on success, 1 when a query finds an empty cell, 2 on any
error (bad arguments, malformed input, missing files, an output file
that cannot be written), 141 (SIGPIPE's) when stdout's reader closes it.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .array_store import Header, PresenceBitmap, header_bytes
from .bench import DEFAULT_SIZES, report, run_benchmark, write_bench_csv
from .cost_model import (
    DEFAULT_K_VALUES,
    DEFAULT_P_VALUES,
    DEFAULT_R_VALUES,
    DEFAULT_T,
    cost_tables_text,
    emit_cost_tables,
    write_cost_csv,
)
from .dataset import (
    BTREE_NAME,
    HEADER_NAME,
    MANIFEST_NAME,
    Manifest,
    build_dataset,
    export_rows,
    format_size_report,
    ingest_csv,
    open_dataset,
    size_report,
    stored_cells,
)
from .errors import CubeStoreError, MalformedInputError
from .files import csv_writer, replacing, size_of
from .relation_model import build_conjoint, space_ratio


def _record(text: str) -> list[str]:
    """An option's values as one CSV record, quoted as export writes; "" is one empty value."""
    try:
        return next(csv.reader([text])) or [""]
    except csv.Error as exc:
        raise MalformedInputError(f"{text!r} is not one CSV record: {exc}") from None


def _parse_types(text: str) -> dict:
    """Parse a column type list like "qty=int64,note=text:12"; a name may hold "="."""
    out = {}
    for item in _record(text):
        name, sep, spec = item.rpartition("=")
        if not sep or not name or not spec:
            raise MalformedInputError(f"bad type override {item!r}, expected name=kind[:width]")
        out[name] = spec
    return out


def _cmd_ingest(args) -> int:
    types = _parse_types(args.types) if args.types else None
    manifest = ingest_csv(
        args.csv,
        [c for c in _record(args.keys) if c],
        args.out,
        schema_name=args.name,
        types=types,
    )
    print(f"ingested {manifest.r:,} rows into {args.out}")
    print(f"key dimensions: {', '.join(manifest.key_columns)}")
    print("cardinalities: " + ", ".join(str(c) for c in manifest.cards))
    if manifest.measure_columns:
        print("measures: " + ", ".join(
            f"{c.name} ({c.kind}, {c.width} B)" for c in manifest.measure_columns
        ))
    else:
        print("measures: none (presence byte)")
    return 0


def _cmd_build(args) -> int:
    which = args.only or "both"
    rep = build_dataset(args.dataset, which, page_size=args.page_size)
    print(format_size_report(rep))
    return 0


def _cmd_query(args) -> int:
    need = ("table",) if args.via == "table" else ("array",)
    with open_dataset(args.dataset, need=need) as db:
        values = _record(args.at)
        dirs = db.dimension_directories()
        if len(values) != len(dirs):
            raise MalformedInputError(
                f"the key has {len(dirs)} dimensions, got {len(values)} values"
            )
        indices = tuple(d.index_of(v) for d, v in zip(dirs, values))
        if args.via == "table":
            recno = db.table.btree_lookup(indices)
            record = db.table.read_measures(recno) if recno is not None else None
        else:
            record = db.array.get_cell(indices)
        if record is None:
            print("empty")
            return 1
        codec = db.codec
        if codec.is_presence:
            print("present")
        else:
            for col, value in zip(codec.columns, codec.unpack(record)):
                print(f"{col.name}={col.canonical(value)}")
        return 0


def _cmd_stats(args) -> int:
    """Print a dataset's figures only once all of them are known.

    So a damaged dataset prints its error alone: the size report checks
    that every file is there, and a bitmap's len() decodes and checks
    every page.
    """
    lines = []
    say = lines.append
    root = Path(args.dataset)
    manifest = Manifest.load(root / MANIFEST_NAME)
    schema = manifest.schema
    say(f"{'rows (r)':26}{manifest.r:,}")
    say(f"{'cells':26}{schema.cell_total:,}")
    say(f"{'row bytes':26}{schema.row_bytes:,}")
    say(f"{'record bytes':26}{schema.record_width:,}")
    say(f"{'data ratio (delta)':26}{schema.delta!r}")
    say(f"{'density (rho)':26}{manifest.rho!r}")
    if manifest.r:
        ratio = space_ratio(schema.delta, manifest.rho)
        say(f"{'size ratio (delta/rho)':26}{ratio!r}")
        if ratio < 1:
            say("verdict: multidimensional smaller (uncompressed model)")
        elif ratio > 1:
            say("verdict: table smaller (uncompressed model)")
        else:
            say("verdict: equal size (uncompressed model)")
    else:
        say("size ratio (delta/rho)    undefined (no rows)")
    if size_of(root / HEADER_NAME) is not None:
        header = Header.load(root / HEADER_NAME)
        sizes = header_bytes(header)
        stored = "presence bitmap" if isinstance(header, PresenceBitmap) else "run header"
        other = next(name for name in sizes if name != stored)
        say(f"{'header encoding':26}{stored}, {sizes[stored]:,} bytes "
            f"({other}: {sizes[other]:,} bytes)")
    else:
        say(f"{'header encoding':26}(not built)")
    if size_of(root / BTREE_NAME) is not None:
        with open_dataset(root, need=("table",)) as db:
            table = db.table
        meta = table.meta
        blocks = -(-table.row_count // table.leaf_rows)
        say(f"{'B-tree':26}height {meta.height}, t {meta.t}, key {meta.key_bytes} bytes, "
            f"pages: {meta.node_count:,} internal over {blocks:,} table blocks "
            f"of {table.leaf_rows} rows")
    say("")
    say(format_size_report(size_report(root)))
    if args.conjoint is not None:
        cells = list(stored_cells(root, manifest))
        result, _ = build_conjoint(cells, args.conjoint, manifest.cards,
                                   allow_degenerate=args.allow_degenerate)
        say("")
        say(f"{'conjoint of dimensions':26}1..{result.h}")
        say(f"{'conjoint size':26}{result.size:,}")
        say(f"{'conjoint cell ratio':26}{result.cell_ratio!r}")
        say(f"{'density after (rho-prime)':26}{result.rho_prime!r}")
        say("cardinalities after: " + ", ".join(str(c) for c in result.cards_after))
    print("\n".join(lines))
    return 0


def _cmd_cost(args) -> int:
    tables = emit_cost_tables(
        tuple(args.p), tuple(args.r), tuple(args.k), t=args.t,
    )
    if args.csv:
        for path in write_cost_csv(tables, args.csv):
            print(f"wrote {path}", file=sys.stderr)
    print(cost_tables_text(tables))
    return 0


def _cmd_bench(args) -> int:
    with replacing(args.csv) if args.csv else nullcontext() as out:
        with open_dataset(args.dataset) as db:
            results = run_benchmark(db, sizes=tuple(args.sizes), seed=args.seed,
                                    warmup=args.warmup)
        print(report(results, warmup=args.warmup), flush=True)  # before the CSV commits
        if out is not None:
            write_bench_csv(results, out)
    if args.csv:
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def _cmd_export(args) -> int:
    manifest = Manifest.load(Path(args.dataset) / MANIFEST_NAME)
    header = list(manifest.key_columns) + [c.name for c in manifest.measure_columns]
    with replacing(args.out) if args.out else nullcontext(sys.stdout) as out:
        writer = csv_writer(out)
        writer.writerow(header)
        writer.writerows(export_rows(args.dataset, manifest))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubestore",
        description="Store one relation as a sorted indexed table and as a "
                    "header-compressed array, and compare the two.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read a CSV file into a dataset directory")
    p.add_argument("--csv", required=True, help="input CSV file with a header row")
    p.add_argument("--keys", required=True,
                   help="comma-separated key column names, in dimension order; "
                        "quote a name that holds a comma as in CSV")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--name", default=None, help="relation name (default: file stem)")
    p.add_argument("--types", default=None,
                   help="measure type overrides, e.g. qty=int64,note=text:12")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("build", help="derive the index and/or compressed array")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--only", choices=("table", "array"), default=None,
                   help="build a single representation (default: both)")
    p.add_argument("--page-size", type=int, default=None,
                   help="B-tree page size in bytes (default 4096)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="look up one cell by its dimension values")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--at", required=True,
                   help="comma-separated dimension values, one per key column; "
                        "quote a value that holds a comma as export does")
    p.add_argument("--via", choices=("table", "array"), default="array",
                   help="representation to search (default: array)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("stats", help="sparsity figures and the size verdict")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--conjoint", type=int, default=None, metavar="H",
                   help="also fold the first H dimensions into one")
    p.add_argument("--allow-degenerate", action="store_true",
                   help="permit folding the entire key")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("cost", help="print the analytic lookup-cost tables")
    p.add_argument("--p", type=float, nargs="+", default=list(DEFAULT_P_VALUES),
                   help="values of the array-lookup cost parameter")
    p.add_argument("--r", type=int, nargs="+", default=list(DEFAULT_R_VALUES),
                   help="row counts")
    p.add_argument("--k", type=int, nargs="+", default=list(DEFAULT_K_VALUES),
                   help="dimension counts")
    p.add_argument("--t", type=int, default=DEFAULT_T,
                   help="B-tree minimal degree (default 89)")
    p.add_argument("--csv", default=None, metavar="PREFIX",
                   help="also write one CSV file per table under this prefix")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("bench", help="time point lookups on both representations")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
                   help="sample sizes, largest first")
    p.add_argument("--seed", type=int, default=1, help="sampling seed (default 1)")
    p.add_argument("--warmup", action="store_true",
                   help="run each loop once untimed before timing")
    p.add_argument("--csv", default=None, help="also write the results as CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("export", help="write the stored rows back out as CSV")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:  # stdout's reader has gone, as after `| head -1`
        null = os.open(os.devnull, os.O_WRONLY)  # so the flush at exit cannot fail again
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 141  # SIGPIPE's status, not 0: the output is cut short
    except (CubeStoreError, OSError) as exc:  # an OSError names its path, e.g. an output file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
