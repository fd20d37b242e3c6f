"""Dataset directories: manifest, ingestion, builds, and open handles.

A dataset directory holds one relation in up to five file kinds:

  manifest.txt   line-based key=value description of the relation
  dim_<i>.dim    sorted distinct values of key dimension i (1-based)
  relation.tbl   sorted fixed-width rows (written at ingest time)
  relation.btx   B-tree index over the table (written by build)
  relation.arr   compressed array records (written by build)
  relation.hdr   run header of the compressed array (written by build)

Ingestion computes the active domains, dictionary-encodes the rows,
sorts them by logical position, and writes the directories, the table
file, and the manifest.  Building derives the remaining representation
files from the sorted table in one pass each, so rebuilding from the
same table is byte-identical.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from urllib.parse import quote, unquote

from .array_store import ArrayStore, compress_stream
from .errors import (
    DatasetError,
    DuplicateKeyError,
    MalformedInputError,
)
from .linearizer import cell_count, linearize
from .relation_model import (
    KIND_FLOAT,
    KIND_INT,
    KIND_TEXT,
    DimensionDirectory,
    MeasureColumn,
    RecordCodec,
    RelationSchema,
    compute_active_domains,
    encode_row,
)
from .table_store import (
    TableStore,
    build_index_from_table,
    iter_table_cells,
    write_table,
)

MANIFEST_NAME = "manifest.txt"
TABLE_NAME = "relation.tbl"
BTREE_NAME = "relation.btx"
ARRAY_NAME = "relation.arr"
HEADER_NAME = "relation.hdr"
FORMAT_VERSION = 1

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


@dataclass
class Manifest:
    """Everything needed to reopen a dataset, as written to manifest.txt."""

    schema_name: str
    n: int
    k: int
    cards: tuple[int, ...]
    key_columns: tuple[str, ...]
    measure_columns: tuple[MeasureColumn, ...]  # empty for key-only relations
    r: int
    built_at: str = ""
    format_version: int = FORMAT_VERSION
    dim_files: tuple[str, ...] = field(default=())
    table_file: str = TABLE_NAME
    btree_file: str = BTREE_NAME
    array_file: str = ARRAY_NAME
    header_file: str = HEADER_NAME

    def __post_init__(self):
        if not self.dim_files:
            self.dim_files = tuple(f"dim_{i}.dim" for i in range(1, self.k + 1))
        schema = self.schema  # validates shape
        if self.r > schema.cell_total:
            raise DatasetError(f"{self.r} rows cannot fit {schema.cell_total} cells")
        if len(self.key_columns) != self.k:
            raise DatasetError(f"expected {self.k} key column names")
        if len(self.measure_columns) != self.n - self.k:
            raise DatasetError(f"expected {self.n - self.k} measure columns")

    @property
    def schema(self) -> RelationSchema:
        return RelationSchema(
            n=self.n, k=self.k, cards=self.cards,
            measure_widths=tuple(c.width for c in self.measure_columns),
        )

    @property
    def codec(self) -> RecordCodec:
        if not self.measure_columns:
            return RecordCodec.presence()
        return RecordCodec(self.measure_columns)

    @property
    def case(self) -> str:
        return self.schema.case

    @property
    def delta(self) -> float:
        return self.schema.delta

    @property
    def rho(self) -> float:
        return self.r / self.schema.cell_total

    def save(self, path) -> None:
        lines = [
            f"format_version={self.format_version}",
            f"schema_name={quote(self.schema_name, safe='')}",
            f"n={self.n}",
            f"k={self.k}",
            f"case={self.case}",
            "cards=" + ",".join(str(c) for c in self.cards),
            "key_columns=" + ",".join(quote(c, safe="") for c in self.key_columns),
            "measure_columns=" + ",".join(
                f"{quote(c.name, safe='')}:{c.kind}:{c.width}" for c in self.measure_columns
            ),
            f"r={self.r}",
            f"row_bytes={self.schema.row_bytes}",
            f"record_width={self.schema.record_width}",
            f"delta={self.delta!r}",
            f"rho={self.rho!r}",
            "dim_files=" + ",".join(self.dim_files),
            f"table_file={self.table_file}",
            f"btree_file={self.btree_file}",
            f"array_file={self.array_file}",
            f"header_file={self.header_file}",
            f"built_at={self.built_at}",
        ]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Manifest":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise DatasetError(f"cannot read manifest: {exc}") from None
        fields = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            if "=" not in line:
                raise DatasetError(f"bad manifest line {line!r}")
            key, _, value = line.partition("=")
            fields[key] = value
        try:
            version = int(fields["format_version"])
            if version != FORMAT_VERSION:
                raise DatasetError(f"unsupported manifest version {version}")
            columns = []
            if fields["measure_columns"]:
                for item in fields["measure_columns"].split(","):
                    name, kind, width = item.rsplit(":", 2)
                    columns.append(MeasureColumn(unquote(name), kind, int(width)))
            manifest = cls(
                schema_name=unquote(fields["schema_name"]),
                n=int(fields["n"]),
                k=int(fields["k"]),
                cards=tuple(int(c) for c in fields["cards"].split(",")),
                key_columns=tuple(unquote(c) for c in fields["key_columns"].split(",")),
                measure_columns=tuple(columns),
                r=int(fields["r"]),
                built_at=fields.get("built_at", ""),
                dim_files=tuple(fields["dim_files"].split(",")),
                table_file=fields["table_file"],
                btree_file=fields["btree_file"],
                array_file=fields["array_file"],
                header_file=fields["header_file"],
            )
        except DatasetError:
            raise
        except (KeyError, ValueError) as exc:
            raise DatasetError(f"bad manifest: {exc}") from None
        if int(fields["row_bytes"]) != manifest.schema.row_bytes:
            raise DatasetError("manifest row_bytes disagrees with the schema")
        if int(fields["record_width"]) != manifest.schema.record_width:
            raise DatasetError("manifest record_width disagrees with the schema")
        if fields["case"] != manifest.case:
            raise DatasetError("manifest case label disagrees with the schema")
        return manifest


def _infer_column(name: str, values) -> MeasureColumn:
    """Pick int64, float64, or text for a column from its distinct values."""
    as_int = all(
        _INT_RE.match(v) and _I64_MIN <= int(v) <= _I64_MAX for v in values
    )
    if as_int and values:
        return MeasureColumn(name, KIND_INT, 8)
    if values:
        try:
            for v in values:
                float(v)
            return MeasureColumn(name, KIND_FLOAT, 8)
        except ValueError:
            pass
    width = max((len(v.encode("utf-8")) for v in values), default=1)
    return MeasureColumn(name, KIND_TEXT, max(width, 1))


def _declared_column(name: str, spec: str, values) -> MeasureColumn:
    kind, _, width = spec.partition(":")
    if kind == KIND_INT:
        return MeasureColumn(name, KIND_INT, 8)
    if kind == KIND_FLOAT:
        return MeasureColumn(name, KIND_FLOAT, 8)
    if kind == KIND_TEXT:
        if width:
            return MeasureColumn(name, KIND_TEXT, int(width))
        inferred = max((len(v.encode("utf-8")) for v in values), default=1)
        return MeasureColumn(name, KIND_TEXT, max(inferred, 1))
    raise MalformedInputError(f"unknown column type {spec!r} for {name}")


def ingest_rows(column_names, rows, key_columns, out_dir,
                schema_name: str = "relation", types=None) -> Manifest:
    """Encode raw string rows into a dataset directory.

    column_names are the input column names in input order; key_columns
    (in the order given) become the key dimensions.  Remaining columns
    are measures, typed by the optional `types` mapping or inferred.
    Writes the directories, the sorted table file, and the manifest.
    """
    column_names = list(column_names)
    if len(set(column_names)) != len(column_names):
        raise MalformedInputError("duplicate column names in the input")
    key_columns = list(key_columns)
    if not key_columns:
        raise MalformedInputError("at least one key column is required")
    positions = {}
    for name in key_columns:
        if name not in column_names:
            raise MalformedInputError(f"key column {name!r} is not in the input")
        if name in positions:
            raise MalformedInputError(f"key column {name!r} given twice")
        positions[name] = column_names.index(name)
    measure_names = [c for c in column_names if c not in positions]
    order = [positions[name] for name in key_columns]
    order += [column_names.index(name) for name in measure_names]

    reordered = []
    arity = len(column_names)
    for row in rows:
        row = tuple(row)
        if len(row) != arity:
            raise MalformedInputError(
                f"row has {len(row)} fields, header has {arity}"
            )
        reordered.append(tuple(row[i] for i in order))
    if not reordered:
        raise MalformedInputError("the input has no data rows")

    domains = compute_active_domains(reordered)
    k = len(key_columns)
    key_dirs = domains[:k]
    cards = tuple(len(d) for d in key_dirs)

    types = dict(types or {})
    unknown = set(types) - set(measure_names)
    if unknown:
        raise MalformedInputError(f"type overrides for unknown columns: {sorted(unknown)}")
    columns = []
    for name, domain in zip(measure_names, domains[k:]):
        if name in types:
            columns.append(_declared_column(name, types[name], domain.values))
        else:
            columns.append(_infer_column(name, domain.values))

    codec = RecordCodec(columns) if columns else RecordCodec.presence()
    encoded = []
    for row in reordered:
        indices, measures = encode_row(row, key_dirs)
        if columns:
            measures = tuple(
                col.from_text(v) for col, v in zip(columns, measures)
            )
        encoded.append((linearize(indices, cards), indices, codec.pack(measures)))
    encoded.sort(key=lambda cell: cell[0])
    for a, b in zip(encoded, encoded[1:]):
        if a[0] == b[0]:
            raise DuplicateKeyError(f"two rows share the key {a[1]}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(
        schema_name=schema_name,
        n=len(column_names),
        k=k,
        cards=cards,
        key_columns=tuple(key_columns),
        measure_columns=tuple(columns),
        r=len(encoded),
        built_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    for directory, name in zip(key_dirs, manifest.dim_files):
        directory.save(out / name)
    with open(out / manifest.table_file, "wb") as f:
        write_table(
            ((indices, record) for _, indices, record in encoded),
            f, cards, codec.record_width,
        )
    manifest.save(out / MANIFEST_NAME)
    return manifest


def ingest_csv(csv_path, key_columns, out_dir,
               schema_name: str | None = None, types=None) -> Manifest:
    """Ingest an RFC-4180 CSV file whose first row names the columns."""
    path = Path(csv_path)
    if schema_name is None:
        schema_name = path.stem
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            try:
                header = next(reader)
            except StopIteration:
                raise MalformedInputError(f"{path} is empty") from None
            rows = list(reader)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path} is not UTF-8: {exc}") from None
    return ingest_rows(header, rows, key_columns, out_dir, schema_name, types)


def build_dataset(dataset_dir, which: str = "both",
                  page_size: int | None = None) -> dict:
    """Build the table index and/or the compressed array from the table file.

    Returns the size report mapping.  The build reads only the sorted
    table, so repeating it yields byte-identical files.
    """
    if which not in ("both", "table", "array"):
        raise DatasetError(f"unknown build target {which!r}")
    root = Path(dataset_dir)
    manifest = Manifest.load(root / MANIFEST_NAME)
    schema = manifest.schema
    tbl = root / manifest.table_file
    if not tbl.exists():
        raise DatasetError(f"table file {tbl} is missing; ingest first")
    if which in ("both", "table"):
        build_index_from_table(tbl, root / manifest.btree_file,
                               manifest.k, schema.record_width, page_size)
    if which in ("both", "array"):
        total = schema.cell_total
        cards = manifest.cards
        cells = (
            (linearize(indices, cards), record)
            for indices, record in iter_table_cells(tbl, manifest.k, schema.record_width)
        )
        with open(root / manifest.array_file, "wb") as f:
            header = compress_stream(cells, total, schema.record_width, f)
        header.save(root / manifest.header_file)
    return size_report(root)


def size_report(dataset_dir) -> dict:
    """Byte counts of every dataset file kind, None where not built."""
    root = Path(dataset_dir)
    manifest = Manifest.load(root / MANIFEST_NAME)

    def size_of(name):
        path = root / name
        return path.stat().st_size if path.exists() else None

    dims = [size_of(name) for name in manifest.dim_files]
    dim_total = sum(s for s in dims if s is not None) if any(
        s is not None for s in dims
    ) else None
    return {
        "dimensions": manifest.k,
        "rows": manifest.r,
        "table": size_of(manifest.table_file),
        "btree": size_of(manifest.btree_file),
        "array": size_of(manifest.array_file),
        "header": size_of(manifest.header_file),
        "dimension_values": dim_total,
    }


def format_size_report(report: dict) -> str:
    def fmt(value):
        return f"{value:,} bytes" if value is not None else "(not built)"

    table_parts = [report["table"], report["btree"]]
    array_parts = [report["array"], report["header"], report["dimension_values"]]

    def total(parts):
        known = [p for p in parts if p is not None]
        return sum(known) if known else None

    lines = [
        f"{'number of dimensions':34}{report['dimensions']:>14,}",
        f"{'rows stored':34}{report['rows']:>14,}",
        f"{'table representation':34}{fmt(total(table_parts)):>20}",
        f"  {'Table':32}{fmt(report['table']):>20}",
        f"  {'B-tree index':32}{fmt(report['btree']):>20}",
        f"{'array representation':34}{fmt(total(array_parts)):>20}",
        f"  {'Compressed array':32}{fmt(report['array']):>20}",
        f"  {'Header':32}{fmt(report['header']):>20}",
        f"  {'Dimension values':32}{fmt(report['dimension_values']):>20}",
    ]
    return "\n".join(lines)


class Dataset:
    """Open handle over a dataset directory's stores."""

    def __init__(self, root, manifest: Manifest,
                 table: TableStore | None, array: ArrayStore | None):
        self.root = Path(root)
        self.manifest = manifest
        self.table = table
        self.array = array
        self._dirs: list[DimensionDirectory] | None = None

    @property
    def cards(self) -> tuple[int, ...]:
        return self.manifest.cards

    @property
    def r(self) -> int:
        return self.manifest.r

    @property
    def codec(self) -> RecordCodec:
        return self.manifest.codec

    def dimension_directories(self) -> list[DimensionDirectory]:
        if self._dirs is None:
            self._dirs = [
                DimensionDirectory.load(self.root / name)
                for name in self.manifest.dim_files
            ]
            for directory, card in zip(self._dirs, self.manifest.cards):
                if len(directory) != card:
                    raise DatasetError("dimension directory size disagrees with manifest")
        return self._dirs

    def close(self) -> None:
        if self.table:
            self.table.close()
        if self.array:
            self.array.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def open_dataset(dataset_dir, need=("table", "array")) -> Dataset:
    """Open the stores of a built dataset; missing files raise DatasetError."""
    root = Path(dataset_dir)
    manifest = Manifest.load(root / MANIFEST_NAME)
    schema = manifest.schema
    table = None
    array = None
    try:
        if "table" in need:
            tbl = root / manifest.table_file
            btx = root / manifest.btree_file
            if not tbl.exists():
                raise DatasetError(f"table file {tbl} is missing; ingest first")
            if not btx.exists():
                raise DatasetError(f"index file {btx} is missing; run build")
            table = TableStore.open(tbl, manifest.cards, schema.record_width, btx)
            if table.row_count != manifest.r:
                raise DatasetError(
                    f"table holds {table.row_count} rows, manifest says {manifest.r}"
                )
        if "array" in need:
            arr = root / manifest.array_file
            hdr = root / manifest.header_file
            if not arr.exists() or not hdr.exists():
                raise DatasetError("array files are missing; run build")
            array = ArrayStore.open(arr, hdr, manifest.cards, schema.record_width)
            if array.record_count != manifest.r:
                raise DatasetError(
                    f"array holds {array.record_count} records, manifest says {manifest.r}"
                )
    except Exception:
        if table:
            table.close()
        if array:
            array.close()
        raise
    return Dataset(root, manifest, table, array)


def export_rows(dataset_dir):
    """Reconstruct the ingested rows (key values first, canonical measures).

    Yields tuples of strings in key-columns-then-measures order; row order
    is the stored (logical) order.
    """
    root = Path(dataset_dir)
    manifest = Manifest.load(root / MANIFEST_NAME)
    schema = manifest.schema
    dirs = [DimensionDirectory.load(root / name) for name in manifest.dim_files]
    codec = manifest.codec
    for indices, record in iter_table_cells(
        root / manifest.table_file, manifest.k, schema.record_width
    ):
        values = tuple(d.value_of(i) for d, i in zip(dirs, indices))
        if codec.is_presence:
            yield values
        else:
            yield values + tuple(
                col.canonical(v) for col, v in zip(codec.columns, codec.unpack(record))
            )


def materialize_synthetic(synth, out_dir, schema_name: str = "synthetic") -> Manifest:
    """Write a generated relation as a dataset directory (dims, table, manifest)."""
    from .linearizer import delinearize

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    schema = synth.schema
    columns = () if synth.codec.is_presence else synth.codec.columns
    manifest = Manifest(
        schema_name=schema_name,
        n=schema.n,
        k=schema.k,
        cards=schema.cards,
        key_columns=tuple(f"d{i + 1}" for i in range(schema.k)),
        measure_columns=columns,
        r=synth.r,
        built_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    for values, name in zip(synth.dimension_values, manifest.dim_files):
        DimensionDirectory(values).save(out / name)
    with open(out / manifest.table_file, "wb") as f:
        write_table(
            ((delinearize(pos, schema.cards), record) for pos, record in synth.cells),
            f, schema.cards, schema.record_width,
        )
    manifest.save(out / MANIFEST_NAME)
    return manifest
