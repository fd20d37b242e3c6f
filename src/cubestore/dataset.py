"""Dataset directories: manifest, ingestion, builds, and open handles.

A dataset directory holds one relation under these fixed names:

  manifest.txt   line-based key=value description of the relation
  dim_<i>.dim    sorted distinct values of key dimension i (1-based)
  relation.tbl   sorted fixed-width rows (written at ingest time)
  relation.btx   B-tree index over the table (written by build)
  relation.arr   compressed array records (written by build)
  relation.hdr   header of the compressed array, a run header or a presence
                 bitmap, whichever array_store.save_header finds smaller

Only the files module opens, reads, writes or removes them; a failure
raises DatasetError or StorageError naming the file.

Ingestion reads the rows once.  That pass keeps, per key column, a map
from each distinct value to a first-seen id and each row's id in an
array('I'), and per measure column the raw text as UTF-8 bytes while it
infers the column type.  Afterwards it sorts the directories, remaps the
ids to directory indices, sorts one list of position * r + row ints,
finds duplicates among neighbours in that list, packs every record into
one bytearray and streams the rows to the table file, then writes the
manifest.  That is about 80 bytes per row for a k=3 relation with one
short measure, instead of every raw row and its encoded copy.  Building
derives the remaining representation files from the sorted table in one
pass each, so rebuilding from the same table is byte-identical.
"""

from __future__ import annotations

import csv
import re
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import compress, count, islice, repeat
from operator import add, eq, floordiv, mod, mul
from pathlib import Path
from urllib.parse import quote, unquote

from .array_store import ArrayStore, compress_stream, save_header
from .errors import (
    CapacityError,
    DatasetError,
    DuplicateKeyError,
    DuplicateRowError,
    MalformedInputError,
    ParameterError,
    RangeError,
)
from .files import clear_directory, read_utf8, write_file, writing
from .linearizer import delinearize, position_kernel
from .relation_model import (
    _I64_MAX,
    _I64_MIN,
    KIND_FLOAT,
    KIND_INT,
    KIND_TEXT,
    DimensionDirectory,
    MeasureColumn,
    RecordCodec,
    RelationSchema,
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


def _dim_paths(root: Path, k: int) -> list[Path]:
    """The dimension directory files dim_1.dim .. dim_<k>.dim of a dataset."""
    return [root / f"dim_{i}.dim" for i in range(1, k + 1)]


def _existing(path: Path, kind: str, remedy: str) -> Path:
    """path, or a DatasetError naming it when no such file exists."""
    if not path.exists():
        raise DatasetError(f"{kind} file {path} is missing; {remedy}")
    return path


@dataclass
class Manifest:
    """Everything needed to reopen a dataset, as written to manifest.txt.

    It names no file: load ignores the name lines of older manifests, and
    table_file, btree_file and header_file are the fixed names.
    """

    schema_name: str
    n: int
    k: int
    cards: tuple[int, ...]
    key_columns: tuple[str, ...]
    measure_columns: tuple[MeasureColumn, ...]  # empty for key-only relations
    r: int
    built_at: str = ""
    table_file, btree_file, header_file = TABLE_NAME, BTREE_NAME, HEADER_NAME

    def __post_init__(self):
        schema = self.schema  # validates shape
        if self.r < 0:
            raise DatasetError(f"row count {self.r} is negative")
        if self.r > schema.cell_total:
            raise DatasetError(f"{self.r} rows cannot fit {schema.cell_total} cells")
        if len(self.key_columns) != self.k:
            raise DatasetError(f"expected {self.k} key column names")
        if len(self.measure_columns) != self.n - self.k:
            raise DatasetError(f"expected {self.n - self.k} measure columns")

    @cached_property
    def schema(self) -> RelationSchema:
        """The relation's schema, built once: no field it reads is reassigned."""
        return RelationSchema(
            n=self.n, k=self.k, cards=self.cards,
            measure_widths=tuple(c.width for c in self.measure_columns),
        )

    @cached_property
    def codec(self) -> RecordCodec:
        """The record codec, built once: measure_columns is never reassigned."""
        if not self.measure_columns:
            return RecordCodec.presence()
        return RecordCodec(self.measure_columns)

    @property
    def case(self) -> str:
        return self.schema.case

    @property
    def rho(self) -> float:
        return self.r / self.schema.cell_total

    def _encoded(self) -> bytes:
        schema = self.schema
        try:
            lines = [
                f"format_version={FORMAT_VERSION}",
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
                f"row_bytes={schema.row_bytes}",
                f"record_width={schema.record_width}",
                f"delta={schema.delta!r}",
                f"rho={self.rho!r}",
                f"built_at={self.built_at}",
            ]
        except UnicodeEncodeError as exc:
            raise MalformedInputError(f"{MANIFEST_NAME}: name {exc.object!r}, character "
                                      f"{exc.start}, is not encodable as UTF-8") from None
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def load(cls, path) -> "Manifest":
        text = read_utf8(path, "manifest")
        fields = {}
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            if "=" not in line:
                raise DatasetError(f"{path}: bad manifest line {number} {line!r}")
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
            )
            if int(fields["row_bytes"]) != manifest.schema.row_bytes:
                raise DatasetError("manifest row_bytes disagrees with the schema")
            if int(fields["record_width"]) != manifest.schema.record_width:
                raise DatasetError("manifest record_width disagrees with the schema")
            if fields["case"] != manifest.case:
                raise DatasetError("manifest case label disagrees with the schema")
        except DatasetError as exc:
            raise DatasetError(f"{path}: {exc}") from None
        except (KeyError, ValueError, ParameterError, CapacityError, RangeError) as exc:
            raise DatasetError(f"{path}: bad manifest: {exc}") from None
        return manifest


class _MeasureText:
    """The raw values of one measure column, and the column types they allow.

    Values are kept as concatenated UTF-8 bytes with an end offset per
    row, about len + 8 bytes each.  Inference runs as values arrive and
    agrees with inference over the distinct values: int64 while every
    value is a decimal integer in range, else float64 while every value
    parses as a float, else text as wide as the widest value.
    """

    __slots__ = ("name", "data", "ends", "is_int", "is_float", "width")

    def __init__(self, name: str):
        self.name = name
        self.data = bytearray()
        self.ends = array("Q")
        self.is_int = True
        self.is_float = True
        self.width = 1

    def add(self, value: str) -> None:
        try:
            raw = value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedInputError(
                f"column {self.name}, data row {len(self.ends) + 1}: "
                f"character {exc.start} is not encodable as UTF-8"
            ) from None
        self.data += raw
        self.ends.append(len(self.data))
        if len(raw) > self.width:
            self.width = len(raw)
        if self.is_int:
            if _INT_RE.match(value) and _I64_MIN <= int(value) <= _I64_MAX:
                return
            self.is_int = False
        if self.is_float:
            try:
                float(value)
            except ValueError:
                self.is_float = False

    def raw(self, row: int) -> bytes:
        return bytes(self.data[self.ends[row - 1] if row else 0 : self.ends[row]])

    def values(self):
        """Every value as text, in input order."""
        start = 0
        for end in self.ends:
            yield self.data[start:end].decode("utf-8")
            start = end

    def column(self, name: str, spec: str | None) -> MeasureColumn:
        """The column a type override declares, else the inferred one."""
        if spec is None:
            kind = KIND_INT if self.is_int else KIND_FLOAT if self.is_float else KIND_TEXT
            width = ""
        else:
            kind, _, width = spec.partition(":")
        if kind in (KIND_INT, KIND_FLOAT):
            return MeasureColumn(name, kind, 8)
        if kind == KIND_TEXT:
            return MeasureColumn(name, KIND_TEXT, int(width) if width else self.width)
        raise MalformedInputError(f"unknown column type {spec!r} for {name}")


def _logical_order(remaps, row_ids, cards, r: int) -> list[int]:
    """The sort keys position * r + row of all rows, in ascending order.

    remaps[j] maps a first-seen id of key column j to its 1-based
    directory index.  sum(index * stride) over the key columns is the
    logical position plus a constant, which keeps both the order and the
    equal positions; the arithmetic runs in C-level maps.
    """
    position = None
    stride = 1
    for remap, seen, card in zip(remaps, row_ids, cards):
        term = map(mul, map(remap.__getitem__, seen), repeat(stride))
        position = term if position is None else map(add, position, term)
        stride *= card
    order = list(map(add, map(mul, position, repeat(r)), count()))
    order.sort()
    return order


def ingest_rows(column_names, rows, key_columns, out_dir,
                schema_name: str = "relation", types=None) -> Manifest:
    """Encode raw string rows into a dataset directory.

    column_names are the input column names in input order; key_columns
    (in the order given) become the key dimensions.  Remaining columns
    are measures, typed by the optional `types` mapping or inferred.
    rows may be any iterable and is read once.  Writes the directories,
    the sorted table file, and the manifest.

    Errors, first to last: a row of the wrong arity, no rows, two equal
    rows (DuplicateRowError), a bad type or value, two rows with one key
    (DuplicateKeyError).
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

    # The one pass: per key column a value -> first-seen id map and each
    # row's id; per measure column the raw text.
    arity = len(column_names)
    key_ids = [{} for _ in key_columns]
    row_ids = [array("I") for _ in key_columns]
    measures = [_MeasureText(name) for name in measure_names]
    key_fields = list(zip([positions[name] for name in key_columns], key_ids, row_ids))
    measure_fields = list(zip([column_names.index(name) for name in measure_names], measures))
    for row in rows:
        row = tuple(row)
        if len(row) != arity:
            raise MalformedInputError(
                f"data row {len(row_ids[0]) + 1} has {len(row)} fields, header has {arity}"
            )
        for pos, ids, seen in key_fields:
            seen.append(ids.setdefault(row[pos], len(ids)))
        for pos, values in measure_fields:
            values.add(row[pos])
    r = len(row_ids[0])
    if not r:
        raise MalformedInputError("the input has no data rows")

    # Sorted directories, and a remap from first-seen id to directory index.
    key_dirs = []
    remaps = []
    for ids in key_ids:
        directory = DimensionDirectory(sorted(ids))
        remap = [0] * len(ids)
        for index, value in enumerate(directory.values, start=1):
            remap[ids[value]] = index
        key_dirs.append(directory)
        remaps.append(remap)
    cards = tuple(len(d) for d in key_dirs)
    order = _logical_order(remaps, row_ids, cards, r)

    def key_of(row: int) -> tuple:
        return tuple(d.values[remap[seen[row]] - 1]
                     for d, remap, seen in zip(key_dirs, remaps, row_ids))

    # Rows that share a key are neighbours in order.
    same_key = map(eq, map(floordiv, order, repeat(r)),
                   map(floordiv, islice(order, 1, None), repeat(r)))
    shared = {}  # position -> the rows that have it, for positions held twice
    for i in compress(count(1), same_key):
        shared.setdefault(order[i] // r, [order[i - 1] % r]).append(order[i] % r)
    for rows_of_key in shared.values():
        first_of = {}
        for row in rows_of_key:
            values = tuple(m.raw(row) for m in measures)
            if values in first_of:
                raise DuplicateRowError(
                    f"data rows {first_of[values] + 1} and {row + 1} are the same row, "
                    f"key {key_of(row)}"
                )
            first_of[values] = row

    types = dict(types or {})
    unknown = set(types) - set(measure_names)
    if unknown:
        raise MalformedInputError(f"type overrides for unknown columns: {sorted(unknown)}")
    columns = [m.column(name, types.get(name)) for name, m in zip(measure_names, measures)]
    codec = RecordCodec(columns) if columns else RecordCodec.presence()
    width = codec.record_width
    records = bytearray(r * width) if columns else b"\x01" * r
    at = 0
    for col, values in zip(columns, measures):
        parse, pack = col.from_text, col.pack
        for start, value in zip(range(at, r * width, width), values.values()):
            records[start : start + col.width] = pack(parse(value))
        at += col.width
    del measures, measure_fields  # the raw text is not needed past this point
    if shared:
        rows_of_key = next(iter(shared.values()))
        raise DuplicateKeyError(
            f"data rows {rows_of_key[0] + 1} and {rows_of_key[1] + 1} share the key "
            f"{key_of(rows_of_key[0])}"
        )

    manifest = Manifest(
        schema_name=schema_name,
        n=len(column_names),
        k=len(key_columns),
        cards=cards,
        key_columns=tuple(key_columns),
        measure_columns=tuple(columns),
        r=r,
    )
    fields = list(zip(remaps, row_ids))
    cells = (
        (tuple([remap[seen[row]] for remap, seen in fields]),
         records[row * width : row * width + width])
        for row in map(mod, order, repeat(r))
    )
    return _write_dataset(out_dir, manifest, key_dirs, cells)


def _write_dataset(out_dir, manifest: Manifest, key_dirs, cells) -> Manifest:
    """Write the directories, the table of cells (logical order) and the manifest.

    Encodes the directories and manifest first: text with no UTF-8
    encoding changes no file.  Then removes an earlier build's index,
    array and header, so they cannot answer for the new table; the next
    query asks for a build.  Stamps the manifest with the current time.
    """
    out = Path(out_dir)
    manifest.built_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    dim_paths = _dim_paths(out, manifest.k)
    dims = [directory._encoded(path) for directory, path in zip(key_dirs, dim_paths)]
    text = manifest._encoded()
    clear_directory(out, (BTREE_NAME, ARRAY_NAME, HEADER_NAME))
    for path, raw in zip(dim_paths, dims):
        write_file(path, raw)
    with writing(out / TABLE_NAME) as f:
        write_table(cells, f, manifest.cards, manifest.schema.record_width)
    write_file(out / MANIFEST_NAME, text)
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
            header = next(reader, None)
            if header is None:
                raise MalformedInputError(f"{path} is empty")
            return ingest_rows(header, reader, key_columns, out_dir, schema_name, types)
    except csv.Error as exc:
        raise MalformedInputError(f"{path}, line {reader.line_num}: {exc}") from None
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path} is not UTF-8: {exc}") from None


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
    stored = stored_cells(root, manifest)
    if which in ("both", "table"):
        build_index_from_table(root / TABLE_NAME, root / BTREE_NAME,
                               manifest.k, schema.record_width, page_size)
    if which in ("both", "array"):
        position_of = position_kernel(manifest.cards)
        cells = ((position_of(indices), record) for indices, record in stored)
        with writing(root / ARRAY_NAME) as f:
            header = compress_stream(cells, schema.cell_total, schema.record_width, f)
        save_header(header, root / HEADER_NAME)
    return size_report(root)


def size_report(dataset_dir) -> dict:
    """Byte counts of every dataset file kind, None where not built."""
    root = Path(dataset_dir)
    manifest = Manifest.load(root / MANIFEST_NAME)

    def size_of(path):
        return path.stat().st_size if path.exists() else None

    dims = [size for size in map(size_of, _dim_paths(root, manifest.k)) if size is not None]
    return {
        "dimensions": manifest.k,
        "rows": manifest.r,
        "table": size_of(root / TABLE_NAME),
        "btree": size_of(root / BTREE_NAME),
        "array": size_of(root / ARRAY_NAME),
        "header": size_of(root / HEADER_NAME),
        "dimension_values": sum(dims) if dims else None,
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
            self._dirs = _load_directories(self.root, self.manifest)
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


def _load_directories(root: Path, manifest: Manifest) -> list[DimensionDirectory]:
    """Read the dimension directories and check their sizes against the manifest."""
    dirs = []
    for path, card in zip(_dim_paths(root, manifest.k), manifest.cards):
        try:
            directory = DimensionDirectory.load(path)
        except MalformedInputError as exc:
            raise DatasetError(f"cannot read dimension directory {path}: {exc}") from None
        if len(directory) != card:
            raise DatasetError(
                f"{path}: dimension directory holds {len(directory)} "
                f"values, manifest says {card}"
            )
        dirs.append(directory)
    return dirs


def open_dataset(dataset_dir, need=("table", "array")) -> Dataset:
    """Open the stores need names ("table", "array"), checked against the manifest."""
    if set(need) - {"table", "array"}:
        raise DatasetError(f"need names the stores 'table' and 'array' only, not {need!r}")
    root = Path(dataset_dir)
    manifest = Manifest.load(root / MANIFEST_NAME)
    schema = manifest.schema
    table = None
    array = None
    try:
        if "table" in need:
            tbl = _existing(root / TABLE_NAME, "table", "ingest first")
            btx = _existing(root / BTREE_NAME, "index", "run build")
            table = TableStore.open(tbl, manifest.cards, schema.record_width, btx)
            if table.row_count != manifest.r:
                raise DatasetError(
                    f"{tbl}: table holds {table.row_count} rows, manifest says {manifest.r}"
                )
        if "array" in need:
            arr = _existing(root / ARRAY_NAME, "array", "run build")
            hdr = _existing(root / HEADER_NAME, "header", "run build")
            array = ArrayStore.open(arr, hdr, manifest.cards, schema.record_width)
            if array.record_count != manifest.r:
                raise DatasetError(f"{hdr}: array holds {array.record_count} records, "
                                   f"manifest says {manifest.r}")
    except Exception:
        Dataset(root, manifest, table, array).close()
        raise
    return Dataset(root, manifest, table, array)


def stored_cells(root: Path, manifest: Manifest):
    """Stream the table's cells; whole rows but not manifest.r of them raise DatasetError.

    That check runs at the call; a partial row raises StorageError as it streams.
    """
    tbl = _existing(root / TABLE_NAME, "table", "ingest first")
    rows, partial = divmod(tbl.stat().st_size, manifest.schema.row_bytes)
    if rows != manifest.r and not partial:
        raise DatasetError(f"{tbl}: table holds {rows} rows, manifest says {manifest.r}")
    return iter_table_cells(tbl, manifest.k, manifest.schema.record_width)


def export_rows(dataset_dir):
    """Reconstruct the ingested rows (key values first, canonical measures).

    Yields tuples of strings in key-columns-then-measures order; row order
    is the stored (logical) order.
    """
    root = Path(dataset_dir)
    manifest = Manifest.load(root / MANIFEST_NAME)
    dirs = _load_directories(root, manifest)
    codec = manifest.codec
    for indices, record in stored_cells(root, manifest):
        values = tuple(d.value_of(i) for d, i in zip(dirs, indices))
        if codec.is_presence:
            yield values
        else:
            yield values + tuple(
                col.canonical(v) for col, v in zip(codec.columns, codec.unpack(record))
            )


def materialize_synthetic(synth, out_dir, schema_name: str = "synthetic") -> Manifest:
    """Write a generated relation as a dataset directory (dims, table, manifest)."""
    schema = synth.schema
    manifest = Manifest(
        schema_name=schema_name,
        n=schema.n,
        k=schema.k,
        cards=schema.cards,
        key_columns=tuple(f"d{i + 1}" for i in range(schema.k)),
        measure_columns=() if synth.codec.is_presence else synth.codec.columns,
        r=synth.r,
    )
    return _write_dataset(
        out_dir, manifest, [DimensionDirectory(values) for values in synth.dimension_values],
        ((delinearize(pos, schema.cards), record) for pos, record in synth.cells),
    )
