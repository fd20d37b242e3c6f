"""Dataset directories: manifest, ingestion, builds, and open handles.

A dataset directory holds one relation under these fixed names:

  manifest.txt   line-based key=value description of the relation
  dim_<i>.dim    sorted distinct values of key dimension i (1-based)
  relation.tbl   sorted fixed-width rows (written at ingest time)
  relation.btx   B-tree index over the table (written by build)
  relation.arr   compressed array records (written by build)
  relation.hdr   header of the compressed array: an index of the box's
                 nonempty pages, each stored as full, a bitmap or an offset list

Only the files module opens, sizes, reads, writes or removes them; a
failure raises DatasetError or StorageError naming the file.

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
import os
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import compress, count, islice, repeat
from operator import add, attrgetter, eq, floordiv, mod, mul
from pathlib import Path
from urllib.parse import quote, unquote

from .array_store import ArrayStore, compress_stream
from .errors import (
    CapacityError,
    DatasetError,
    DuplicateKeyError,
    DuplicateRowError,
    MalformedInputError,
    ParameterError,
    RangeError,
    StorageError,
)
from .files import clear_directory, read_utf8, replace_file, size_of, write_file, writing
from .linearizer import delinearize, position_kernel
from .relation_model import (
    KIND_FLOAT,
    KIND_INT,
    KIND_TEXT,
    DimensionDirectory,
    MeasureColumn,
    RecordCodec,
    RelationSchema,
    parse_number,
)
from .table_store import (
    DEFAULT_PAGE_SIZE,
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


def _dim_paths(root: Path, k: int) -> list[Path]:
    """The dimension directory files dim_1.dim .. dim_<k>.dim of a dataset."""
    return [root / f"dim_{i}.dim" for i in range(1, k + 1)]


def _child(root: str, name: str) -> str:
    """str(Path(root) / name) for a root that Path has normalised, without building a Path."""
    return name if root == "." else os.path.join(root, name)


def _existing(path: str | Path, kind: str, remedy: str) -> str | Path:
    """path, or a DatasetError naming it when no such file exists."""
    if size_of(path) is None:
        raise DatasetError(f"{kind} file {path} is missing; {remedy}") from None
    return path


def _integer(field: str, text: str) -> int:
    """text, from the manifest field, as an int64 of the number grammar; else ValueError."""
    value = parse_number(text)
    if type(value) is not int:
        raise ValueError(f"{field} {text!r} is not an int64 integer")
    return value


@dataclass
class Manifest:
    """Everything needed to reopen a dataset, as written to manifest.txt.

    The relation's shape is its schema alone; the n, k, case, row_bytes,
    record_width and delta lines are written from it, and rho from it and
    r, and load refuses a file whose lines disagree with the schema its
    cards and measure columns give, or with that r; delta and rho must be
    spelt as repr spells them.  It names no file: load ignores the name lines of older
    manifests, and table_file, btree_file and header_file are the fixed
    names.
    """

    schema_name: str
    key_columns: tuple[str, ...]
    schema: RelationSchema
    r: int
    built_at: str = ""
    table_file, btree_file, header_file = TABLE_NAME, BTREE_NAME, HEADER_NAME

    def __post_init__(self):
        if self.r < 0:
            raise DatasetError(f"row count {self.r} is negative")
        if self.r > self.schema.cell_total:
            raise DatasetError(f"{self.r} rows cannot fit {self.schema.cell_total} cells")
        if len(self.key_columns) != self.schema.k:
            raise DatasetError(f"expected {self.schema.k} key column names, "
                               f"got {len(self.key_columns)}")

    # cards and measure_columns are the schema's, under the names that
    # perfbench reads
    @property
    def cards(self) -> tuple[int, ...]:
        return self.schema.cards

    @property
    def measure_columns(self) -> tuple[MeasureColumn, ...]:
        return self.schema.columns

    @property
    def rho(self) -> float:
        return self.r / self.schema.cell_total

    def _encoded(self) -> bytes:
        schema = self.schema
        try:
            lines = [
                f"format_version={FORMAT_VERSION}",
                f"schema_name={quote(self.schema_name, safe='')}",
                f"n={schema.n}",
                f"k={schema.k}",
                f"case={schema.case}",
                "cards=" + ",".join(str(c) for c in schema.cards),
                "key_columns=" + ",".join(quote(c, safe="") for c in self.key_columns),
                "measure_columns=" + ",".join(
                    f"{quote(c.name, safe='')}:{c.kind}:{c.width}" for c in schema.columns
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
        fields, numbers = {}, {}
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            if "=" not in line:
                raise DatasetError(f"{path}: bad manifest line {number} {line!r}")
            key, _, value = line.partition("=")
            if key in fields:
                raise DatasetError(f"{path}: manifest key {key!r} is on lines "
                                   f"{numbers[key]} and {number}")
            fields[key], numbers[key] = value, number
        try:
            version = _integer("format_version", fields["format_version"])
            if version != FORMAT_VERSION:
                raise DatasetError(f"unsupported manifest version {version}")
            columns = []
            if fields["measure_columns"]:
                for item in fields["measure_columns"].split(","):
                    name, kind, width = item.rsplit(":", 2)
                    columns.append(MeasureColumn(unquote(name), kind,
                                                 _integer("measure_columns", width)))
            schema = RelationSchema(
                tuple(_integer("cards", c) for c in fields["cards"].split(",")), tuple(columns)
            )
            for field, derived in (("n", schema.n), ("k", schema.k), ("case", schema.case),
                                   ("row_bytes", schema.row_bytes),
                                   ("record_width", schema.record_width)):
                stated = fields[field]
                if (stated if field == "case" else _integer(field, stated)) != derived:
                    raise DatasetError(f"manifest {field} is {stated}, but its cards and "
                                       f"measure columns give {derived}")
            manifest = cls(
                schema_name=unquote(fields["schema_name"]),
                key_columns=tuple(unquote(c) for c in fields["key_columns"].split(",")),
                schema=schema,
                r=_integer("r", fields["r"]),
                built_at=fields.get("built_at", ""),
            )
            for field, derived in (("delta", schema.delta), ("rho", manifest.rho)):
                if fields[field] != repr(derived):
                    raise DatasetError(f"manifest {field} is {fields[field]}, but its cards, "
                                       f"measure columns and r give {derived!r}")
        except DatasetError as exc:
            raise DatasetError(f"{path}: {exc}") from None
        except (KeyError, ValueError, ParameterError, CapacityError, RangeError) as exc:
            raise DatasetError(f"{path}: bad manifest: {exc}") from None
        return manifest


class _MeasureText:
    """The raw values of one measure column, and the column types they allow.

    Values are kept as concatenated UTF-8 bytes with an end offset per
    row, about len + 8 bytes each.  Inference runs as values arrive and
    agrees with inference over the distinct values: int64 while
    parse_number reads every value as an int, else float64 while it reads
    every value as a number, else text as wide as the widest value.
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
        if self.is_float:
            number = parse_number(value)
            self.is_float = number is not None
            self.is_int = self.is_int and type(number) is int

    def raw(self, row: int) -> bytes:
        return bytes(self.data[self.ends[row - 1] if row else 0 : self.ends[row]])

    def values(self):
        """Every value as text, in input order."""
        start = 0
        for end in self.ends:
            yield self.data[start:end].decode("utf-8")
            start = end

    def column(self, name: str, spec: str | None) -> MeasureColumn:
        """The column a type override declares, else the inferred one.

        Only text takes a width, text:N, and N is an int of parse_number above 0.
        """
        if spec is None:
            spec = KIND_INT if self.is_int else KIND_FLOAT if self.is_float else KIND_TEXT
        kind, colon, width = spec.partition(":")
        if kind not in (KIND_INT, KIND_FLOAT, KIND_TEXT):
            raise MalformedInputError(f"unknown column type {spec!r} for {name}")
        width = parse_number(width) if colon else self.width
        if colon and (kind != KIND_TEXT or type(width) is not int or width < 1):
            raise MalformedInputError(f"bad column type {spec!r} for {name}: only text "
                                      "takes a width, and it is a positive integer")
        return MeasureColumn(name, kind, width if kind == KIND_TEXT else 8)


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
    columns = tuple(m.column(name, types.get(name)) for name, m in zip(measure_names, measures))
    schema = RelationSchema(cards, columns)
    width = schema.record_width
    try:
        records = bytearray(r * width) if columns else schema.codec.pack(()) * r
    except (MemoryError, OverflowError):  # a declared text width can be any int64
        widest = max(columns, key=attrgetter("width"))
        raise CapacityError(
            f"column {widest.name}: text width {widest.width} at r = {r} needs "
            f"{r * width:,} record bytes, more than can be allocated") from None
    at = 0
    for col, values in zip(columns, measures):
        parse, pack = col.from_text, col.pack
        try:
            for start, value in zip(range(at, r * width, width), values.values()):
                records[start : start + col.width] = pack(parse(value))
        except MalformedInputError as exc:  # it begins "column <name>: "
            where = f"column {col.name}"
            raise MalformedInputError(f"{where}, data row {start // width + 1}"
                                      f"{str(exc).removeprefix(where)}") from None
        at += col.width
    del measures, measure_fields  # the raw text is not needed past this point
    if shared:
        rows_of_key = next(iter(shared.values()))
        raise DuplicateKeyError(
            f"data rows {rows_of_key[0] + 1} and {rows_of_key[1] + 1} share the key "
            f"{key_of(rows_of_key[0])}"
        )

    manifest = Manifest(schema_name, tuple(key_columns), schema, r)
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
    encoding changes no file.  Then removes the manifest and an earlier
    build's index, array and header, and writes the manifest last and
    whole, under a temporary name renamed over it, so build and open
    refuse an ingest that failed part-way (there is no manifest) rather
    than answer a mix of two relations.  Stamps the manifest with the time.
    """
    out = Path(out_dir)
    manifest.built_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    schema = manifest.schema
    dim_paths = _dim_paths(out, schema.k)
    dims = [directory._encoded(path) for directory, path in zip(key_dirs, dim_paths)]
    text = manifest._encoded()
    clear_directory(out, (MANIFEST_NAME, BTREE_NAME, ARRAY_NAME, HEADER_NAME))
    for path, raw in zip(dim_paths, dims):
        write_file(path, raw)
    with writing(out / TABLE_NAME) as f:
        write_table(cells, f, schema.cards, schema.record_width)
    replace_file(out / MANIFEST_NAME, text)
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
                  page_size: int = DEFAULT_PAGE_SIZE) -> dict:
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
                               schema.k, schema.record_width, page_size)
    if which in ("both", "array"):
        position_of = position_kernel(schema.cards)
        cells = ((position_of(indices), record) for indices, record in stored)
        with writing(root / ARRAY_NAME) as f:
            header = compress_stream(cells, schema.cell_total, schema.record_width, f)
        header.save(root / HEADER_NAME)
    return size_report(root)


def size_report(dataset_dir) -> dict:
    """Byte counts of every dataset file kind, None where not built; a missing .dim raises."""
    root = Path(dataset_dir)
    manifest = Manifest.load(root / MANIFEST_NAME)
    dims = [size_of(_existing(path, "dimension", "ingest again"))
            for path in _dim_paths(root, manifest.schema.k)]
    return {
        "dimensions": manifest.schema.k,
        "rows": manifest.r,
        "table": size_of(root / TABLE_NAME),
        "btree": size_of(root / BTREE_NAME),
        "array": size_of(root / ARRAY_NAME),
        "header": size_of(root / HEADER_NAME),
        "dimension_values": sum(dims),
    }


def format_size_report(report: dict) -> str:
    def fmt(value):
        return f"{value:,} bytes" if value is not None else "(not built)"

    table_parts = [report["table"], report["btree"]]
    array_parts = [report["array"], report["header"], report["dimension_values"]]

    def total(parts):  # a representation with a part not built has no total
        return None if None in parts else sum(parts)

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
    def codec(self) -> RecordCodec:
        return self.manifest.schema.codec

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
    schema = manifest.schema
    for path, card in zip(_dim_paths(root, schema.k), schema.cards):
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
    """Open the stores need names ("table", "array"), checked against the manifest.

    A store is opened without a stat.  Only when its open raises
    StorageError are its two files sized, in order, so that a missing
    one raises DatasetError naming it; otherwise that error stands.
    """
    if set(need) - {"table", "array"}:
        raise DatasetError(f"need names the stores 'table' and 'array' only, not {need!r}")
    root = Path(dataset_dir)
    base = str(root)  # the store paths are strings: a Path costs more than the read
    manifest = Manifest.load(_child(base, MANIFEST_NAME))
    schema = manifest.schema
    table = None
    array = None
    try:
        if "table" in need:
            tbl, btx = _child(base, TABLE_NAME), _child(base, BTREE_NAME)
            try:
                table = TableStore.open(tbl, schema.cards, schema.record_width, btx)
            except StorageError:  # a missing file is named as such
                _existing(tbl, "table", "ingest first")
                _existing(btx, "index", "run build")
                raise
            if table.row_count != manifest.r:
                raise DatasetError(
                    f"{tbl}: table holds {table.row_count} rows, manifest says {manifest.r}"
                )
        if "array" in need:
            arr, hdr = _child(base, ARRAY_NAME), _child(base, HEADER_NAME)
            try:
                array = ArrayStore.open(arr, hdr, schema.cards, schema.record_width)
            except StorageError:
                _existing(arr, "array", "run build")
                _existing(hdr, "header", "run build")
                raise
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
    schema = manifest.schema
    rows, partial = divmod(size_of(tbl), schema.row_bytes)
    if rows != manifest.r and not partial:
        raise DatasetError(f"{tbl}: table holds {rows} rows, manifest says {manifest.r}")
    return iter_table_cells(tbl, schema.k, schema.record_width)


def export_rows(dataset_dir, manifest: Manifest | None = None):
    """Reconstruct the ingested rows (key values first, canonical measures).

    Yields tuples of strings in key-columns-then-measures order; row order
    is the stored (logical) order.  manifest, if given, is the dataset's
    as the caller loaded it, so a header it wrote names these rows.
    """
    root = Path(dataset_dir)
    manifest = manifest or Manifest.load(root / MANIFEST_NAME)
    dirs = _load_directories(root, manifest)
    codec = manifest.schema.codec
    for indices, record in stored_cells(root, manifest):
        values = tuple(d.value_of(i) for d, i in zip(dirs, indices))
        yield values + tuple(
            col.canonical(v) for col, v in zip(codec.columns, codec.unpack(record))
        )


def materialize_synthetic(synth, out_dir, schema_name: str = "synthetic") -> Manifest:
    """Write a generated relation as a dataset directory (dims, table, manifest)."""
    schema = synth.schema
    key_columns = tuple(f"d{i + 1}" for i in range(schema.k))
    manifest = Manifest(schema_name, key_columns, schema, synth.r)
    return _write_dataset(
        out_dir, manifest, [DimensionDirectory(values) for values in synth.dimension_values],
        ((delinearize(pos, schema.cards), record) for pos, record in synth.cells),
    )
