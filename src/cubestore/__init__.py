"""One relation, two physical shapes: a sorted indexed table and a
header-compressed multidimensional array, with the analytic cost model
and the benchmark harness that compare them.

The names below are the public API.  Internals such as Header, Manifest
and RecordCodec are imported from their modules."""

from .array_store import ArrayStore, compress_stream
from .bench import (
    SplitMix64,
    generate_synthetic,
    run_benchmark,
    sample_percentage,
)
from .cost_model import emit_cost_tables, q_btree, q_plain
from .dataset import (
    Dataset,
    build_dataset,
    format_size_report,
    ingest_csv,
    ingest_rows,
    materialize_synthetic,
    open_dataset,
    size_report,
)
from .errors import (
    CapacityError,
    CubeStoreError,
    DatasetError,
    DegenerateConjointError,
    DuplicateKeyError,
    DuplicateRowError,
    EmptyRelationError,
    MalformedInputError,
    NotSortedError,
    ParameterError,
    RangeError,
    StorageError,
    UndefinedDensityError,
    UnknownDimensionValueError,
)
from .linearizer import cell_count, delinearize, linearize
from .relation_model import space_ratio
from .table_store import TableStore, build_table, encode_key, worst_case_page_reads

__version__ = "0.1.0"

__all__ = [
    "ArrayStore",
    "CapacityError",
    "CubeStoreError",
    "Dataset",
    "DatasetError",
    "DegenerateConjointError",
    "DuplicateKeyError",
    "DuplicateRowError",
    "EmptyRelationError",
    "MalformedInputError",
    "NotSortedError",
    "ParameterError",
    "RangeError",
    "SplitMix64",
    "StorageError",
    "TableStore",
    "UndefinedDensityError",
    "UnknownDimensionValueError",
    "build_dataset",
    "build_table",
    "cell_count",
    "compress_stream",
    "delinearize",
    "emit_cost_tables",
    "encode_key",
    "format_size_report",
    "generate_synthetic",
    "ingest_csv",
    "ingest_rows",
    "linearize",
    "materialize_synthetic",
    "open_dataset",
    "q_btree",
    "q_plain",
    "run_benchmark",
    "sample_percentage",
    "size_report",
    "space_ratio",
    "worst_case_page_reads",
]
