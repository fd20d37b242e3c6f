"""The only code that opens, reads, writes or removes a dataset file.

The CLI's and the cost model's CSVs go through replacing too; only
ingest_csv opens its input itself.  An OSError or a UTF-8 decode error
raises DatasetError for the manifest, the .dim files and every write,
and StorageError for the .hdr, .tbl, .btx and .arr reads, naming the
file.  Lookups pread the descriptors open_for_pread returns, unwrapped.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import DatasetError, StorageError


@contextmanager
def _failing(error, doing: str):
    """An OSError or UTF-8 decode error inside raises error, its message led by doing."""
    try:
        yield
    except OSError as exc:
        raise error(f"{doing}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{doing}: byte {exc.start} is not UTF-8") from None


def read_binary(path, what: str) -> bytes:
    with _failing(StorageError, f"cannot read {what} {path}"):
        return Path(path).read_bytes()


def read_utf8(path, what: str) -> str:
    with _failing(DatasetError, f"cannot read {what} {path}"):
        return Path(path).read_bytes().decode("utf-8")


def open_for_pread(path):
    """A binary file object whose descriptor serves os.pread."""
    with _failing(StorageError, f"cannot open {path}"):
        return open(path, "rb")


@contextmanager
def writing(path):
    """A binary sink that writes path; any OSError inside raises DatasetError naming it."""
    with _failing(DatasetError, f"cannot write {path}"), open(path, "wb") as out:
        yield out


def write_file(path, data: bytes) -> None:
    with writing(path) as out:
        out.write(data)


def clear_directory(path, names) -> None:
    """Create directory path if need be, and remove the named files from it."""
    with _failing(DatasetError, f"cannot write the dataset to {path}"):
        Path(path).mkdir(parents=True, exist_ok=True)
        for name in names:
            (Path(path) / name).unlink(missing_ok=True)


@contextmanager
def replacing(path):
    """A UTF-8 text file, made beside path at once, that replaces path if the block completes.

    On any failure it is removed and path keeps its bytes.  An OSError
    stays one: these are output files, not dataset files.
    """
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def row_blocks(fd, name, row: int, rows: int):
    """Yield the first `rows` rows of an open file of fixed-width rows, up to 2048 per block."""
    end = rows * row
    step = row * 2048
    for off in range(0, end, step):
        size = min(step, end - off)
        block = os.pread(fd, size, off)
        if len(block) != size:
            raise StorageError(f"{name}: short read of {size} bytes at offset {off}; "
                               f"the file changed size while being read")
        yield block
