"""The only code that opens, sizes, reads, writes or removes a dataset file.

The CLI's and the cost model's CSVs go through replacing too, and every
CSV the package writes comes from csv_writer; only ingest_csv opens its
input itself.  An OSError or a UTF-8 decode error raises DatasetError
for the manifest, the .dim files, sizes and writes, and StorageError for
the .hdr, .tbl, .btx and .arr reads, naming the file.  Open reads the
manifest, .dim, .hdr and .btx whole, each with one os.open and plain
os.read calls, and stats no file: open_dataset sizes a store's files,
to name one that is missing, only after the store fails to open.  Every
other read is read_at, a checked pread, but three that each lookup makes
inline: TableStore's block read and key probe, and ArrayStore.get_cell's.
The manifest is written through replace_file, so neither a failed write
nor a crash leaves part of a manifest.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager, suppress
from pathlib import Path
from types import SimpleNamespace

from .errors import DatasetError, StorageError


@contextmanager
def _failing(error, doing: str):
    """An OSError inside raises error, its message led by doing."""
    try:
        yield
    except OSError as exc:
        raise error(f"{doing}: {exc}") from None


def _whole(path, error, what: str) -> bytes:
    """The bytes of the file path: os.read of its size and one byte more, until one is empty.

    So a file that does not grow takes two reads and no copy.  An OSError,
    EISDIR from the first read of a directory among them, raises error
    naming what and path.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size + 1
            data = os.read(fd, size)
            while more := os.read(fd, size):
                data += more
        finally:
            os.close(fd)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None
    return data


def read_binary(path, what: str) -> bytes:
    return _whole(path, StorageError, what)


def read_utf8(path, what: str) -> str:
    data = _whole(path, DatasetError, what)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"cannot read {what} {path}: byte {exc.start} is not UTF-8") from None


def size_of(path) -> int | None:
    """The size of path in bytes, or None when no such file exists."""
    with _failing(DatasetError, f"cannot read the size of {path}"), suppress(FileNotFoundError):
        return os.stat(path).st_size
    return None


def open_for_pread(path):
    """An unbuffered binary file object whose descriptor serves os.pread."""
    try:
        return open(path, "rb", buffering=0)
    except OSError as exc:
        raise StorageError(f"cannot open {path}: {exc}") from None


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
def _renamed_over(path):
    """A temporary name beside path, renamed over path if the block completes.

    On any failure the temporary file is removed and path keeps its bytes.
    """
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def replace_file(path, data: bytes) -> None:
    """write_file, but path is either left as it was or holds all of data.

    The data is synced to disk before the rename, so that a crash cannot
    leave the new name on a file whose bytes never arrived.
    """
    with (_failing(DatasetError, f"cannot write {path}"), _renamed_over(path) as tmp,
          open(tmp, "wb") as out):
        out.write(data)
        out.flush()
        os.fsync(out.fileno())


@contextmanager
def replacing(path):
    """A UTF-8 text file, made beside path at once, that replaces path if the block completes.

    On any failure it is removed and path keeps its bytes.  An OSError
    stays one: these are output files, not dataset files.
    """
    with _renamed_over(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as out:
        yield out


def csv_writer(out):
    """A csv.writer on the text file out: rows end in \\n, a field holding \\r or \\n is quoted.

    Python 3.10 to 3.12 quote only the terminator's characters, so the
    writer ends rows in \\r\\n, and each row's one write swaps that for
    \\n: the bytes are the same on every version.
    """
    return csv.writer(SimpleNamespace(write=lambda row: out.write(row[:-2] + "\n")),
                      lineterminator="\r\n")


def read_at(fd, name, size: int, offset: int) -> bytes:
    """size bytes at offset of the open file name; an error or fewer bytes raise StorageError.

    The error names the file, the size and the offset, so a read made
    inside a writing block is never reported as a write of its output.
    A closed store's descriptor, -1, raises OSError EBADF, as its inline
    lookup reads do.
    """
    try:
        data = os.pread(fd, size, offset)
    except OSError as exc:
        if fd < 0:
            raise
        raise StorageError(
            f"cannot read {size} bytes at offset {offset} of {name}: {exc}") from None
    if len(data) != size:
        raise StorageError(f"{name}: short read of {size} bytes at offset {offset}")
    return data


def row_blocks(fd, name, row: int, rows: int):
    """Yield the first `rows` rows of an open file of fixed-width rows, up to 2048 per block."""
    end, step = rows * row, row * 2048
    return (read_at(fd, name, min(step, end - off), off) for off in range(0, end, step))
