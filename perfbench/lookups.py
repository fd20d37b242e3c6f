"""The three lookup paths, timed one call at a time, and the ground-truth check.

A path is a function from one lookup key to its answer: the measure
record, decoded to values on workloads whose keys are values, or None
for an empty cell.  Each runs through public calls only:

- btree:   TableStore.btree_lookup, then TableStore.read_measures;
- array:   ArrayStore.get_cell;
- bsearch: TableStore.binary_search_lookup, then TableStore.read_measures.

Lookups are closed-loop from one client on one thread: the next key is
sent only when the previous answer is back.  A call that raises is
recorded as a Raised answer and the run goes on; the check after each
pass counts it, and every wrong answer, as a failure.
"""

from __future__ import annotations

import os
import time

from cubestore.linearizer import linearize
from cubestore.table_store import encode_key

PATHS = ("btree", "array", "bsearch")


class Raised:
    """Answer slot of a lookup that raised; never equal to a real answer."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error

    def __repr__(self):
        return f"Raised({self.error!r})"


def path_ops(db, by_values: bool) -> dict:
    """Untraced lookup functions of the three paths over an open dataset."""
    btree_lookup = db.table.btree_lookup
    bsearch_lookup = db.table.binary_search_lookup
    read_measures = db.table.read_measures
    get_cell = db.array.get_cell
    if not by_values:
        def btree(coords):
            rec = btree_lookup(coords)
            return None if rec is None else read_measures(rec)

        def bsearch(coords):
            rec = bsearch_lookup(coords)
            return None if rec is None else read_measures(rec)

        return {"btree": btree, "array": get_cell, "bsearch": bsearch}

    index_ofs = [d.index_of for d in db.dimension_directories()]
    unpack = db.codec.unpack

    def resolve(values):
        return tuple([index_of(v) for index_of, v in zip(index_ofs, values)])

    def btree(values):
        rec = btree_lookup(resolve(values))
        return None if rec is None else unpack(read_measures(rec))

    def array(values):
        raw = get_cell(resolve(values))
        return None if raw is None else unpack(raw)

    def bsearch(values):
        rec = bsearch_lookup(resolve(values))
        return None if rec is None else unpack(read_measures(rec))

    return {"btree": btree, "array": array, "bsearch": bsearch}


def timed_pass(op, keys, latencies) -> list:
    """Answers of op over keys; appends each call's wall time in ns to latencies."""
    clock = time.perf_counter_ns
    out = []
    append = out.append
    record = latencies.append
    for key in keys:
        t0 = clock()
        try:
            answer = op(key)
        except Exception as exc:  # counted by the check; the run goes on
            answer = Raised(exc)
        record(clock() - t0)
        append(answer)
    return out


def count_wrong(keys, answers, expected: dict) -> tuple[int, str | None]:
    """Failures among one pass's answers, and a description of the first."""
    wrong = 0
    first = None
    get = expected.get
    for key, got in zip(keys, answers):
        want = get(key)
        if got != want or type(got) is not type(want):
            wrong += 1
            if first is None:
                first = f"key {key!r}: got {got!r}, expected {want!r}"
    return wrong, first


class TracedPaths:
    """The same three paths, split into one span per public call.

    The array path calls linearize, Header.locate and read_record in
    turn, the same work get_cell does.  Root spans ("path.<name>")
    cover one whole lookup; their children are the layer calls.  Beside
    each lookup, outside its root span and with the same lookup id, it
    times encode_key, a pread of one random B-tree page and a pread of
    one random table row, and on workloads whose keys are coordinates it
    resolves the key's values and decodes the record, so every workload
    reports every layer.
    """

    def __init__(self, db, rel, tracer, random_pages, random_rows):
        self.db = db
        self.rel = rel
        self.by_values = rel.workload.by_values
        self.tracer = tracer
        self.cards = db.array.cards
        self.index_ofs = [d.index_of for d in db.dimension_directories()]
        self.unpack = db.codec.unpack
        self.page_size = db.table.meta.page_size
        self.row_bytes = db.table.row_bytes
        self.btx_fd = os.open(db.root / db.manifest.btree_file, os.O_RDONLY)
        self.tbl_fd = os.open(db.root / db.manifest.table_file, os.O_RDONLY)
        self.random_pages = random_pages
        self.random_rows = random_rows
        self.page_reads = []
        self.row_reads = []

    def close(self) -> None:
        os.close(self.btx_fd)
        os.close(self.tbl_fd)

    def _call(self, name, fn, arg, lid, parent=-1):
        tr = self.tracer
        span = tr.begin(name, lid, parent)
        value = fn(arg)
        tr.end(span)
        return value

    def _resolve(self, key, lid, parent):
        """Coordinates of a key; value keys go through index_of spans."""
        if not self.by_values:
            return key
        call = self._call
        return tuple([call("relation_model.index_of", f, v, lid, parent)
                      for f, v in zip(self.index_ofs, key)])

    def _decode(self, raw, lid, parent):
        if raw is None or not self.by_values:
            return raw
        return self._call("relation_model.unpack", self.unpack, raw, lid, parent)

    def _table_path(self, name, search_span, search, reads, counter, key, lid):
        tr = self.tracer
        table = self.db.table
        root = tr.begin("path." + name, lid)
        coords = self._resolve(key, lid, root)
        rec = self._call(search_span, search, coords, lid, root)
        counter.append(getattr(table, reads))
        raw = None
        if rec is not None:
            raw = self._call("table_store.read_measures", table.read_measures, rec, lid, root)
        answer = self._decode(raw, lid, root)
        tr.end(root)
        return answer

    def btree(self, key, lid):
        table = self.db.table
        answer = self._table_path("btree", "table_store.btree_lookup", table.btree_lookup,
                                  "last_page_reads", self.page_reads, key, lid)
        self._beside(key, answer, lid)
        return answer

    def bsearch(self, key, lid):
        table = self.db.table
        return self._table_path("bsearch", "table_store.binary_search_lookup",
                                table.binary_search_lookup, "last_row_reads",
                                self.row_reads, key, lid)

    def array(self, key, lid):
        tr = self.tracer
        array = self.db.array
        root = tr.begin("path.array", lid)
        coords = self._resolve(key, lid, root)
        span = tr.begin("linearizer.linearize", lid, root)
        position = linearize(coords, self.cards)
        tr.end(span)
        rec = self._call("array_store.locate", array.header.locate, position, lid, root)
        raw = None
        if rec is not None:
            raw = self._call("array_store.read_record", array.read_record, rec, lid, root)
        answer = self._decode(raw, lid, root)
        tr.end(root)
        return answer

    def _beside(self, key, answer, lid):
        """Layer timings taken next to a B-tree lookup, outside its root span."""
        call = self._call
        if self.by_values:
            coords = tuple([f(v) for f, v in zip(self.index_ofs, key)])
        else:
            coords = key
            for f, v in zip(self.index_ofs, self.rel.values_of(key)):
                call("relation_model.index_of", f, v, lid)
            if answer is not None:
                call("relation_model.unpack", self.unpack, answer, lid)
        call("table_store.encode_key", encode_key, coords, lid)
        tr = self.tracer
        page = self.random_pages[lid % len(self.random_pages)]
        span = tr.begin("os.pread_page", lid)
        os.pread(self.btx_fd, self.page_size, page * self.page_size)
        tr.end(span)
        row = self.random_rows[lid % len(self.random_rows)]
        span = tr.begin("os.pread_record", lid)
        os.pread(self.tbl_fd, self.row_bytes, row * self.row_bytes)
        tr.end(span)


def traced_pass(op, keys, first_lid: int) -> list:
    """Answers of a traced op over keys; lookup ids count up from first_lid."""
    out = []
    append = out.append
    for lid, key in enumerate(keys, first_lid):
        try:
            answer = op(key, lid)
        except Exception as exc:  # counted by the check; the run goes on
            answer = Raised(exc)
        append(answer)
    return out
