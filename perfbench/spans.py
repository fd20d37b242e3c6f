"""In-memory span recorder for the traced run.

A span is a name, a start and an end (perf_counter ns), the index of
the span that caused it (-1 for a root) and the id of the lookup it
belongs to (-1 outside lookups).  Spans stay in parallel lists until the
run ends and are then written out in one go.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.lookups: list[int] = []

    def begin(self, name: str, lookup: int = -1, parent: int = -1) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.lookups.append(lookup)
        self.ends.append(-1)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()

    def timed(self, name: str, fn, *args):
        """Run fn(*args) inside a root span; returns its result."""
        span = self.begin(name)
        value = fn(*args)
        self.end(span)
        return value

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> dict[str, list[int]]:
        """Self time in ns of every closed span, grouped by name.

        A span left open by an exception has no end and is skipped, as
        its duration is unknown.
        """
        children = [0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0 and end >= 0:
                children[parent] += end - start
        out: dict[str, list[int]] = defaultdict(list)
        for name, start, end, child in zip(self.names, self.starts, self.ends, children):
            if end >= 0:
                out[name].append(end - start - child)
        return out

    def durations(self, name: str) -> list[int]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name and e >= 0]

    def write(self, path) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("name\tstart_ns\tend_ns\tparent\tlookup\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.lookups):
                f.write("%s\t%d\t%d\t%d\t%d\n" % row)
