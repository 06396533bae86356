"""In-memory spans for the traced run.

A span is (name, start, end, parent span, request id), recorded around one
call into one layer. Spans stay in memory until the run ends and are then
written out as JSON lines. A span's self time is its duration minus the
durations of its direct children; one thread records them, so children never
overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request]
        self.request: str | None = None
        self.counting = True  # counts are kept for the first round only
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, 0, 0, parent, self.request]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def add(self, name: str, value: int) -> None:
        if self.counting:
            self.counts[name] += int(value)

    def peak(self, name: str, value: int) -> None:
        if self.counting:
            self.counts[name] = max(self.counts[name], int(value))

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, by span index."""
        own = [(end - start) for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return [t / 1e9 for t in own]

    def by_request(self) -> dict:
        """request id -> span name -> list of (duration s, span index)."""
        out: dict = defaultdict(lambda: defaultdict(list))
        for i, (name, start, end, _, request) in enumerate(self.spans):
            out[request][name].append(((end - start) / 1e9, i))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )
