"""Spans and counters for the traced run, kept in memory and written once at exit.

A span records its name, start, end and the span that caused it; every span
under one operation carries that operation's identifier.  A disabled tracer
hands out a no-op context, so the untraced replay runs the same code.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._next_id = 1
        self._op = 0

    def span(self, name: str, *, op: bool = False):
        """Context for one span; op=True starts a new operation identifier."""
        if not self.enabled:
            return nullcontext()
        return self._span(name, op)

    @contextmanager
    def _span(self, name: str, op: bool):
        sid = self._next_id
        self._next_id += 1
        if op:
            self._op = sid
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self._op, name, start, end))

    def count(self, name: str, value: int) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        if self.enabled:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, n, start, end in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median_ms(self, name: str) -> float:
        d = self.durations(name)
        return 1000 * statistics.median(d) if d else 0.0

    def write(self, path, header: dict) -> None:
        """One JSON line for the header, then one per span in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"header": header, "counts": self.counts}) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")
