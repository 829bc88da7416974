"""In-memory span recorder for the traced benchmark runs.

A span is ``(name, start, end, parent)`` recorded from ``bench/``'s own
code around a call into one of the program's layers; every span of one
recorder shares its ``run_id``.  Spans stay in memory until
:meth:`SpanRecorder.write` dumps them, so recording costs two clock
reads and one list append per span.

Self time follows the usual definition: a span's duration minus the
part of its interval that its *direct* children cover.  Children may
overlap each other (the two ``served_sweeps`` clients run in threads
under one parent), so coverage is the length of the union of the child
intervals clipped to the parent, not the sum of their durations.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from itertools import chain
from typing import Any, Iterator

__all__ = ["SpanRecorder", "covered_length"]


def covered_length(
    intervals: list[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` inside ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanRecorder:
    """Records nested spans; one instance per traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, start, end, parent index or -1]`` per span.
        self.spans: list[list[Any]] = []
        #: Childless spans timed by the caller (the proxies' hot path).
        #: Nothing ever hangs under them, so they need no index and no
        #: lock: a bare append is all a recorded call costs.
        self.leaves: list[tuple[str, float, float, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Index of the calling thread's innermost open span, or -1."""
        stack = self._stack()
        return stack[-1] if stack else -1

    @contextmanager
    def span(self, name: str, *, parent: int | None = None) -> Iterator[int]:
        """Open a span around the ``with`` body; yields its index.

        ``parent`` defaults to the calling thread's innermost open span;
        a worker thread passes the index its spans should hang under.
        """
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), None, parent]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def leaf(self, name: str, start: float, end: float) -> None:
        """Record an already-timed childless span."""
        stack = self._stack()
        self.leaves.append((name, start, end, stack[-1] if stack else -1))

    def _closed(self) -> Iterator[Any]:
        """Every finished record, indexed spans first, without copying
        the (possibly million-entry) leaf list."""
        return chain((span for span in self.spans if span[2] is not None), self.leaves)

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (count, summed duration)`` over closed spans."""
        out: dict[str, tuple[int, float]] = {}
        for name, start, end, _ in self._closed():
            count, total = out.get(name, (0, 0.0))
            out[name] = (count + 1, total + end - start)
        return out

    def total(self, name: str) -> float:
        return self.totals().get(name, (0, 0.0))[1]

    def count(self, name: str) -> int:
        return self.totals().get(name, (0, 0.0))[0]

    def self_times(self) -> dict[str, float]:
        """``name -> summed self time`` (duration minus child coverage)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, start, end, parent in self._closed():
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            covered = covered_length(children.get(index, []), start, end)
            out[name] = out.get(name, 0.0) + (end - start) - covered
        for name, start, end, _ in self.leaves:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def write(self, path: str) -> None:
        """Dump every span as JSON, times relative to the earliest.

        ``spans`` keeps recording order, so a ``parent`` is an index
        into it (a span still open has ``end_s`` null); ``leaves`` hang
        under ``spans`` entries the same way.
        """
        starts = [span[1] for span in self.spans] + [leaf[1] for leaf in self.leaves]
        origin = min(starts, default=0.0)

        def rel(t: float | None) -> float | None:
            return None if t is None else t - origin

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "spans": [[n, rel(t0), rel(t1), p] for n, t0, t1, p in self.spans],
                    "leaves": [[n, rel(t0), rel(t1), p] for n, t0, t1, p in self.leaves],
                },
                fh,
            )
