"""DES kernel profiling: per-event-kind dispatch counts and histograms.

A :class:`SimProfiler` attached via
:meth:`repro.des.simulator.Simulator.attach_profiler` observes every
dispatched event: it counts dispatches per *kind* (the qualified name of
the event's callback — ``Process._step``, ``GridNode._deliver``,
``FaultInjector._crash``, …) and histograms the virtual time at which
each kind fires.  That answers the two questions a slow sweep raises
first: *what is the event loop actually doing* and *when*.  Every
callback bound to a :class:`~repro.des.process.Process` is of kind
``Process._step``, whether it steps a generator or is one phase of a
callback-driven process (the solver's rank loop): a kind names what the
event loop resumes, not how that process is written.

The profiler never mutates simulation state and draws no randomness, so
an attached profiler is observationally invisible: the DES event trace
with and without it is bit-identical (regression-tested).  When no
profiler is attached the dispatch loop pays one ``is not None`` test per
event.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Any

from repro.des.process import Process
from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.event import ScheduledEvent

__all__ = ["SimProfiler"]


def _kind_of(callback: Any) -> str:
    """Stable name for an event callback (bound methods unwrapped)."""
    if isinstance(getattr(callback, "__self__", None), Process):
        return "Process._step"
    func = getattr(callback, "__func__", callback)
    name = getattr(func, "__qualname__", None)
    if name is None:  # pragma: no cover - exotic callables
        name = type(callback).__name__
    return name


class SimProfiler:
    """Accumulates dispatch statistics for one simulation run."""

    __slots__ = ("time_buckets", "counts", "_hist_counts", "_hist_sums")

    def __init__(
        self, *, time_buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        self.time_buckets = tuple(float(b) for b in time_buckets)
        #: Dispatches per event kind.
        self.counts: dict[str, int] = {}
        # Per-kind histogram of event *timestamps* (virtual seconds).
        self._hist_counts: dict[str, list[int]] = {}
        self._hist_sums: dict[str, float] = {}

    @property
    def n_dispatched(self) -> int:
        return sum(self.counts.values())

    def record(self, event: "ScheduledEvent") -> None:
        """Account one dispatched event (called by the simulator loop)."""
        kind = _kind_of(event.callback)
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        hist = self._hist_counts.get(kind)
        if hist is None:
            hist = self._hist_counts[kind] = [0] * (len(self.time_buckets) + 1)
            self._hist_sums[kind] = 0.0
        hist[bisect.bisect_left(self.time_buckets, event.time)] += 1
        self._hist_sums[kind] += event.time

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_metrics(self, registry: MetricsRegistry) -> None:
        """Publish the accumulated statistics into ``registry``."""
        for kind in sorted(self.counts):
            registry.counter("sim.dispatches", kind=kind).add(
                self.counts[kind]
            )
            registry.histogram(
                "sim.event_time", buckets=self.time_buckets, kind=kind
            ).merge_counts(
                self._hist_counts[kind],
                self._hist_sums[kind],
                self.counts[kind],
            )
        registry.counter("sim.dispatches_total").add(self.n_dispatched)

    def summary(self) -> str:
        """Terminal-friendly table of dispatch counts, busiest first."""
        if not self.counts:
            return "sim profile: no events dispatched"
        width = max(len(k) for k in self.counts)
        lines = [f"sim profile — {self.n_dispatched} events dispatched"]
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for kind, n in ranked:
            lines.append(f"  {kind:<{width}}  {n:>10}")
        return "\n".join(lines)
