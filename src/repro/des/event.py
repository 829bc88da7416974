"""Event records and the time-ordered event queue.

:class:`EventQueue` is a flat binary heap of ``(time, seq, event)``
entries.  Virtual-time ties are resolved by ``seq``, a monotonically
increasing scheduling counter, which makes every simulation run
deterministic: there is no dependence on hash ordering, thread timing
or allocation addresses.

A bucket-indexed variant (a heap of *distinct* timestamps plus one FIFO
bucket per timestamp, same ``(time, seq)`` order) was deleted in PR 12
because it measured slower wherever this repo runs it: 1.03 us against
0.67 us per ``push_call``+``pop`` and 2.4-2.6 us against 1.2-1.5 us per
dispatched ``Hold`` (``bench/README.md``, finding 1), and slower on
five of the seven scale-ladder rows that ran both (``docs/performance.md``)
— AIAC ranks run unsynchronised, so timestamps are distinct and there is
nothing for a bucket to batch.

Hot-path design notes:

* :class:`ScheduledEvent` is a plain ``__slots__`` class carrying a
  ``(callback, args)`` pair, so schedulers never need to allocate a
  closure just to bind arguments.  One is built per :meth:`push_call`
  (the cancellable handle ``Simulator.at`` returns); a process instead
  owns a single record it re-queues with :meth:`push` for each resume,
  so stepping a process allocates no event object at all.
* The simulator's dispatch loop pops heap entries itself; this module
  keeps :meth:`EventQueue.pop` for callers outside the loop.
* Cancelled events are tombstones skipped lazily on pop — but the queue
  counts them, reports only *live* events from ``len()``, and compacts
  itself once tombstones dominate, so a cancel-heavy workload cannot
  grow the heap without bound.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable

__all__ = ["ScheduledEvent", "EventQueue"]

#: Compaction policy: rebuild the heap once more than this many
#: tombstones accumulate *and* they outnumber live events.
_COMPACT_MIN_CANCELLED = 64


class ScheduledEvent:
    """A callback scheduled at a point in virtual time.

    Attributes
    ----------
    time:
        Virtual time at which the callback fires.
    seq:
        Scheduling sequence number; breaks ties among simultaneous events
        (a process's re-queued record keeps the one it was built with:
        the heap entry carries the live key).
    callback:
        Callable invoked by the simulator as ``callback(*args)``.
    args:
        Arguments bound at scheduling time (avoids per-event closures).
    cancelled:
        Cancelled events stay queued but are skipped on pop.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...] = (),
        queue: "EventQueue | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The queue to tell about a cancellation; None once popped.
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the simulator skips it."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"ScheduledEvent(time={self.time!r}, seq={self.seq}{state})"


class EventQueue:
    """Deterministic priority queue of :class:`ScheduledEvent`.

    One ``(time, seq, event)`` heap entry per event; ``seq`` is unique,
    so the event itself is never compared.
    """

    __slots__ = ("_heap", "_seqs", "_n_cancelled")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        #: Scheduling counter: ``next()`` is the next entry's ``seq``.
        self._seqs = count()
        self._n_cancelled = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return len(self._heap) - self._n_cancelled

    def push_call(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at ``time`` (no closure needed)."""
        seq = next(self._seqs)
        event = ScheduledEvent(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def push(self, time: float, event: ScheduledEvent) -> None:
        """Queue an existing, uncancellable record again, at ``time``.

        The record must not be queued already: a process, which owns
        one, has at most one pending resume.
        """
        event.time = time
        heapq.heappush(self._heap, (time, next(self._seqs), event))

    def pop(self) -> ScheduledEvent | None:
        """Return the next non-cancelled event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                event._queue = None  # cancel() after pop must not miscount
                return event
            self._n_cancelled -= 1
        return None

    # ------------------------------------------------------------------
    # Tombstone bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._n_cancelled += 1
        n = self._n_cancelled
        if n > _COMPACT_MIN_CANCELLED and 2 * n > len(self._heap):
            self.compact()

    def compact(self) -> None:
        """Drop tombstones and re-heapify, in place.

        Removing cancelled entries cannot change the pop order of the
        survivors — the ``(time, seq)`` key is a total order — so this
        is invisible to the simulation.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._n_cancelled = 0
