"""The simulation event loop.

:class:`Simulator` owns the virtual clock and the event queue, spawns
processes, and runs until a horizon, a stop request, or queue exhaustion.

Error policy: an exception escaping any process or scheduled callback
aborts the run and is re-raised from :meth:`Simulator.run` — silent
partial results are never produced.  A callback bound to a
:class:`~repro.des.process.Process` (a generator's step, or a phase of
a callback-driven process) fails in that process's name.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Generator

from repro.des.event import EventQueue, ScheduledEvent
from repro.des.process import Process

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """A process or callback raised during the event loop."""


class Simulator:
    """Deterministic discrete-event simulator.

    Examples
    --------
    >>> from repro.des import Simulator, Hold
    >>> sim = Simulator()
    >>> log = []
    >>> def worker(sim, period, label):
    ...     for _ in range(3):
    ...         yield Hold(period)
    ...         log.append((sim.now, label))
    >>> _ = sim.spawn("a", worker(sim, 1.0, "a"))
    >>> _ = sim.spawn("b", worker(sim, 1.5, "b"))
    >>> sim.run()
    >>> log
    [(1.0, 'a'), (1.5, 'b'), (2.0, 'a'), (3.0, 'b'), (3.0, 'a'), (4.5, 'b')]

    At ``t == 3.0`` process ``b`` resumes before ``a``: simultaneous
    events fire in scheduling order, and ``b``'s resume was scheduled at
    ``t == 1.5``, before ``a``'s at ``t == 2.0``.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stop_requested = False
        self._failure: tuple[Process | None, BaseException] | None = None
        self.processes: list[Process] = []
        #: Optional dispatch observer (see :meth:`attach_profiler`).
        self.profiler: Any = None
        #: Total events whose callback was invoked.
        self.n_dispatched = 0

    def attach_profiler(self, profiler: Any) -> "Simulator":
        """Attach a profiler whose ``record(event)`` sees every dispatch.

        The profiler observes each event *before* its callback runs; it
        must not mutate simulation state.  ``event`` is a
        :class:`~repro.des.event.ScheduledEvent` (its ``time``,
        ``callback`` and ``args``), valid only during the call: a
        process re-queues the same record for its next resume.  The
        slot is read once per :meth:`run`, so attach before running;
        with nothing attached the loop pays one ``is not None`` test per
        event.  Returns ``self`` for chaining.
        """
        self.profiler = profiler
        return self

    def attach_monitor(self, monitor: Any) -> "Simulator":
        """Attach a dispatch observer *on top of* any existing one.

        Unlike :meth:`attach_profiler` (which owns the single observer
        slot), this composes: the current occupant of the slot — a
        profiler, or another monitor — is stored on ``monitor.chain``
        and the monitor is expected to forward ``record(event)`` to it.
        Used by :class:`repro.guard.InvariantMonitor`, which piggybacks
        on the profiler slot so the dispatch loop needs no second hook.
        Returns ``self`` for chaining.
        """
        monitor.chain = self.profiler
        self.profiler = monitor
        return self

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``.

        Binds arguments without a closure.  Every caller that computes
        an event time (message deliveries, retry timers, the fault
        injector) validates here: a time in the past or a non-finite one names the
        offending callback instead of silently corrupting the clock's
        monotonicity.  Process resumptions do not
        pass through here — they re-queue their own record at ``now +
        duration``, and :class:`~repro.des.process.Hold` (or
        :func:`~repro.des.process.invalid_hold`) rejects a negative or
        non-finite duration first.  It pushes its own ``(time, seq,
        event)`` entry, as :meth:`EventQueue.push_call` would (the queue's
        public call for the same thing).
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule {callback!r} in the past: "
                f"time={time} < now={self._now}"
            )
        if not math.isfinite(time):
            raise ValueError(
                f"event time for {callback!r} must be finite, got {time!r}"
            )
        queue = self._queue
        seq = next(queue._seqs)
        event = ScheduledEvent(time, seq, callback, args, queue)
        heappush(queue._heap, (time, seq, event))
        return event

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def spawn(self, name: str, generator: Generator[Any, Any, Any]) -> Process:
        """Start a generator process; its first step runs at the current time."""
        return self.start(Process(self, name, generator))

    def start(self, process: Process) -> Process:
        """Start a process built on this simulator (a subclass, say):
        its ``_resume`` callback runs at the current time."""
        self.processes.append(process)
        self._schedule_resume(process, None)
        return process

    def _schedule_resume(self, process: Process, value: Any) -> None:
        """Queue ``process._resume(value)`` now (a start or a wake-up)."""
        event = process._event
        event.callback = process._resume
        event.args = (value,)
        self._queue.push(self._now, event)

    def _process_failed(self, process: Process, exc: BaseException) -> None:
        process.alive = False
        process.error = exc
        if self._failure is None:
            self._failure = (process, exc)
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the event loop to stop after the current event."""
        self._stop_requested = True

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or stop().

        If ``until`` is given, the clock is advanced to exactly ``until``
        when the horizon is hit with events still pending (those events
        stay queued; ``run`` may be called again).
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is before now={self._now}")
        self._running = True
        self._stop_requested = False
        queue = self._queue
        heap = queue._heap
        horizon = math.inf if until is None else until
        record = None if self.profiler is None else self.profiler.record
        n_events = 0
        try:
            while heap:
                entry = heappop(heap)
                event = entry[2]
                if event.cancelled:
                    queue._n_cancelled -= 1
                    continue
                time = entry[0]
                if time > horizon:
                    heappush(heap, entry)  # a live event waits past the horizon
                    self._now = until
                    break
                event._queue = None  # cancel() after the pop must not miscount
                self._now = time
                n_events += 1
                if record is not None:
                    record(event)
                callback = event.callback
                try:
                    callback(*event.args)
                except BaseException as exc:  # noqa: BLE001 - rewrapped below
                    owner = getattr(callback, "__self__", None)
                    if isinstance(owner, Process):  # a callback-driven process
                        self._process_failed(owner, exc)
                    else:
                        self._failure = (None, exc)
                    break
                if self._stop_requested:
                    break
        finally:
            self._running = False
            self.n_dispatched += n_events
        if self._failure is not None:
            process, exc = self._failure
            self._failure = None
            where = f"process {process.name!r}" if process else "scheduled callback"
            raise SimulationError(f"{where} failed at t={self._now}: {exc!r}") from exc
