"""Generator-based simulated processes.

A *process* is a Python generator that yields commands to the simulator:

* ``yield Hold(duration)`` — consume ``duration`` units of virtual time
  (e.g. a block of computation whose length the platform model decided);
* ``yield Wait(signal)`` — block until ``signal`` is triggered; the
  ``yield`` expression evaluates to the payload passed to
  :meth:`Signal.trigger`;
* ``yield None`` — yield control, resuming at the same virtual time after
  already-scheduled simultaneous events (a cooperative "checkpoint").

Processes share memory freely — exactly like the PM2 handler threads of
the paper — but are never preempted between yields, so state mutations
within one step are atomic.

A process has at most one pending resume, so it owns one
:class:`~repro.des.event.ScheduledEvent` record and re-queues it for
every resume instead of building an event per step.  A subclass may
drive that record itself, with bound-method callbacks in place of a
generator (the solver's rank loop does); an exception escaping a
process, from its generator or from a callback bound to it, fails the
run in that process's name.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Any, Generator

from repro.des.event import ScheduledEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.simulator import Simulator

__all__ = ["Hold", "Wait", "Signal", "Process"]

#: The args of a resume that sends nothing into the process.
_NO_VALUE = (None,)


def invalid_hold(duration: float) -> ValueError:
    """The error for a hold the clock cannot take (NaN, ``inf``, < 0)."""
    return ValueError(f"Hold duration must be finite and >= 0, got {duration!r}")


class Hold:
    """Command: advance this process by ``duration`` of virtual time.

    Treat instances as immutable — one is allocated per yield on the
    hottest path of every simulation, so this is a hand-rolled
    ``__slots__`` class rather than a dataclass.  The duration must be
    finite and non-negative: ``Process._step`` adds it to the clock and
    pushes the sum straight into the queue, so this is the check that
    keeps NaN and ``inf`` event times out of it (a callback-driven
    process makes the same check with :func:`invalid_hold`).
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if not 0 <= duration < inf:
            raise invalid_hold(duration)
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Hold(duration={self.duration!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Hold:
            return self.duration == other.duration  # type: ignore[union-attr]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Hold, self.duration))


class Wait:
    """Command: block until ``signal`` is triggered."""

    __slots__ = ("signal",)

    def __init__(self, signal: "Signal") -> None:
        self.signal = signal

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Wait(signal={self.signal!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Wait:
            return self.signal is other.signal  # type: ignore[union-attr]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Wait, id(self.signal)))


class Signal:
    """A triggerable condition that processes can wait on.

    Each :meth:`trigger` wakes every process currently waiting; processes
    that start waiting afterwards wait for the *next* trigger.  A payload
    passed to :meth:`trigger` becomes the value of the waiting process's
    ``yield`` expression.
    """

    __slots__ = ("name", "_waiters", "trigger_count")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: list[Process] = []
        self.trigger_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"

    def _add_waiter(self, process: "Process") -> None:
        self._waiters.append(process)

    def trigger(self, sim: "Simulator", payload: Any = None) -> int:
        """Wake all current waiters at the current virtual time.

        Returns the number of processes woken.  Wake-ups are scheduled as
        events (not run inline) so triggering from inside a handler keeps
        the deterministic event order.
        """
        self.trigger_count += 1
        if not self._waiters:
            return 0
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            sim._schedule_resume(process, payload)
        return len(waiters)


class Process:
    """A running simulated process.

    Not constructed directly — use :meth:`repro.des.Simulator.spawn`
    (or :meth:`~repro.des.Simulator.start` for a subclass).
    """

    __slots__ = (
        "sim", "name", "_generator", "alive", "error", "result", "done",
        "_event", "_resume",
    )  # fmt: skip

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        generator: Generator[Any, Any, Any] | None,
    ) -> None:
        self.sim = sim
        self.name = name
        self._generator = generator
        self.alive = True
        self.error: BaseException | None = None
        self.result: Any = None
        #: Signal triggered (with the process return value) on termination.
        self.done = Signal(f"done:{name}")
        #: The callback a start or a wake-up (``Signal.trigger``) runs,
        #: with the payload as its one argument.
        self._resume = self._step
        #: The one queue record of this process's pending resume.
        self._event = ScheduledEvent(0.0, -1, self._step, _NO_VALUE)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"Process({self.name!r}, {state})"

    def _step(self, send_value: Any) -> None:
        """Advance the generator one command and interpret the result."""
        try:
            command = self._generator.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:
            self.sim._process_failed(self, exc)
            return
        # Hot path: exact-class checks first — this runs once per event
        # of every generator process.
        cls = command.__class__
        sim = self.sim
        if command is None:
            event = self._event
            event.args = _NO_VALUE  # a wake-up may have sent a payload
            sim._queue.push(sim._now, event)
        elif cls is Hold or isinstance(command, Hold):
            event = self._event
            event.args = _NO_VALUE
            sim._queue.push(sim._now + command.duration, event)
        elif cls is Wait or isinstance(command, Wait):
            command.signal._add_waiter(self)
        else:
            self.sim._process_failed(
                self,
                TypeError(
                    f"process {self.name!r} yielded {command!r}; "
                    "expected Hold, Wait, or None"
                ),
            )

    def _finish(self, result: Any) -> None:
        self.alive = False
        self.result = result
        self.done.trigger(self.sim, result)
