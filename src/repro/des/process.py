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
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Any, Generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.simulator import Simulator

__all__ = ["Hold", "Wait", "Signal", "Process"]


class Hold:
    """Command: advance this process by ``duration`` of virtual time.

    Treat instances as immutable — one is allocated per yield on the
    hottest path of every simulation, so this is a hand-rolled
    ``__slots__`` class rather than a dataclass.  The duration must be
    finite and non-negative: ``Process._step`` adds it to the clock and
    pushes the sum straight into the queue, so this is the check that
    keeps NaN and ``inf`` event times out of it.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if not 0 <= duration < inf:
            raise ValueError(
                f"Hold duration must be finite and >= 0, got {duration!r}"
            )
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

    Not constructed directly — use :meth:`repro.des.Simulator.spawn`.
    """

    __slots__ = ("sim", "name", "_generator", "alive", "error", "result", "done")

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        generator: Generator[Any, Any, Any],
    ) -> None:
        self.sim = sim
        self.name = name
        self._generator = generator
        self.alive = True
        self.error: BaseException | None = None
        self.result: Any = None
        #: Signal triggered (with the process return value) on termination.
        self.done = Signal(f"done:{name}")

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
            self.alive = False
            self.error = exc
            self.sim._process_failed(self, exc)
            return

        # Hot path: exact-class checks and a direct queue push (the
        # equivalent of Simulator._schedule_resume without the extra
        # call) — this runs once per event in every simulation.
        cls = command.__class__
        sim = self.sim
        if command is None:
            sim._queue.push_call(sim._now, self._step, (None,))
        elif cls is Hold or isinstance(command, Hold):
            sim._queue.push_call(
                sim._now + command.duration, self._step, (None,)
            )
        elif cls is Wait or isinstance(command, Wait):
            command.signal._add_waiter(self)
        else:
            exc = TypeError(
                f"process {self.name!r} yielded {command!r}; "
                "expected Hold, Wait, or None"
            )
            self.alive = False
            self.error = exc
            self.sim._process_failed(self, exc)

    def _finish(self, result: Any) -> None:
        self.alive = False
        self.result = result
        self.done.trigger(self.sim, result)
