"""Deterministic discrete-event simulation (DES) kernel.

This package is the execution substrate that replaces the paper's real
testbed (the PM2 runtime on a 2003 computational grid).  It provides:

* :class:`~repro.des.simulator.Simulator` — the event loop with a virtual
  clock,
* :class:`~repro.des.process.Process` — cooperative processes (one per
  simulated machine / handler thread): a generator, or a subclass whose
  phases are event callbacks (the solver's rank loop),
* :class:`~repro.des.process.Hold` / :class:`~repro.des.process.Wait` —
  the commands a process yields to consume virtual time or block on a
  :class:`~repro.des.process.Signal`.

Determinism: simultaneous events are ordered by their scheduling sequence
number, so a run is a pure function of its inputs (DESIGN.md §7).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "EventQueue": "event",
        "ScheduledEvent": "event",
        "Hold": "process",
        "Wait": "process",
        "Signal": "process",
        "Process": "process",
        "Simulator": "simulator",
        "SimulationError": "simulator",
    },
)
