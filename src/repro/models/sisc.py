"""SISC: Synchronous Iterations — Synchronous Communications (Figure 1).

All processors run the same iteration in lockstep: compute, exchange
boundary data, then pass a *global* barrier (the paper's "synchronous
global communications").  The idle time between a rank's compute phases
— waiting for slower ranks and for message transfers — is recorded as
:class:`~repro.runtime.tracer.IdleSpan` records, which is exactly the
white space of the paper's Figure 1.  The loop is the one every model
runs (:func:`repro.core.solver.run_chain`).
"""

from __future__ import annotations

from typing import Any

from repro.core.config import SolverConfig
from repro.core.records import RunResult
from repro.core.solver import build_chain, run_chain
from repro.grid.platform import Platform
from repro.problems.base import Problem

__all__ = ["run_sisc"]


def run_sisc(
    problem: Problem,
    platform: Platform,
    config: SolverConfig | None = None,
    *,
    host_order: list[int] | None = None,
    injector: Any = None,
    profiler: Any = None,
    guard: Any = None,
) -> RunResult:
    """Solve ``problem`` with the SISC execution model.

    The hooks are :func:`~repro.core.solver.run_chain`'s; under an
    ``injector`` a rank restored from its checkpoint arrives at the
    barrier again for the checkpointed iteration.
    """
    run = build_chain(
        problem, platform, config, model="sisc", host_order=host_order
    )
    return run_chain(run, injector=injector, profiler=profiler, guard=guard)
