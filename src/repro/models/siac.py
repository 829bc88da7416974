"""SIAC: Synchronous Iterations — Asynchronous Communications (Figure 2).

Boundary data is sent asynchronously as soon as it is updated (the left
boundary mid-sweep, the right at the end), overlapping transfers with
the remaining computation.  A rank still begins iteration ``k+1`` only
once it holds both neighbours' iteration-``k`` data — iterations remain
synchronous *algorithmically* ("at any time it is not possible to have
two processors performing different iterations") but there is no global
barrier, so idle time shrinks compared to SISC without vanishing.  The
loop is the one every model runs (:func:`repro.core.solver.run_chain`).
"""

from __future__ import annotations

from typing import Any

from repro.core.config import SolverConfig
from repro.core.records import RunResult
from repro.core.solver import build_chain, run_chain
from repro.grid.platform import Platform
from repro.problems.base import Problem

__all__ = ["run_siac"]


def run_siac(
    problem: Problem,
    platform: Platform,
    config: SolverConfig | None = None,
    *,
    host_order: list[int] | None = None,
    injector: Any = None,
    profiler: Any = None,
    guard: Any = None,
) -> RunResult:
    """Solve ``problem`` with the SIAC execution model.

    The hooks are :func:`~repro.core.solver.run_chain`'s; under an
    ``injector`` halos are sent again on permanent transfer failure
    (synchronous iterations cannot substitute fresher data for a lost
    message the way AIAC can).
    """
    run = build_chain(
        problem, platform, config, model="siac", host_order=host_order
    )
    return run_chain(run, injector=injector, profiler=profiler, guard=guard)
