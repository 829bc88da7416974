"""SIAC: Synchronous Iterations — Asynchronous Communications (Figure 2).

Boundary data is sent asynchronously as soon as it is updated (the left
boundary mid-sweep, the right at the end), overlapping transfers with
the remaining computation.  A rank still begins iteration ``k+1`` only
once it holds both neighbours' iteration-``k`` data — iterations remain
synchronous *algorithmically* ("at any time it is not possible to have
two processors performing different iterations") but there is no global
barrier, so idle time shrinks compared to SISC without vanishing.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import SolverConfig
from repro.core.records import RunResult
from repro.core.solver import ChainRun, RankContext, build_chain
from repro.des import Wait
from repro.grid.platform import Platform
from repro.models._recovery import install_sync_recovery, request_fresh_halos
from repro.problems.base import Problem

__all__ = ["run_siac"]


def _siac_process(run: ChainRun, ctx: RankContext):
    sim = run.sim
    node = ctx.node
    while not node.stop_requested:
        # -- crash recovery (no-op on the lossless fast path) --
        if not node.alive:
            yield Wait(node.restart_signal)
            continue
        if node.crash_count != ctx.restored_epoch:
            run.restore_checkpoint(ctx)
            request_fresh_halos(run, ctx)
            continue
        yield from run.sweep(ctx, send_left_mid_sweep=True, exclusive=False)
        if node.stop_requested:
            break
        if not node.alive or node.crash_count != ctx.restored_epoch:
            continue  # the sweep was lost to a crash
        run.send_halo(
            ctx, "right", estimate=ctx.estimator.value(), exclusive=False
        )
        wait_start = sim.now
        k = ctx.iteration
        interrupted = False
        while not node.stop_requested:
            if not node.alive or node.crash_count != ctx.restored_epoch:
                interrupted = True
                break
            need_left = ctx.rank > 0 and ctx.halo_iter_left < k
            need_right = ctx.rank < run.n_ranks - 1 and ctx.halo_iter_right < k
            if not (need_left or need_right):
                break
            yield Wait(ctx.halo_signal)
        if not interrupted and sim.now > wait_start:
            run.tracer.idle(
                rank=ctx.rank, t0=wait_start, t1=sim.now, reason="siac-wait"
            )


def run_siac(
    problem: Problem,
    platform: Platform,
    config: SolverConfig | None = None,
    *,
    host_order: list[int] | None = None,
    injector: Any = None,
    guard: Any = None,
) -> RunResult:
    """Solve ``problem`` with the SIAC execution model.

    ``injector`` optionally arms a fault injector; halos then re-send on
    permanent transfer failure (synchronous iterations cannot substitute
    fresher data for a lost message the way AIAC can).  ``guard``
    optionally attaches a :class:`~repro.guard.InvariantMonitor`.
    """
    run = build_chain(
        problem, platform, config, model="siac", host_order=host_order
    )
    if injector is not None:
        install_sync_recovery(run)
        injector.install(run)
    if guard is not None:
        guard.attach(run)
    for ctx in run.ranks:
        run.sim.spawn(f"siac-rank-{ctx.rank}", _siac_process(run, ctx))
    run.run()
    return run.result()
