"""SISC: Synchronous Iterations — Synchronous Communications (Figure 1).

All processors run the same iteration in lockstep: compute, exchange
boundary data, then pass a *global* barrier (the paper's "synchronous
global communications").  The idle time between a rank's compute phases
— waiting for slower ranks and for message transfers — is recorded as
:class:`~repro.runtime.tracer.IdleSpan` records, which is exactly the
white space of the paper's Figure 1.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import SolverConfig
from repro.core.records import RunResult
from repro.core.solver import ChainRun, RankContext, build_chain
from repro.des import Barrier, Signal, Wait
from repro.grid.platform import Platform
from repro.models._recovery import install_sync_recovery, request_fresh_halos
from repro.problems.base import Problem

__all__ = ["run_sisc"]


class _IterationBarrier:
    """Rollback-tolerant global barrier for fault-injected SISC runs.

    A classic counting :class:`~repro.des.Barrier` breaks under
    crash-restart: a recovered rank re-executes rolled-back iterations
    and re-arrives, desynchronising the arrival counts for good.  This
    variant tracks the *highest iteration completed* per rank (monotonic
    under re-execution): the barrier for iteration ``k`` opens once
    every rank has completed iteration ``k`` at least once.  Fault-free
    runs keep the original counting barrier, event-for-event.
    """

    def __init__(self, n_ranks: int) -> None:
        self.done = [0] * n_ranks
        self.signal = Signal("sisc-iteration-barrier")

    def arrive(self, rank: int, iteration: int, sim) -> None:
        if iteration > self.done[rank]:
            self.done[rank] = iteration
        self.signal.trigger(sim)

    def passed(self, iteration: int) -> bool:
        return all(d >= iteration for d in self.done)


def _sisc_process(run: ChainRun, ctx: RankContext, barrier: Barrier):
    sim = run.sim
    while not ctx.node.stop_requested:
        yield from run.sweep(ctx, send_left_mid_sweep=False, exclusive=False)
        if ctx.node.stop_requested:
            break
        estimate = ctx.estimator.value()
        run.send_halo(ctx, "left", estimate=estimate, exclusive=False)
        run.send_halo(ctx, "right", estimate=estimate, exclusive=False)
        # Wait for both neighbours' data of *this* iteration.
        wait_start = sim.now
        k = ctx.iteration
        while not ctx.node.stop_requested:
            need_left = ctx.rank > 0 and ctx.halo_iter_left < k
            need_right = ctx.rank < run.n_ranks - 1 and ctx.halo_iter_right < k
            if not (need_left or need_right):
                break
            yield Wait(ctx.halo_signal)
        if ctx.node.stop_requested:
            break
        # Global synchronisation: nobody starts iteration k+1 before
        # everyone finished exchanging iteration k.
        signal = barrier.arrive(sim)
        if signal is not None:
            yield Wait(signal)
        if sim.now > wait_start:
            run.tracer.idle(
                rank=ctx.rank, t0=wait_start, t1=sim.now, reason="sisc-sync"
            )


def _sisc_resilient_process(
    run: ChainRun, ctx: RankContext, barrier: _IterationBarrier
):
    """SISC main loop under fault injection.

    Same structure as :func:`_sisc_process`, plus crash recovery and the
    rollback-tolerant barrier.  During catch-up after a restore both the
    halo wait and the barrier are already satisfied (the other ranks are
    ahead), so the recovered rank re-iterates at full compute speed
    while everyone else stalls waiting for its current-iteration data —
    the global synchronisation penalty the resilience experiment
    measures.
    """
    sim = run.sim
    node = ctx.node
    while not node.stop_requested:
        if not node.alive:
            yield Wait(node.restart_signal)
            continue
        if node.crash_count != ctx.restored_epoch:
            run.restore_checkpoint(ctx)
            # The restored state attests that every iteration up to the
            # checkpoint completed.  Re-arrive at the barrier for it:
            # if the crash hit between the checkpointed sweep and its
            # barrier arrival, re-execution resumes *past* that
            # iteration and would never arrive, deadlocking the other
            # ranks at ``passed(checkpoint_iteration)`` forever.
            barrier.arrive(ctx.rank, ctx.iteration, sim)
            request_fresh_halos(run, ctx)
            continue
        yield from run.sweep(ctx, send_left_mid_sweep=False, exclusive=False)
        if node.stop_requested:
            break
        if not node.alive or node.crash_count != ctx.restored_epoch:
            continue  # the sweep was lost to a crash
        estimate = ctx.estimator.value()
        run.send_halo(ctx, "left", estimate=estimate, exclusive=False)
        run.send_halo(ctx, "right", estimate=estimate, exclusive=False)
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
        if interrupted or node.stop_requested:
            continue
        barrier.arrive(ctx.rank, k, sim)
        while not node.stop_requested and not barrier.passed(k):
            if not node.alive or node.crash_count != ctx.restored_epoch:
                interrupted = True
                break
            yield Wait(barrier.signal)
        if not interrupted and sim.now > wait_start:
            run.tracer.idle(
                rank=ctx.rank, t0=wait_start, t1=sim.now, reason="sisc-sync"
            )


def run_sisc(
    problem: Problem,
    platform: Platform,
    config: SolverConfig | None = None,
    *,
    host_order: list[int] | None = None,
    injector: Any = None,
    guard: Any = None,
) -> RunResult:
    """Solve ``problem`` with the SISC execution model.

    ``injector`` optionally arms a fault injector; the run then uses the
    rollback-tolerant :class:`_IterationBarrier` and re-sends halos on
    permanent transfer failure.  Fault-free runs are untouched.
    ``guard`` optionally attaches a
    :class:`~repro.guard.InvariantMonitor` (runtime safety invariants;
    see ``docs/robustness.md``).
    """
    run = build_chain(
        problem, platform, config, model="sisc", host_order=host_order
    )
    if guard is not None:
        guard.attach(run)
    if injector is not None:
        install_sync_recovery(run)
        injector.install(run)
        it_barrier = _IterationBarrier(run.n_ranks)
        for ctx in run.ranks:
            run.sim.spawn(
                f"sisc-rank-{ctx.rank}",
                _sisc_resilient_process(run, ctx, it_barrier),
            )
    else:
        barrier = Barrier(run.n_ranks, name="sisc")
        for ctx in run.ranks:
            run.sim.spawn(
                f"sisc-rank-{ctx.rank}", _sisc_process(run, ctx, barrier)
            )
    run.run()
    return run.result()
