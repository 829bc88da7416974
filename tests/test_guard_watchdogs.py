"""repro.guard.watchdogs: stall detection and divergence rollback."""

import math

import numpy as np
import pytest

from repro.core import SolverConfig, run_aiac
from repro.core.solver import build_chain
from repro.grid import homogeneous_cluster
from repro.guard import GuardConfig, InvariantMonitor, InvariantViolation
from repro.guard import watchdogs
from repro.guard.watchdogs import DivergenceGuard, build_stall_report
from repro.problems import HeatProblem, SyntheticProblem
from repro.runtime.tracer import Tracer


def _small(n=24, ranks=3, speed=2000.0):
    return (
        HeatProblem(n, t_end=0.05, n_steps=8),
        homogeneous_cluster(ranks, speed=speed),
        SolverConfig(tolerance=1e-6, max_iterations=100_000),
    )


def _wedged_run(horizon=1.0, on_stall="record"):
    """A chain with the guard attached but no rank processes: nothing
    ever sweeps, so every watchdog tick is a stall."""
    problem, platform, config = _small()
    run = build_chain(problem, platform, config, model="aiac")
    guard = InvariantMonitor(
        GuardConfig(stall_horizon=horizon, on_stall=on_stall)
    ).attach(run)
    return run, guard


# ----------------------------------------------------------------------
# Stall watchdog
# ----------------------------------------------------------------------
def test_stall_watchdog_records_report_and_fault():
    run, guard = _wedged_run(horizon=1.0)
    run.sim.at(3.5, lambda: None)
    run.sim.run(until=3.5)
    assert len(guard.stall_reports) == 3  # ticks at t=1, 2, 3
    report = guard.stall_reports[0]
    assert report.time == 1.0
    assert report.horizon == 1.0
    assert len(report.ranks) == run.n_ranks
    assert "stall" in report.format()
    faults = [f for f in run.tracer.faults if f.kind == "stall"]
    assert len(faults) == 3
    assert (faults[0].time, faults[0].t_end) == (1.0, 1.0)
    assert faults[0].rank == report.suspect_rank
    assert faults[0].detail == report.why


def test_stall_watchdog_raise_mode_escalates():
    run, guard = _wedged_run(horizon=1.0, on_stall="raise")
    run.sim.at(2.5, lambda: None)
    with pytest.raises(Exception, match="stall"):
        run.sim.run(until=2.5)


def test_stall_watchdog_quiet_on_healthy_run():
    problem, platform, config = _small()
    guard = InvariantMonitor(GuardConfig(stall_horizon=5.0))
    result = run_aiac(problem, platform, config, guard=guard)
    assert result.converged
    assert guard.stall_reports == []


def test_stall_watchdog_does_not_rearm_after_halt():
    problem, platform, config = _small()
    guard = InvariantMonitor(GuardConfig(stall_horizon=5.0))
    result = run_aiac(problem, platform, config, guard=guard)
    # Once converged the periodic event stops re-arming, so the DES
    # queue drains: virtual time must not run away to max_time.
    assert guard.run.sim.now <= result.time + 2 * 5.0


def test_stall_report_suspects_dead_rank_first():
    run, guard = _wedged_run()
    run.ranks[1].node.alive = False
    report = build_stall_report(run, 1.0, [0] * run.n_ranks)
    assert report.suspect_rank == 1
    assert "down" in report.why


def test_stall_report_suspects_least_advanced_rank_and_channel():
    run, guard = _wedged_run()
    run.ranks[0].iteration = 12
    run.ranks[1].iteration = 3
    run.ranks[2].iteration = 9
    # Rank 1's left halo is fresh, its right halo lags 4 sweeps behind
    # rank 2: the starving channel is the one fed from the right.
    run.ranks[1].halo_iter_left = 12
    run.ranks[1].halo_iter_right = 5
    report = build_stall_report(run, 1.0, [12, 3, 9])
    assert report.suspect_rank == 1
    assert report.suspect_channel == "halo_from_right"
    assert "least-advanced" in report.why


def test_stall_report_suspects_busy_rank_over_slow_rank():
    run, guard = _wedged_run()
    run.ranks[0].iteration = 1  # least advanced but healthy
    run.ranks[2].iteration = 7
    original = run.rank_busy
    run.rank_busy = lambda rank: rank == 2
    try:
        report = build_stall_report(run, 1.0, [1, 0, 7])
    finally:
        run.rank_busy = original
    assert report.suspect_rank == 2
    assert "migration" in report.why


# ----------------------------------------------------------------------
# Divergence watchdog
# ----------------------------------------------------------------------
class _FakeRun:
    """Just enough ChainRun surface for DivergenceGuard.after_sweep."""

    def __init__(self, checkpoint_every=20):
        self.checkpoint_every = checkpoint_every
        self.tracer = Tracer()
        self.restored = []
        self.checkpointed = []
        self.config = SolverConfig(tolerance=1e-6)

        class _Sim:
            now = 1.0

        self.sim = _Sim()

    def restore_checkpoint(self, ctx):
        self.restored.append(ctx.rank)

    def checkpoint(self, ctx):
        self.checkpointed.append(ctx.rank)


class _FakeCtx:
    def __init__(self, rank=0, residual=1.0, lo=0, hi=8):
        self.rank = rank
        self.residual = residual
        self.iteration = 1
        self.lo = lo
        self.hi = hi


def test_divergence_guard_rolls_back_on_nan_immediately():
    run = _FakeRun()
    guard = DivergenceGuard()
    ctx = _FakeCtx(residual=0.5)
    assert guard.after_sweep(run, ctx) is False
    ctx.residual = float("nan")
    assert guard.after_sweep(run, ctx) is True
    assert run.restored == [0]
    assert guard.events[0]["residual"] is not ctx.residual or math.isnan(
        guard.events[0]["residual"]
    )
    assert run.tracer.faults[0].kind == "divergence-rollback"


def test_divergence_guard_needs_patience_for_finite_blowup(monkeypatch):
    run = _FakeRun()
    monkeypatch.setattr(watchdogs, "DIVERGENCE_PATIENCE", 3)
    guard = DivergenceGuard()
    ctx = _FakeCtx()
    ctx.residual = 1e-3
    assert not guard.after_sweep(run, ctx)  # best = 1e-3
    for expected in (False, False, True):  # 3 consecutive blow-ups
        ctx.residual = 1e3
        assert guard.after_sweep(run, ctx) is expected
    assert run.restored == [0]
    # The rollback resets the streak: the next blow-up starts over.
    ctx.residual = 1e3
    assert not guard.after_sweep(run, ctx)


def test_divergence_guard_improvement_resets_streak(monkeypatch):
    run = _FakeRun()
    monkeypatch.setattr(watchdogs, "DIVERGENCE_PATIENCE", 2)
    guard = DivergenceGuard()
    ctx = _FakeCtx()
    ctx.residual = 1e-3
    guard.after_sweep(run, ctx)
    ctx.residual = 1e3
    assert not guard.after_sweep(run, ctx)
    ctx.residual = 1e-4  # recovers on its own
    assert not guard.after_sweep(run, ctx)
    ctx.residual = 1e3
    assert not guard.after_sweep(run, ctx)  # streak restarted at 1
    assert run.restored == []


def test_divergence_guard_tolerance_floor_ignores_reactivation(monkeypatch):
    """Sub-tolerance noise is convergence, not a divergence baseline."""
    run = _FakeRun()
    monkeypatch.setattr(watchdogs, "DIVERGENCE_PATIENCE", 1)
    guard = DivergenceGuard()
    ctx = _FakeCtx()
    ctx.residual = 1e-14  # locally quiescent block
    guard.after_sweep(run, ctx)
    # Fresh boundary data re-activates the block: 1e-5 is 9 orders
    # above best but far below tolerance * factor = 1e-6 * 1e4 = 1e-2.
    ctx.residual = 1e-5
    assert not guard.after_sweep(run, ctx)
    assert run.restored == []
    # A genuine blow-up past the floored reference still trips.
    ctx.residual = 1.0
    assert guard.after_sweep(run, ctx) is True


def test_divergence_guard_resets_baseline_on_migration(monkeypatch):
    run = _FakeRun()
    monkeypatch.setattr(watchdogs, "DIVERGENCE_PATIENCE", 1)
    guard = DivergenceGuard()
    ctx = _FakeCtx(lo=0, hi=2)
    ctx.residual = 1e-15  # near-empty block at machine epsilon
    guard.after_sweep(run, ctx)
    # Load balancing regrows the block; its residual scale is new.
    ctx.lo, ctx.hi = 0, 12
    ctx.residual = 1e-1
    assert not guard.after_sweep(run, ctx)
    assert run.restored == []


def test_divergence_guard_refreshes_checkpoints_on_unfaulted_runs(monkeypatch):
    run = _FakeRun(checkpoint_every=0)  # no injector = no periodic snaps
    monkeypatch.setattr(watchdogs, "ROLLBACK_REFRESH", 5)
    guard = DivergenceGuard()
    ctx = _FakeCtx()
    for i in range(11):
        ctx.residual = 1.0 / (i + 1)
        guard.after_sweep(run, ctx)
    assert run.checkpointed == [0, 0]  # refreshed at improvements 5, 10


def test_guarded_run_recovers_from_injected_nan():
    """End-to-end: poison one rank's state mid-run; the watchdog rolls
    it back to a checkpoint and the run still converges correctly."""
    problem, platform, config = _small()
    _assert_recovers_from_injected_nan(
        problem, platform, config, problem.reference_solution()
    )


def test_guarded_synthetic_run_recovers_from_injected_nan():
    """The same on a synthetic chain of 3 ranks x 8 components: the NaN
    goes through the synthetic sweep as well as the heat one."""
    _, platform, config = _small()
    problem = SyntheticProblem.with_hard_region(24, hard_rate=0.9)
    # The errors' fixed point is zero.
    _assert_recovers_from_injected_nan(problem, platform, config, np.zeros(24))


def _assert_recovers_from_injected_nan(problem, platform, config, reference):
    guard = InvariantMonitor()
    victim = {}

    import repro.core.solver as solver_mod

    # The sweep-start seam: each rank's loop top, which runs the sweep.
    original_start = solver_mod._RankLoop._start

    def poisoned_start(self, *args):
        ctx = self.ctx
        if ctx.rank == 1 and ctx.iteration == 30 and not victim:
            victim["hit"] = True
            self.run.problem.state_array(ctx.state)[:] = np.nan
        return original_start(self, *args)

    solver_mod._RankLoop._start = poisoned_start
    try:
        result = run_aiac(problem, platform, config, guard=guard)
    finally:
        solver_mod._RankLoop._start = original_start
    assert victim.get("hit")
    assert result.converged
    assert len(guard.divergence_events) >= 1
    assert guard.divergence_events[0]["rank"] == 1
    assert math.isnan(guard.divergence_events[0]["residual"])
    assert result.max_error_vs(reference) < 1e-3
    guard.verify_halt()
