"""repro.guard.invariants: attach wiring, catalogue checks, halt oracle."""

import numpy as np
import pytest

from repro.core import SolverConfig, run_aiac, run_balanced_aiac
from repro.core.config import LBConfig
from repro.core.solver import build_chain
from repro.grid import homogeneous_cluster
from repro.guard import GuardConfig, InvariantMonitor, InvariantViolation
from repro.problems import HeatProblem


def _small(n=24, ranks=3, speed=2000.0):
    return (
        HeatProblem(n, t_end=0.05, n_steps=8),
        homogeneous_cluster(ranks, speed=speed),
        SolverConfig(tolerance=1e-6, max_iterations=100_000),
    )


# ----------------------------------------------------------------------
# GuardConfig validation
# ----------------------------------------------------------------------
def test_guard_config_rejects_bad_values():
    with pytest.raises(ValueError):
        GuardConfig(check_every=0)
    with pytest.raises(ValueError):
        GuardConfig(stall_horizon=-1.0)
    with pytest.raises(ValueError, match="on_stall"):
        GuardConfig(on_stall="panic")


# ----------------------------------------------------------------------
# Attach wiring
# ----------------------------------------------------------------------
def test_attach_occupies_profiler_slot_and_chains():
    problem, platform, config = _small()
    run = build_chain(problem, platform, config, model="aiac")

    class Recorder:
        def __init__(self):
            self.n = 0

        def record(self, event):
            self.n += 1

    recorder = Recorder()
    run.sim.profiler = recorder
    guard = InvariantMonitor().attach(run)
    assert run.sim.profiler is guard
    assert guard.chain is recorder
    assert run.guard is guard
    # Chained observer still sees every event the monitor sees.
    run.sim.at(1.0, lambda: None)
    run.sim.run(until=2.0)
    assert guard.events_seen == recorder.n > 0


def test_attach_twice_is_rejected():
    problem, platform, config = _small()
    run = build_chain(problem, platform, config, model="aiac")
    guard = InvariantMonitor().attach(run)
    with pytest.raises(RuntimeError, match="already attached"):
        guard.attach(run)


def test_attach_seeds_rollback_checkpoints():
    problem, platform, config = _small()
    run = build_chain(problem, platform, config, model="aiac")
    assert all(ctx.checkpoint is None for ctx in run.ranks)
    InvariantMonitor().attach(run)
    for ctx in run.ranks:
        snap = ctx.checkpoint
        assert snap is not None
        assert (snap["lo"], snap["hi"]) == (ctx.lo, ctx.hi)


# ----------------------------------------------------------------------
# Guarded clean runs: every model passes, answers unchanged
# ----------------------------------------------------------------------
def test_guarded_aiac_matches_unguarded_run_exactly():
    problem, platform, config = _small()
    plain = run_aiac(problem, platform, config)
    guard = InvariantMonitor()
    guarded = run_aiac(*_small(), guard=guard)
    assert guarded.converged and plain.converged
    assert guarded.time == plain.time
    assert guarded.iterations == plain.iterations
    np.testing.assert_array_equal(guarded.solution(), plain.solution())
    assert guard.checks_run > 0
    verdict = guard.verify_halt()
    assert verdict["declared_converged"]
    assert verdict["true_residual"] <= config.tolerance * 10.0


def test_guarded_balanced_run_passes_all_invariants():
    problem, platform, config = _small(n=32, ranks=4)
    guard = InvariantMonitor(GuardConfig(check_every=16, stall_horizon=50.0))
    result = run_balanced_aiac(
        problem,
        platform,
        config,
        LBConfig(period=5, min_components=2),
        guard=guard,
    )
    assert result.converged
    guard.verify_halt()
    stats = guard.stats()
    assert stats["checks_run"] > 0
    assert stats["stalls"] == 0
    assert stats["halt_verdict"]["declared_converged"]


# ----------------------------------------------------------------------
# The catalogue catches corruption (mutation tests)
# ----------------------------------------------------------------------
def _attached_run():
    problem, platform, config = _small()
    run = build_chain(problem, platform, config, model="aiac")
    guard = InvariantMonitor().attach(run)
    return run, guard


def test_conservation_catches_block_bounds_drift():
    run, guard = _attached_run()
    guard.check_invariants()  # sane to start with
    run.ranks[1].hi += 1  # rank now claims a component it does not own
    with pytest.raises(InvariantViolation, match="disagrees with registry"):
        guard.check_invariants()


def test_conservation_catches_lost_components():
    run, guard = _attached_run()
    ctx = run.ranks[1]
    # Shrink both the live block and the registry consistently, so only
    # the tiling check can notice the hole.
    run.partition._lo[ctx.rank] = ctx.lo + 1
    ctx.lo += 1
    ctx.state.traj = ctx.state.traj[1:]
    ctx.state.lo += 1
    with pytest.raises(InvariantViolation, match="lost"):
        guard.check_invariants()


def test_conservation_catches_state_length_mismatch():
    run, guard = _attached_run()
    ctx = run.ranks[0]
    ctx.state.traj = ctx.state.traj[:-1]
    with pytest.raises(InvariantViolation, match="holds"):
        guard.check_invariants()


def test_checkpoint_ownership_catches_stale_snapshot():
    run, guard = _attached_run()
    ctx = run.ranks[2]
    ctx.checkpoint["hi"] += 1
    with pytest.raises(InvariantViolation, match="checkpoint snapshots"):
        guard.check_invariants()


def test_crashed_rank_without_checkpoint_is_flagged():
    run, guard = _attached_run()
    ctx = run.ranks[0]
    ctx.node.alive = False
    ctx.checkpoint = None
    with pytest.raises(InvariantViolation, match="no checkpointed"):
        guard.check_invariants()


def test_sequence_monotonicity_catches_backwards_counter():
    # Sequence numbers exist on the resilient transport path; model a
    # sender that has issued 5 copies on the rank-0 -> rank-1 channel
    # and a receiver that saw up to seq 3 of them.
    run, guard = _attached_run()
    a, b = run.ranks[0].node, run.ranks[1].node
    a._send_seq[("probe", 1)] = 5
    b._recv_latest[("probe", 0)] = 3
    guard.check_invariants()
    a._send_seq[("probe", 1)] = 4  # counter moved backwards
    with pytest.raises(InvariantViolation, match="went backwards"):
        guard.check_invariants()


def test_sequence_monotonicity_catches_unissued_receipt():
    run, guard = _attached_run()
    a, b = run.ranks[0].node, run.ranks[1].node
    a._send_seq[("probe", 1)] = 5
    b._recv_latest[("probe", 0)] = 3
    guard.check_invariants()
    b._recv_latest[("probe", 0)] = 99  # peer never issued seq 99
    with pytest.raises(InvariantViolation, match="only issued"):
        guard.check_invariants()


# ----------------------------------------------------------------------
# The halt oracle
# ----------------------------------------------------------------------
def test_halt_oracle_flags_premature_termination():
    problem, platform, config = _small()
    guard = InvariantMonitor()
    result = run_aiac(problem, platform, config, guard=guard)
    assert result.converged
    run = guard.run
    # Corrupt one block after the fact: the detector's verdict is now
    # wrong by construction, and the oracle must notice.
    run.ranks[1].state.traj += 100.0
    with pytest.raises(InvariantViolation, match="premature termination"):
        guard.verify_halt()


def test_halt_oracle_accepts_honest_non_convergence():
    problem, platform, _ = _small()
    guard = InvariantMonitor()
    # A budget too small to converge: not converged, so no premature
    # termination no matter how large the residual is.
    config = SolverConfig(tolerance=1e-12, max_time=0.05)
    result = run_aiac(problem, platform, config, guard=guard)
    assert not result.converged
    verdict = guard.verify_halt()
    assert not verdict["declared_converged"]


def test_halt_oracle_never_drops_a_nan_residual():
    """A NaN in one block reaches ``judge_halt``, which never counts it
    within tolerance (Python's ``max(x, nan)`` is ``x``)."""
    from repro.models import run_model
    from repro.workloads import SoakScenario

    guard = InvariantMonitor()
    assert run_model("aiac", SoakScenario(), guard=guard).converged
    guard.run.ranks[1].state.traj[0, 3] = np.nan
    assert np.isnan(guard.true_global_residual())
    with pytest.raises(InvariantViolation, match="residual is nan"):
        guard.verify_halt()


def test_true_global_residual_handles_empty_blocks():
    problem, platform, config = _small()
    guard = InvariantMonitor()
    run_aiac(problem, platform, config, guard=guard)
    run = guard.run
    baseline = guard.true_global_residual()
    # Empty a middle block as a migration could: its neighbour takes
    # over the components; the walk must skip the empty block and read
    # the halo from the nearest non-empty one.
    left, mid = run.ranks[0], run.ranks[1]
    left.state.traj = np.concatenate([left.state.traj, mid.state.traj])
    left.hi = mid.hi
    mid.lo = mid.hi
    mid.state.traj = mid.state.traj[:0]
    mid.state.lo = mid.lo
    assert guard.true_global_residual() == pytest.approx(
        baseline, rel=1e-9, abs=1e-30
    )
