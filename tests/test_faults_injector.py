"""Tests for the fault injector: determinism, recovery, state restoration."""

import pytest

from repro.core.config import LBConfig, SolverConfig
from repro.core.lb import run_balanced_aiac
from repro.core.solver import build_chain, run_aiac
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    HostCrash,
    HostSlowdown,
    LatencySpike,
    MessageLoss,
    ResilienceConfig,
)
from repro.faults.injector import _RETRY_BLOCK
from repro.grid.platform import homogeneous_cluster
from repro.problems.heat import HeatProblem
from repro.util.rng import RngTree


def make_problem():
    # The ResilienceScenario.tiny() sizing: large enough that detection
    # slack stays well below the correctness thresholds asserted here.
    return HeatProblem(32, t_end=0.05, n_steps=8)


def make_config(**kwargs):
    kwargs.setdefault("tolerance", 1e-6)
    kwargs.setdefault("max_iterations", 50_000)
    kwargs.setdefault("max_time", 2000.0)
    return SolverConfig(**kwargs)


RESILIENCE = ResilienceConfig(
    base_timeout=0.05, heartbeat_period=1.0, liveness_timeout=3.0
)


def make_schedule(*faults, seed=11):
    return FaultSchedule(faults=faults, seed=seed, resilience=RESILIENCE)


def run_with(schedule, *, lb=False):
    injector = FaultInjector(schedule)
    if lb:
        result = run_balanced_aiac(
            make_problem(),
            homogeneous_cluster(4, speed=2000.0),
            make_config(),
            LBConfig(period=5, min_components=2),
            injector=injector,
        )
    else:
        result = run_aiac(
            make_problem(),
            homogeneous_cluster(4, speed=2000.0),
            make_config(),
            injector=injector,
        )
    return result, injector


# ----------------------------------------------------------------------
# Baseline and determinism
# ----------------------------------------------------------------------
def test_empty_schedule_is_a_correct_overhead_baseline():
    result, injector = run_with(make_schedule())
    assert result.converged
    reference = make_problem().reference_solution()
    assert result.max_error_vs(reference) < 1e-4
    assert injector.stats["messages_dropped"] == 0
    assert injector.stats["crashes"] == 0


def test_fault_runs_are_deterministic():
    schedule_faults = (
        MessageLoss(0.15),
        HostCrash(rank=2, at=2.0, downtime=(1.0, 2.0)),
    )
    a, stats_a = run_with(make_schedule(*schedule_faults))
    b, stats_b = run_with(make_schedule(*schedule_faults))
    assert a.time == b.time
    assert a.iterations == b.iterations
    assert stats_a.stats == stats_b.stats
    assert [x.tolist() for x in a.solution_blocks] == [
        x.tolist() for x in b.solution_blocks
    ]


def test_different_seed_changes_the_fault_realisation():
    fault = MessageLoss(0.3)
    a, stats_a = run_with(make_schedule(fault, seed=1))
    b, stats_b = run_with(make_schedule(fault, seed=2))
    assert stats_a.stats["messages_dropped"] != stats_b.stats["messages_dropped"]


# ----------------------------------------------------------------------
# Fault semantics, end to end
# ----------------------------------------------------------------------
def test_loss_forces_retries_but_preserves_correctness():
    result, injector = run_with(make_schedule(MessageLoss(0.2)))
    assert result.converged
    assert injector.stats["messages_dropped"] > 0
    assert injector.stats["retries"] > 0
    reference = make_problem().reference_solution()
    assert result.max_error_vs(reference) < 1e-3


def test_crash_restart_recovers_and_is_recorded():
    result, injector = run_with(
        make_schedule(HostCrash(rank=1, at=2.0, downtime=2.0))
    )
    assert result.converged
    assert injector.stats["crashes"] == 1
    assert injector.stats["restarts"] == 1
    kinds = [f.kind for f in result.tracer.faults]
    assert kinds.count("crash") == 1
    assert kinds.count("restart") == 1
    reference = make_problem().reference_solution()
    assert result.max_error_vs(reference) < 1e-3


def test_crash_without_restart_leaves_open_fault_window():
    # The dead rank never recovers: the run must stop on max_time, not
    # hang, and the crash record's window must stay open.
    injector = FaultInjector(make_schedule(HostCrash(rank=3, at=1.0)))
    result = run_aiac(
        make_problem(),
        homogeneous_cluster(4, speed=2000.0),
        make_config(max_time=20.0),
        injector=injector,
    )
    assert not result.converged
    (crash,) = [f for f in result.tracer.faults if f.kind == "crash"]
    assert crash.t_end == float("inf")
    assert injector.stats["restarts"] == 0


def test_slowdown_restores_host_speed():
    platform = homogeneous_cluster(4, speed=2000.0)
    injector = FaultInjector(
        make_schedule(
            HostSlowdown(rank=1, t0=1.0, t1=3.0, factor=0.25, ramp_steps=2)
        )
    )
    result = run_aiac(make_problem(), platform, make_config(), injector=injector)
    assert result.converged
    assert platform.hosts[1].speed == 2000.0  # ramp fully undone
    assert any(f.kind == "slowdown" for f in result.tracer.faults)


def test_latency_spike_restores_link_latency():
    platform = homogeneous_cluster(4, speed=2000.0)
    base_latency = platform.network.default_link.latency
    injector = FaultInjector(
        make_schedule(LatencySpike(t0=1.0, t1=2.0, factor=50.0))
    )
    result = run_aiac(make_problem(), platform, make_config(), injector=injector)
    assert result.converged
    assert platform.network.default_link.latency == base_latency


def test_lb_reabsorption_meta_present_under_faults():
    result, _ = run_with(
        make_schedule(MessageLoss(0.1), HostCrash(rank=2, at=2.0, downtime=1.5)),
        lb=True,
    )
    assert result.converged
    assert "reabsorbed" in result.meta
    assert "offers_timed_out" in result.meta
    reference = make_problem().reference_solution()
    assert result.max_error_vs(reference) < 1e-3


# ----------------------------------------------------------------------
# Installation guards
# ----------------------------------------------------------------------
def test_injector_is_single_use():
    injector = FaultInjector(make_schedule())
    run_aiac(
        make_problem(),
        homogeneous_cluster(4, speed=2000.0),
        make_config(),
        injector=injector,
    )
    with pytest.raises(RuntimeError, match="already installed"):
        run_aiac(
            make_problem(),
            homogeneous_cluster(4, speed=2000.0),
            make_config(),
            injector=injector,
        )


def test_injector_validates_fault_ranks():
    injector = FaultInjector(make_schedule(HostCrash(rank=9, at=1.0)))
    with pytest.raises(ValueError, match="rank 9"):
        run_aiac(
            make_problem(),
            homogeneous_cluster(4, speed=2000.0),
            make_config(),
            injector=injector,
        )


# ----------------------------------------------------------------------
# Checkpoint / restore invariants
# ----------------------------------------------------------------------
def test_restore_without_checkpoint_is_an_error():
    run = build_chain(
        make_problem(), homogeneous_cluster(4, speed=2000.0), make_config()
    )
    with pytest.raises(RuntimeError, match="checkpoint"):
        run.restore_checkpoint(run.ranks[0])


def test_checkpoint_restore_roundtrip():
    run = build_chain(
        make_problem(), homogeneous_cluster(4, speed=2000.0), make_config()
    )
    ctx = run.ranks[1]
    run.checkpoint(ctx)
    saved_iteration = ctx.iteration
    saved_lo, saved_hi = ctx.lo, ctx.hi
    ctx.iteration += 7
    ctx.halo_iter_left = 99
    run.restore_checkpoint(ctx)
    assert ctx.iteration == saved_iteration
    assert (ctx.lo, ctx.hi) == (saved_lo, saved_hi)
    assert ctx.halo_iter_left != 99


# ----------------------------------------------------------------------
# Retry jitter streams
# ----------------------------------------------------------------------
def test_pinned_retry_timeouts_per_rank_interleaved():
    # Each rank draws its jitter from its own named stream, so the values
    # a rank sees do not depend on how its draws interleave with other
    # ranks'.  First five per rank, seed 7, drawn in a mixed order.
    injector = FaultInjector(
        FaultSchedule(
            faults=(), seed=7, resilience=ResilienceConfig(base_timeout=0.5)
        )
    )
    drawn = {0: [], 1: [], 2: []}
    for rank in (0, 1, 2, 1, 0, 2, 2, 0, 1, 0, 1, 2, 2, 1, 0):
        drawn[rank].append(injector.retry_timeout(rank, len(drawn[rank])))
    assert {rank: [t.hex() for t in ts] for rank, ts in drawn.items()} == {
        0: [
            "0x1.2cffa2178ca29p-1", "0x1.04e2de7d7a426p+0",
            "0x1.243c0bd272480p+1", "0x1.25410aeea9162p+2",
            "0x1.065679ab717cdp+3",
        ],
        1: [
            "0x1.022bba0dfbbd5p-1", "0x1.10e6db3b5a416p+0",
            "0x1.2805e1aca9f75p+1", "0x1.0177fb60806a8p+2",
            "0x1.05c981988e087p+3",
        ],
        2: [
            "0x1.1c8bf8108e369p-1", "0x1.2b189eb140978p+0",
            "0x1.160aa0a51f902p+1", "0x1.214342af13eb3p+2",
            "0x1.1e2ded9048fc9p+3",
        ],
    }


def test_block_drawn_retry_jitter_is_the_scalar_stream():
    # The injector draws each rank's jitter a block at a time; drawn one
    # scalar at a time, the rank's "retry/<rank>" stream gives every
    # timeout bit for bit, across block boundaries, with the ranks'
    # draws interleaved unevenly and attempts past the first.
    rc = ResilienceConfig(base_timeout=0.5, backoff=1.5, jitter=0.25)
    injector = FaultInjector(FaultSchedule(faults=(), seed=7, resilience=rc))
    scalar = {
        rank: RngTree(7).child("faults").generator(f"retry/{rank}")
        for rank in (0, 1, 2)
    }
    drawn = dict.fromkeys(scalar, 0)
    pattern = (0, 1, 0, 2, 2, 1, 0)
    while min(drawn.values()) < 3 * _RETRY_BLOCK + 5:
        for rank in pattern:
            attempt = drawn[rank] % 4
            expected = (
                rc.base_timeout * rc.backoff**attempt
                * (1 + rc.jitter * scalar[rank].random())
            )
            assert injector.retry_timeout(rank, attempt) == expected
            drawn[rank] += 1
