"""The rank loop's event stream, pinned, and its crash-restart recovery.

Every dispatched event's ``(time, SimProfiler kind)`` is folded into a
digest, next to the run's fingerprint and the simulator's dispatch
count, for each model on three setups: Figure 5's tiny scenario at
p = 4, the integrity sweep's ``ckpt+crash`` schedule with the guard
attached, and AIAC with token-ring detection.  A change to how a rank
steps through its sweeps may change what it costs on the host; it may
not move one event, reorder two, or change a kind.

The second half forces the recovery the rank loop's crash prologue
owns (ROADMAP 4 (b)): an AIAC+LB rank crashing inside a sweep's hold —
once with a downtime that outlasts the hold, once restarting inside it.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis.perf import run_fingerprint
from repro.core.lb import _BalancedRun
from repro.core.solver import ChainRun, build_chain, run_aiac, run_chain
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSchedule, HostCrash
from repro.guard import InvariantMonitor
from repro.models.registry import run_model
from repro.obs.profile import _kind_of
from repro.workloads.scenarios import (
    Figure5Scenario,
    IntegrityScenario,
    ResilienceScenario,
)


class _DispatchDigest:
    """Profiler-slot observer hashing each event's time and kind."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.n = 0

    def record(self, event) -> None:
        self.sha.update(f"{event.time!r} {_kind_of(event.callback)}\n".encode())
        self.n += 1


@pytest.fixture
def dispatched(monkeypatch):
    """The ``n_dispatched`` of every chain run, in run order."""
    counts = []
    original = ChainRun.run

    def run(self):
        original(self)
        counts.append(self.sim.n_dispatched)

    monkeypatch.setattr(ChainRun, "run", run)
    return counts


def _pin(result, digest, dispatched):
    assert dispatched == [digest.n]  # the observer saw every dispatch
    return digest.sha.hexdigest()[:16], run_fingerprint(result)[:16], digest.n


_FIGURE5 = {
    "aiac": ("d0b57a7ff361b115", "ba20a38dc9fb544d", 10030),
    "aiac+lb": ("49476a9bb934b809", "adf6419ae21cb59f", 5258),
    "siac": ("8e8e8198433e076c", "a63d08b1f6bb8205", 1529),
    "sisc": ("4e23c7192a22abdd", "27ce736960c285f6", 1837),
}


@pytest.mark.parametrize("model", sorted(_FIGURE5))
def test_figure5_tiny_dispatch_stream(model, dispatched):
    scenario = Figure5Scenario.tiny()
    digest = _DispatchDigest()
    result = run_model(
        model, scenario, platform=scenario.platform(4), profiler=digest
    )
    assert result.converged
    assert _pin(result, digest, dispatched) == _FIGURE5[model]


_CKPT_CRASH = {
    "aiac": ("158059f5db115705", "e3b38f8747908521", 6544),
    "aiac+lb": ("a974115a30209dcb", "df867f16ff32051f", 7928),
    "siac": ("9a8986d027ee2663", "a32a933f770bc5ae", 6667),
    "sisc": ("b5bbcd5cdfdd3d27", "26fa754091d5a86a", 7833),
}


@pytest.mark.parametrize("model", sorted(_CKPT_CRASH))
def test_ckpt_crash_guarded_dispatch_stream(model, dispatched):
    scenario = IntegrityScenario.tiny()
    digest = _DispatchDigest()
    guard = InvariantMonitor(scenario.guard_config())
    result = run_model(
        model,
        scenario,
        injector=FaultInjector(scenario.schedule("ckpt+crash", detect=True)),
        profiler=digest,
        guard=guard,
    )
    assert result.converged
    assert guard.events_seen == digest.n
    assert _pin(result, digest, dispatched) == _CKPT_CRASH[model]


def test_token_ring_aiac_dispatch_stream(dispatched):
    scenario = Figure5Scenario.tiny()
    config = dataclasses.replace(scenario.solver_config(), detection="token_ring")
    digest = _DispatchDigest()
    result = run_aiac(
        scenario.problem(), scenario.platform(4), config, profiler=digest
    )
    assert result.converged
    assert result.meta["detection_messages"] > 0
    assert _pin(result, digest, dispatched) == (
        "2c0bdb51ec0b0e77",
        "c3623e2f973a98bb",
        11318,
    )


# ----------------------------------------------------------------------
# Crash-restart inside a sweep's hold (ROADMAP 4 (b))
# ----------------------------------------------------------------------
#: Rank 1's sweeps last 0.024-0.044 virtual seconds around t = 3.5 on
#: this scenario; the one in progress at t = 3.5 started at 3.492.
_CRASH_AT = 3.5


@pytest.mark.parametrize(
    ("downtime", "parks"),
    [(1.0, True), (0.005, False)],
    ids=["restart-after-the-hold", "restart-inside-the-hold"],
)
def test_crash_inside_a_hold_voids_the_sweep_and_restores(
    downtime, parks, monkeypatch
):
    """A crash voids the sweep in progress, the rank parks on its
    restart signal (when the downtime outlasts the hold), then restores
    its last verified checkpoint, and the run still converges."""
    scenario = ResilienceScenario.tiny()
    problem = scenario.problem()
    run = build_chain(
        problem, scenario.platform(), scenario.solver_config(), model="aiac+lb"
    )
    balanced = _BalancedRun(run, scenario.lb_config())
    ctx = run.ranks[1]
    node = ctx.node
    injector = FaultInjector(
        FaultSchedule(
            faults=(HostCrash(rank=1, at=_CRASH_AT, downtime=downtime),),
            seed=scenario.seed,
            resilience=scenario.resilience(),
        )
    )
    seen: dict = {"votes": [], "sweeps": []}

    report = run.monitor.report

    def voting(rank, residual, now):
        if rank == 1:
            seen["votes"].append(now)
        report(rank, residual, now)

    run.monitor.report = voting
    iteration = run.tracer.iteration

    def sweeping(rank, k, t0, t1, work):
        if rank == 1:
            seen["sweeps"].append(t1)
        iteration(rank, k, t0, t1, work)

    run.tracer.iteration = sweeping

    crash, restart = FaultInjector._crash, FaultInjector._restart

    def crashing(self, fault):
        crash(self, fault)
        seen["crash"] = run.sim.now
        seen["at_crash"] = (ctx.iteration, copy.deepcopy(ctx.estimator))

    def restarting(self, rank):
        seen["restart"] = run.sim.now
        seen["parked"] = [p.name for p in node.restart_signal._waiters]
        restart(self, rank)

    monkeypatch.setattr(FaultInjector, "_crash", crashing)
    monkeypatch.setattr(FaultInjector, "_restart", restarting)

    restore = run.restore_checkpoint

    def restoring(c):
        if c is ctx:
            # The voided sweep left no trace: no iteration, no estimator
            # update, no convergence vote since the crash.
            k, estimator = seen["at_crash"]
            assert ctx.iteration == k
            assert vars(ctx.estimator) == vars(estimator)
            assert [t for t in seen["votes"] if t >= seen["crash"]] == []
            assert [t for t in seen["sweeps"] if t >= seen["crash"]] == []
            snap = copy.deepcopy(run._verified_snapshot(ctx))
        restore(c)
        if c is ctx:
            seen["restored_at"] = run.sim.now
            assert ctx.iteration == snap["iteration"]
            assert ctx.restored_epoch == node.crash_count == 1
            np.testing.assert_array_equal(
                problem.state_array(ctx.state), problem.state_array(snap["state"])
            )

    run.restore_checkpoint = restoring

    result = run_chain(run, injector=injector, trial=balanced.trial)

    assert seen["crash"] == _CRASH_AT
    assert seen["restart"] == _CRASH_AT + downtime
    if parks:
        # The hold ended while the host was down: the rank parked.
        assert seen["parked"] == ["aiac+lb-rank-1"]
        assert seen["restored_at"] == seen["restart"]
    else:
        # Restarted while still holding: nobody parked, and the restore
        # waited for the end of the hold the crash voided.
        assert seen["parked"] == []
        assert seen["restored_at"] > seen["restart"]
    assert injector.stats["crashes"] == injector.stats["restarts"] == 1
    assert result.converged
    assert result.max_error_vs(problem.reference_solution()) < 1e-3
