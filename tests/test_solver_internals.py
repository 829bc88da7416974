"""White-box tests of the chain solver machinery."""

import math
import os
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SolverConfig, run_aiac
from repro.core.solver import build_chain, run_chain
from repro.des import SimulationError
from repro.faults import FaultInjector
from repro.grid import homogeneous_cluster
from repro.guard import InvariantMonitor
from repro.models import run_model
from repro.problems import BrusselatorProblem, HeatProblem, SyntheticProblem
from repro.runtime.message import Message
from repro.workloads import Figure5Scenario, IntegrityScenario
from tests.conftest import SWEEP_PATHS, force_sweep_path


def make_run(n_ranks=3, n=24):
    problem = SyntheticProblem(np.full(n, 0.8), coupling=0.3)
    platform = homogeneous_cluster(n_ranks, speed=100.0)
    return build_chain(problem, platform, SolverConfig(tolerance=1e-8))


def halo_message(kind, payload):
    return Message(
        kind=kind, payload=payload, size_bytes=8, src_rank=0, dst_rank=1
    )


def test_on_halo_accepts_matching_position():
    run = make_run()
    ctx = run.ranks[1]  # block [8, 16)
    msg = halo_message(
        "halo_from_left",
        {"data": np.array([0.5]), "position": 7, "estimate": 0.9, "iteration": 3},
    )
    run._on_halo(ctx, "left", msg)
    assert ctx.halo_left[0] == 0.5
    assert ctx.halo_iter_left == 3
    assert ctx.neighbor_estimate["left"] == 0.9
    assert ctx.stale_halos_dropped == 0


def test_on_halo_drops_stale_position_but_keeps_estimate():
    run = make_run()
    ctx = run.ranks[1]
    before = np.array(ctx.halo_left, copy=True)
    msg = halo_message(
        "halo_from_left",
        {"data": np.array([9.9]), "position": 5, "estimate": 0.7, "iteration": 4},
    )
    run._on_halo(ctx, "left", msg)
    assert np.array_equal(ctx.halo_left, before)  # data dropped
    assert ctx.halo_iter_left == -1
    assert ctx.neighbor_estimate["left"] == 0.7  # Algorithm 7: residual kept
    assert ctx.stale_halos_dropped == 1


def test_on_halo_right_side_position_check():
    run = make_run()
    ctx = run.ranks[1]  # block [8, 16): expects right halo position 16
    msg = halo_message(
        "halo_from_right",
        {"data": np.array([0.2]), "position": 16, "estimate": 0.1, "iteration": 2},
    )
    run._on_halo(ctx, "right", msg)
    assert ctx.halo_right[0] == 0.2
    assert ctx.halo_iter_right == 2


def test_send_halo_at_chain_edges_is_noop():
    run = make_run()
    assert not run.send_halo(run.ranks[0], "left", estimate=1.0, exclusive=False)
    assert not run.send_halo(run.ranks[2], "right", estimate=1.0, exclusive=False)
    # Nothing was timed, scheduled or traced for the two edge "sends".
    assert run.platform.network.messages_sent == 0
    assert len(run.sim._queue) == 0
    assert run.tracer.n_messages() == 0
    assert run.send_halo(run.ranks[0], "right", estimate=1.0, exclusive=False)
    assert run.platform.network.messages_sent == 1


def test_neighbor_resolution():
    run = make_run()
    assert run.neighbor(0, "left") is None
    assert run.neighbor(0, "right") is run.ranks[1]
    assert run.neighbor(2, "right") is None
    assert run.neighbor(2, "left") is run.ranks[1]


@pytest.mark.parametrize("n_ranks", [1, 2, 5])
def test_neighbor_table_is_the_topology_path_neighbors(n_ranks):
    # The chain is the path 0-1-...-(n-1): left is rank - 1, right is
    # rank + 1, and there is no neighbour past either end.
    run = make_run(n_ranks=n_ranks)
    for rank in range(n_ranks):
        left = run.ranks[rank - 1] if rank > 0 else None
        right = run.ranks[rank + 1] if rank < n_ranks - 1 else None
        assert run.neighbor(rank, "left") is left
        assert run.neighbor(rank, "right") is right


@pytest.mark.parametrize(
    "problem",
    [
        SyntheticProblem(np.full(12, 0.8), coupling=0.3),
        HeatProblem(12, t_end=0.05, n_steps=8),
        BrusselatorProblem(12, t_end=1.0, n_steps=6),
    ],
    ids=lambda problem: type(problem).__name__,
)
def test_halo_message_size_is_fixed_at_build(problem, monkeypatch):
    import repro.core.solver as solver

    monkeypatch.setattr(solver, "HEADER_BYTES", 48.0)
    run = build_chain(problem, homogeneous_cluster(3, speed=100.0), SolverConfig())
    assert run._halo_bytes == problem.halo_nbytes() + 48.0
    assert run.send_halo(run.ranks[1], "left", estimate=1.0, exclusive=False)
    assert run.platform.network.bytes_sent == run._halo_bytes


def test_abort_sets_reason_once():
    run = make_run()
    run.abort("first")
    run.abort("second")
    assert run.aborted_reason == "first"
    assert all(ctx.node.stop_requested for ctx in run.ranks)


def test_result_before_running_is_not_converged():
    run = make_run()
    result = run.result()
    assert not result.converged
    assert result.time == 0.0
    assert result.iterations == [0, 0, 0]


def test_initial_partition_matches_registry():
    run = make_run(n_ranks=3, n=25)
    assert [ctx.n_local for ctx in run.ranks] == run.partition.sizes()
    assert run.partition.sizes() == [9, 8, 8]


def test_detection_wiring_registers_handler_only_for_token_ring():
    problem = SyntheticProblem(np.full(12, 0.8), coupling=0.3)
    platform = homogeneous_cluster(2, speed=100.0)
    oracle = build_chain(problem, platform, SolverConfig(tolerance=1e-8))
    assert oracle.detector is None
    ring = build_chain(
        problem, platform, SolverConfig(tolerance=1e-8, detection="token_ring")
    )
    assert ring.detector is not None
    assert "detect_token" in ring.ranks[0].node._handlers


def test_token_ring_result_time_not_before_oracle_time():
    problem = SyntheticProblem(np.full(24, 0.85), coupling=0.3)
    platform = homogeneous_cluster(3, speed=100.0)
    r = run_aiac(
        problem, platform, SolverConfig(tolerance=1e-8, detection="token_ring")
    )
    assert r.converged
    assert r.meta["oracle_detection_time"] is not None
    assert r.time >= r.meta["oracle_detection_time"]
    assert r.meta["detection_messages"] > 0


_FINITE_OR_NOT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=500, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            _FINITE_OR_NOT,
            st.sampled_from([0.0, -0.0, 5e-324, 1e200, -1e200, 1e-200]),
        ),
        min_size=0,
        max_size=64,
    )
)
def test_estimator_l2_expression_is_np_linalg_norm_bitwise(values):
    """``ChainRun.sweep`` forms the load estimator's l2 as
    ``sqrt(r.r)``, the expression ``np.linalg.norm`` evaluates for a 1-D
    float array — including subnormals, overflow to ``inf`` and the
    ``nan``/``inf`` residuals a corrupted block reports."""
    r = np.array(values, dtype=float)
    with np.errstate(all="ignore"):
        ours = math.sqrt(float(r.dot(r)))
        theirs = float(np.linalg.norm(r))
    assert struct.pack("<d", ours) == struct.pack("<d", theirs)


# ----------------------------------------------------------------------
# Fixed cost of a sweep, counted in frames (independent of host speed)
# ----------------------------------------------------------------------
def _repro_frames(model, scenario, **run_kwargs):
    """Python frames entered under ``repro/`` by one run, and its result."""
    marker = os.sep + "repro" + os.sep
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call" and marker in frame.f_code.co_filename:
            frames += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run_model(model, scenario, **run_kwargs)
    finally:
        sys.setprofile(previous)
    assert result.converged
    return frames, result


def _repro_frames_per_sweep(model):
    scenario = Figure5Scenario.tiny()
    frames, result = _repro_frames(model, scenario, platform=scenario.platform(8))
    return frames / sum(result.iterations)


@pytest.mark.parametrize("path", SWEEP_PATHS)
@pytest.mark.parametrize(
    ("model", "measured"), [("aiac", 44.55), ("aiac+lb", 62.10)]
)
def test_frames_entered_per_sweep_stay_under_the_measured_ceiling(
    model, measured, path, monkeypatch
):
    """The event-driven path's per-event and per-message fixed cost, as a
    count that repeats exactly: what the callback-driven rank loop
    measured (CPython 3.11; the generator loop entered 66.6 / 85.1, and
    79.5 / 108.8 before one resolved route per host pair) plus 2 %, on
    each sweep path.  A hot-path edit that adds a call per event,
    message or sweep fails here by name.  A ceiling, not an equality:
    CPython 3.12 inlines comprehensions."""
    force_sweep_path(monkeypatch, path)
    assert _repro_frames_per_sweep(model) <= measured * 1.02


@pytest.mark.parametrize("path", SWEEP_PATHS)
@pytest.mark.parametrize(
    ("schedule", "model", "measured"),
    [
        ("none", "aiac+lb", 56.54),
        ("none", "aiac", 51.12),
        ("flip_hi", "aiac+lb", 75.04),
        ("flip_hi", "aiac", 68.81),
    ],
)
def test_frames_entered_per_protected_message_stay_under_the_ceiling(
    schedule, model, measured, path, monkeypatch
):
    """The same count for the protected path: frames per message put on
    the wire by the detect arm of ``IntegrityScenario.tiny()`` (acked
    transport, checksums stamped and verified, checkpoints CRC-stamped,
    the guard attached), what the callback-driven rank loop measured plus
    2 %, on each sweep path.  The generator loop entered 72.3 / 68.1
    without and 90.6 / 85.5 with payload corruption armed; before one
    serialising walk per payload, 81.6 / 78.5 and 143.6 / 137.5."""
    force_sweep_path(monkeypatch, path)
    scenario = IntegrityScenario.tiny()
    frames, result = _repro_frames(
        model,
        scenario,
        injector=FaultInjector(scenario.schedule(schedule, detect=True)),
        guard=InvariantMonitor(scenario.guard_config()),
    )
    assert frames / result.tracer.n_messages() <= measured * 1.02


# ----------------------------------------------------------------------
# The rank loop's phases fail the run the way a generator process did
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", ["aiac", "aiac+lb", "siac", "sisc"])
def test_a_raising_phase_fails_the_run_in_the_rank_s_name(model, monkeypatch):
    """An exception from a sweep names the rank's process and the time,
    as when the loop was a generator whose step raised."""
    scenario = Figure5Scenario.tiny()
    problem = scenario.problem()
    iterate = problem.iterate
    calls = []

    def failing(state, left, right):
        calls.append(None)
        if len(calls) == 10:
            raise RuntimeError("sweep failed")
        return iterate(state, left, right)

    monkeypatch.setattr(problem, "iterate", failing)
    monkeypatch.setattr(scenario.__class__, "problem", lambda self: problem)
    with pytest.raises(SimulationError) as caught:
        run_model(model, scenario, platform=scenario.platform(4))
    message = str(caught.value)
    assert re.fullmatch(
        rf"process '{re.escape(model)}-rank-\d' failed at t=[0-9.e-]+: "
        r"RuntimeError\('sweep failed'\)",
        message,
    ), message
    assert isinstance(caught.value.__cause__, RuntimeError)


@pytest.mark.parametrize(
    ("duration", "shown"), [(float("nan"), "nan"), (float("inf"), "inf")]
)
def test_a_sweep_duration_the_clock_cannot_take_is_rejected(
    duration, shown, monkeypatch
):
    """What ``Hold`` rejects, the rank loop's holds reject: the run
    fails in rank 0's name at t = 0 with ``Hold``'s message, and the
    clock never takes the value."""
    from repro.grid.host import Host

    monkeypatch.setattr(Host, "duration_for_work", lambda self, work, t0: duration)
    run = make_run()
    with pytest.raises(SimulationError) as caught:
        run_chain(run)
    assert str(caught.value) == (
        "process 'aiac-rank-0' failed at t=0.0: ValueError('Hold duration "
        f"must be finite and >= 0, got {shown}')"
    )
    assert run.sim.now == 0.0
    assert not run.sim.processes[0].alive
