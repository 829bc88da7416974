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
from repro.des import SimulationError, Simulator, Wait
from repro.faults import FaultInjector
from repro.grid import Host, Link, homogeneous_cluster
from repro.guard import InvariantMonitor
from repro.models import run_model
from repro.problems import BrusselatorProblem, HeatProblem, SyntheticProblem
from repro.runtime.message import Message
from repro.util.validation import check_non_negative
from repro.workloads import Figure5Scenario, IntegrityScenario
from tests.conftest import force_sweep_path


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


#: Frames entered per sweep, measured on CPython 3.11, by (model, sweep
#: path): the compiled sweep enters two frames fewer than the Python one.
SWEEP_FRAMES = {
    ("aiac", "python"): 30.15,
    ("aiac+lb", "python"): 40.88,
    ("aiac", "compiled"): 28.15,
    ("aiac+lb", "compiled"): 38.88,
}


@pytest.mark.parametrize(("model", "path"), sorted(SWEEP_FRAMES))
def test_frames_entered_per_sweep_stay_under_the_measured_ceiling(
    model, path, monkeypatch
):
    """The event-driven path's per-event and per-message fixed cost, as a
    count that repeats exactly: what the callback-driven rank loop
    measured on each sweep path (``SWEEP_FRAMES``; the generator loop
    entered 66.6 / 85.1, and 79.5 / 108.8 before one resolved route per
    host pair; the compiled path 40.54 / 58.12, and the Python one
    42.54 / 60.12, before a sweep and its halos stopped calling for
    answers fixed for the run) plus 2 %.  A hot-path edit that adds a
    call per event, message or sweep fails here by name.  A ceiling, not
    an equality: CPython 3.12 inlines comprehensions."""
    force_sweep_path(monkeypatch, path)
    assert _repro_frames_per_sweep(model) <= SWEEP_FRAMES[model, path] * 1.02


#: Frames entered per protected message, measured on CPython 3.11, by
#: (corruption schedule, model, sweep path).
MESSAGE_FRAMES = {
    ("none", "aiac+lb", "python"): 43.74,
    ("none", "aiac", "python"): 39.98,
    ("flip_hi", "aiac+lb", "python"): 54.53,
    ("flip_hi", "aiac", "python"): 49.36,
    ("none", "aiac+lb", "compiled"): 42.59,
    ("none", "aiac", "compiled"): 38.68,
    ("flip_hi", "aiac+lb", "compiled"): 53.37,
    ("flip_hi", "aiac", "compiled"): 48.05,
}


@pytest.mark.parametrize(("schedule", "model", "path"), sorted(MESSAGE_FRAMES))
def test_frames_entered_per_protected_message_stay_under_the_ceiling(
    schedule, model, path, monkeypatch
):
    """The same count for the protected path: frames per message put on
    the wire by the detect arm of ``IntegrityScenario.tiny()`` (acked
    transport, checksums stamped and verified, checkpoints CRC-stamped,
    the guard attached), what the callback-driven rank loop measured on
    each sweep path (``MESSAGE_FRAMES``) plus 2 %.  The generator loop
    entered 72.3 / 68.1 without and 90.6 / 85.5 with payload corruption
    armed; before one serialising walk per payload, 81.6 / 78.5 and
    143.6 / 137.5.  Before a sweep and its halos stopped calling for
    answers fixed for the run, the compiled path entered 55.85 / 50.46
    without and 74.33 / 68.15 with corruption armed (AIAC+LB / AIAC),
    and the Python one 57.00 / 51.76 and 75.50 / 69.46.  Before a halo
    checksum took one walk frame, retry jitter came in blocks, the
    transport read the clock's field and skipped the wire filter with no
    wire fault scheduled, 46.32 / 41.66 and 65.45 / 59.88
    (compiled), 47.48 / 42.96 and 66.62 / 61.20 (Python)."""
    force_sweep_path(monkeypatch, path)
    scenario = IntegrityScenario.tiny()
    frames, result = _repro_frames(
        model,
        scenario,
        injector=FaultInjector(scenario.schedule(schedule, detect=True)),
        guard=InvariantMonitor(scenario.guard_config()),
    )
    measured = MESSAGE_FRAMES[schedule, model, path]
    assert frames / result.tracer.n_messages() <= measured * 1.02


# ----------------------------------------------------------------------
# The checks a sweep and its halos make inline raise what the helpers do
# ----------------------------------------------------------------------
def _message(call):
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


_BAD_SIDES = ["up", "", "Left", None, 0]


@pytest.mark.parametrize("side", _BAD_SIDES)
@pytest.mark.parametrize(
    "problem",
    [
        SyntheticProblem(np.full(8, 0.8), coupling=0.3),
        HeatProblem(8),
        BrusselatorProblem(8, t_end=1.0, n_steps=4),
    ],
    ids=["synthetic", "heat", "brusselator"],
)
def test_halo_out_rejects_a_bad_side_with_check_side_s_error(problem, side):
    """``halo_out`` branches on ``side`` itself (the base problem's and
    the Brusselator's); any other value raises ``check_side``'s text."""
    state = problem.initial_state(0, 4)
    expected = _message(lambda: problem.check_side(side))
    assert _message(lambda: problem.halo_out(state, side)) == expected


@pytest.mark.parametrize("value", [-1.0, float("nan"), -float("inf")])
def test_transfer_time_and_duration_reject_what_check_non_negative_does(value):
    """``Link.transfer_time`` and ``Host.duration_for_work`` check
    ``>= 0`` inline, with ``check_non_negative``'s message; 0 passes."""
    link, host = Link(1e-3, 1e6), Host("h", 100.0)
    assert _message(lambda: link.transfer_time(value, 0.0)) == _message(
        lambda: check_non_negative("nbytes", value)
    )
    assert _message(lambda: host.duration_for_work(value, 0.0)) == _message(
        lambda: check_non_negative("work", value)
    )
    assert link.transfer_time(0.0, 0.0) == 1e-3
    assert host.duration_for_work(0.0, 0.0) == 0.0


def test_simulator_at_names_the_callback_and_shares_the_queue_s_counter():
    """``Simulator.at`` pushes its own heap entry: a time in the past or a
    non-finite one still names the callback, and its events interleave
    with ``EventQueue.push_call``'s on one sequence counter."""
    sim = Simulator()
    order = []
    sim.at(1.0, order.append, "a")
    sim._queue.push_call(1.0, order.append, ("b",))
    handle = sim.at(1.0, order.append, "c")
    sim.at(0.5, order.append, "first")
    cancelled = sim.at(1.0, order.append, "never")
    cancelled.cancel()
    assert len(sim._queue) == 4
    sim.run()
    assert order == ["first", "a", "b", "c"]
    assert handle.time == 1.0 and handle._queue is None
    past = _message(lambda: sim.at(0.5, order.append, "late"))
    assert past == f"cannot schedule {order.append!r} in the past: time=0.5 < now=1.0"
    for bad in (float("inf"), float("nan")):
        assert _message(lambda: sim.at(bad, order.append)) == (
            f"event time for {order.append!r} must be finite, got {bad!r}"
        )


def test_a_rank_waiting_on_its_halos_is_woken_by_each_arrival():
    """``_on_halo`` triggers ``halo_signal`` only when a rank waits on it:
    an AIAC rank never does, and a SIAC / SISC rank parked in
    ``_await_halos`` is still woken by the halo it waits for.  The
    ``siac`` / ``sisc`` dispatch streams of ``tests/test_rank_loop_pins.py``
    (``test_figure5_tiny_dispatch_stream``,
    ``test_ckpt_crash_guarded_dispatch_stream``) pin every such wake-up;
    this is the same rule on one message."""
    run = make_run()
    ctx = run.ranks[1]  # block [8, 16)
    msg = halo_message(
        "halo_from_left",
        {"data": np.array([0.5]), "position": 7, "estimate": 0.9, "iteration": 3},
    )
    run._on_halo(ctx, "left", msg)  # nobody waits: nothing is triggered
    assert ctx.halo_signal.trigger_count == 0 and len(run.sim._queue) == 0
    woken = []

    def waiter():
        yield Wait(ctx.halo_signal)
        woken.append(ctx.halo_iter_left)

    run.sim.spawn("waiter", waiter())
    run.sim.run()  # parks on the signal
    assert ctx.halo_signal._waiters and not woken
    run._on_halo(ctx, "left", msg)
    assert ctx.halo_signal.trigger_count == 1
    run.sim.run()
    assert woken == [3]


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
