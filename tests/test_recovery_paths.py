"""One test per row of the recovery table in ``docs/robustness.md``.

Each test *forces* its path — the fault is scheduled so that the recovery
must run — and checks the path's own counters and trace records, not just
that the run survived.  Rows whose forcing test lives elsewhere
(``test_runtime_resilience.py``) are named in the table.
"""

import numpy as np
import pytest

from repro.core.config import LBConfig
from repro.core.estimators import make_estimator
from repro.core.lb import _BalancedRun, run_balanced_aiac
from repro.core.solver import build_chain, run_aiac
from repro.faults import (
    FaultInjector,
    HostCrash,
    MessageLoss,
    PayloadCorruption,
    StateCorruption,
)
from repro.grid.platform import homogeneous_cluster
from repro.guard import GuardConfig, InvariantMonitor
from repro.models import run_siac, run_sisc
from repro.runtime.message import Message
from repro.runtime.node import GridNode

from tests.test_faults_injector import make_config, make_problem, make_schedule
from tests.test_runtime_resilience import make_pair


def _fault_trace(tracer):
    return [(fault.kind, fault.detail) for fault in tracer.faults]


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
def test_checksum_reject_retransmits_the_pristine_original():
    # Every delivery before t = 0.1 is damaged on the wire: the first copy
    # fails its checksum and is dropped without handler or ack; the retry
    # hands over the sender's buffered original, bit for bit.
    sim, a, b, injector = make_pair(
        PayloadCorruption(1.0, t0=0.0, t1=0.1), latency=0.01
    )
    got = []
    b.register_handler("data", lambda m: got.append((m.attempt, m.payload)))
    payload = np.arange(4.0)
    a.send(b, "data", payload, 32.0)
    sim.run()
    assert [attempt for attempt, _ in got] == [1]
    assert got[0][1] is payload and np.array_equal(payload, np.arange(4.0))
    stats = injector.stats
    assert (stats["corruptions_injected"], stats["corruptions_detected"]) == (1, 1)
    assert (stats["retries"], stats["sends_failed"]) == (1, 0)
    assert [kind for kind, _ in _fault_trace(a.tracer)] == [
        "payload_corruption",
        "corruption_detected",
    ]


def test_lost_ack_forces_a_retransmission_the_receiver_suppresses():
    # The loss window opens after the data left and closes before the
    # retry: only the acknowledgement is dropped.
    sim, a, b, injector = make_pair(
        MessageLoss(1.0, t0=0.005, t1=0.05), latency=0.01
    )
    got = []
    b.register_handler("data", lambda m: got.append((m.attempt, m.payload)))
    a.send(b, "data", "once", 8.0)
    sim.run()
    assert got == [(0, "once")]
    assert injector.stats["acks_dropped"] == 1 and injector.stats["retries"] == 1
    assert b.duplicates_suppressed == 1
    assert not a.channel_busy("data", 1)


def test_exhausted_migration_transfer_is_reabsorbed_by_its_sender():
    # Every migration-data transmission before t = 4 is lost: each transfer
    # exhausts its budget, the failure handler merges the orphaned
    # components back, and conservation holds at every guard check.
    problem = make_problem()
    platform = homogeneous_cluster(4, speed=2000.0)
    platform.hosts[0].speed = 500.0  # an imbalance worth migrating for
    injector = FaultInjector(
        make_schedule(
            MessageLoss(
                1.0, t0=0.0, t1=4.0, kinds=("lb_data_from_left", "lb_data_from_right")
            )
        )
    )
    guard = InvariantMonitor(GuardConfig())
    result = run_balanced_aiac(
        problem,
        platform,
        make_config(),
        LBConfig(period=5, min_components=2),
        injector=injector,
        guard=guard,
    )
    guard.verify_halt()
    assert result.converged
    assert result.meta["reabsorbed"] == injector.stats["sends_failed"] == 3
    assert [kind for kind, _ in _fault_trace(result.tracer)] == ["reabsorb"] * 3
    assert result.max_error_vs(problem.reference_solution()) < 1e-3


def test_migration_data_dropped_at_a_crashed_receiver_is_reabsorbed():
    # The receiver of the first migration crashes the instant the data
    # leaves (it has just accepted) and stays down for 5 s, longer than
    # the sender's retry budget: every copy evaporates at the dead host,
    # the transfer exhausts its attempts undelivered, and the sender
    # merges the orphaned components back.
    def balanced(*faults, guard=None):
        problem = make_problem()
        platform = homogeneous_cluster(4, speed=2000.0)
        platform.hosts[0].speed = 500.0
        injector = FaultInjector(make_schedule(*faults))
        result = run_balanced_aiac(
            problem,
            platform,
            make_config(),
            LBConfig(period=5, min_components=2),
            injector=injector,
            guard=guard,
        )
        return problem, injector, result

    _, _, clean = balanced()
    first = clean.tracer.migrations[0]
    guard = InvariantMonitor(GuardConfig())
    problem, injector, result = balanced(
        HostCrash(first.dst_rank, at=first.time, downtime=5.0), guard=guard
    )
    guard.verify_halt()
    assert injector.stats["dropped_at_dead_host"] > 0
    assert injector.stats["crashes"] == injector.stats["restarts"] == 1
    reabsorbs = [f for f in result.tracer.faults if f.kind == "reabsorb"]
    assert result.meta["reabsorbed"] >= 1
    assert reabsorbs and reabsorbs[0].rank == first.src_rank
    assert first.time < reabsorbs[0].time < first.time + 5.0
    assert guard.checks_run > 0
    assert result.converged
    assert result.max_error_vs(problem.reference_solution()) < 1e-3


def lossy_handshake(kind):
    """Two ranks of a balanced run, wired by hand, with every copy of
    ``kind`` lost: a transfer of that kind exhausts its five attempts
    within 1.9 s, long before the 30 s protocol timeout, so only the
    transport's failure hook can resolve it.  The rank processes never
    start; handlers run when the test calls them."""
    run = build_chain(
        make_problem(), homogeneous_cluster(2, speed=2000.0), make_config(),
        model="aiac+lb",
    )
    balanced = _BalancedRun(run, LBConfig(accuracy=0.5, max_fraction=1.0))
    injector = FaultInjector(make_schedule(MessageLoss(1.0, kinds=(kind,))))
    injector.install(run)
    return run, balanced, injector


def test_an_offer_that_exhausts_its_retries_frees_the_edge():
    run, balanced, injector = lossy_handshake("lb_offer_from_left")
    ctx, state = run.ranks[0], balanced.lb[0]
    ctx.residual = 0.3
    ctx.estimator.update(0.3, 3.0, 1.0, ctx.n_local)
    ctx.neighbor_estimate["right"] = 1.0
    assert balanced.try_lb(ctx, "right") == "offered"
    run.sim.run(until=1.0)  # still retransmitting
    assert state.outgoing["right"] == 5 and balanced.try_lb(ctx, "right") == "pending"
    run.sim.run(until=5.0)
    stats = injector.stats
    assert (stats["retries"], stats["sends_failed"]) == (4, 1)
    assert state.offers_timed_out == 1 and state.offers_rejected == 0
    assert state.outgoing["right"] is None and not balanced._rank_busy(0)
    assert state.ok_to_try == LBConfig().retry_delay
    assert balanced.try_lb(ctx, "right") == "offered"
    assert state.offers_sent == 2


def test_an_undelivered_acceptance_stops_being_expected_at_once():
    run, balanced, injector = lossy_handshake("lb_reply_from_right")
    ctx, state = run.ranks[1], balanced.lb[1]
    offer = Message(
        kind="lb_offer_from_left", payload={"n": 2}, size_bytes=8,
        src_rank=0, dst_rank=1,
    )
    balanced._on_offer(ctx, "left", offer)
    assert state.incoming_expected["left"] and balanced._rank_busy(1)
    run.sim.run(until=1.0)  # the accepting reply is still retransmitting
    assert state.incoming_expected["left"]
    run.sim.run(until=5.0)
    assert injector.stats["sends_failed"] == 1
    assert not state.incoming_expected["left"] and not balanced._rank_busy(1)
    balanced._on_offer(ctx, "left", offer)  # accepted again, epoch 1 pending
    assert state.incoming_expected["left"] and state.incoming_epoch["left"] == 2


# ----------------------------------------------------------------------
# Synchronous models: a lost halo is never superseded by a fresher one
# ----------------------------------------------------------------------
SYNC_DRIVERS = {"siac": run_siac, "sisc": run_sisc}


@pytest.fixture
def sends(monkeypatch):
    """Every ``GridNode.send`` call of the test, as (time, src, dst, kind,
    payload); a resend hands over the *same* payload object again."""
    log = []
    send = GridNode.send

    def spy(node, dst, kind, payload, size_bytes, *, exclusive=False):
        log.append((node.sim.now, node.rank, dst.rank, kind, payload))
        return send(node, dst, kind, payload, size_bytes, exclusive=exclusive)

    monkeypatch.setattr(GridNode, "send", spy)
    return log


def run_sync(model, *faults):
    injector = FaultInjector(make_schedule(*faults))
    result = SYNC_DRIVERS[model](
        make_problem(), homogeneous_cluster(3, speed=2000.0), make_config(),
        injector=injector,
    )
    assert result.converged
    assert result.max_error_vs(make_problem().reference_solution()) < 1e-3
    return result, injector


@pytest.mark.parametrize(
    "model, stamps_lost, stamps_resent, sends_failed",
    [("siac", [1, 2], [2], 3), ("sisc", [1], [1], 2)],
    ids=["siac", "sisc"],
)
def test_an_exhausted_halo_transfer_is_sent_again(
    sends, model, stamps_lost, stamps_resent, sends_failed
):
    # Every rightward halo sent before t = 1 is lost: each such transfer
    # exhausts its five attempts by ~1.7 s, and the receiver waits for
    # that very iteration's data, so only the failure handler's resend
    # can unblock the chain.  SIAC's rank 0 sends twice into the window
    # (it already holds rank 1's first halo): the superseded first
    # payload is not resent.
    _, injector = run_sync(
        model, MessageLoss(1.0, t0=0.0, t1=1.0, kinds=("halo_from_left",))
    )
    assert injector.stats["sends_failed"] == sends_failed
    channel = [
        (t, payload)
        for t, src, dst, kind, payload in sends
        if (src, dst, kind) == (0, 1, "halo_from_left")
    ]
    firsts = {}
    resent = []
    for i, (t, payload) in enumerate(channel):
        if id(payload) in firsts:
            # A resend repeats the channel's latest send.
            assert channel[i - 1][1] is payload
            resent.append(payload["iteration"])
        firsts.setdefault(id(payload), (t, payload))
    lost = [p["iteration"] for t, p in firsts.values() if t <= 1.0]
    assert (lost, resent) == (stamps_lost, stamps_resent)


@pytest.mark.parametrize("model", ["siac", "sisc"])
def test_a_restored_rank_pulls_both_halos_again(model):
    # Rank 1 of 3 crashes just after its checkpointed sweep 20, while it
    # waits for its neighbours' halos of that sweep.  The restore rolls
    # its halo stamps back and the neighbours owe it nothing: it asks
    # both for their boundary, and both answer on arrival.  On SISC it
    # also re-arrives at the barrier for iteration 20, which it never
    # reached before the crash and re-execution resumes past it:
    # without that the neighbours would wait at it forever.
    reference, _ = run_sync(model, HostCrash(rank=1, at=1e6, downtime=1.0))
    (t20,) = [
        span.t1
        for span in reference.tracer.iterations
        if (span.rank, span.iteration) == (1, 20)
    ]
    result, injector = run_sync(model, HostCrash(rank=1, at=t20 + 1e-6, downtime=1.0))
    assert (injector.stats["crashes"], injector.stats["restarts"]) == (1, 1)
    (restart,) = [f.time for f in result.tracer.faults if f.kind == "restart"]
    requests = [m for m in result.tracer.messages if m.kind == "halo_request"]
    assert [(m.src_rank, m.dst_rank) for m in requests] == [(1, 0), (1, 2)]
    assert all(m.send_time >= restart for m in requests)
    answers = {
        (m.kind, m.src_rank)
        for m in result.tracer.messages
        for req in requests
        if m.dst_rank == 1 and m.send_time == req.arrival_time
    }
    assert answers == {("halo_from_left", 0), ("halo_from_right", 2)}
    resumed = [
        span.iteration
        for span in result.tracer.iterations
        if span.rank == 1 and span.t0 >= restart
    ]
    assert resumed[0] == 21


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
def test_poisoned_checkpoint_falls_back_then_reinitialises_cold():
    problem = make_problem()
    run = build_chain(problem, homogeneous_cluster(4, speed=2000.0), make_config())
    fault = StateCorruption(rank=1, at=1e6, target="checkpoint", mode="bitflip")
    injector = FaultInjector(make_schedule(fault))
    injector.install(run)
    ctx = run.ranks[1]
    values = problem.state_array(ctx.state)
    initial = values.copy()

    values += 1.0
    ctx.iteration = 5
    run.checkpoint(ctx)
    older = ctx.checkpoint
    values += 1.0
    ctx.iteration = 9
    run.checkpoint(ctx)
    assert ctx.checkpoint_prev is older

    # The freshest snapshot rots at rest: the restore lands on the one
    # before it, which still verifies.
    assert run.corrupt_block(fault, injector._corrupt_rng) is not None
    run.restore_checkpoint(ctx)
    assert ctx.checkpoint is older and ctx.checkpoint_prev is None
    assert ctx.iteration == 5
    assert np.array_equal(problem.state_array(ctx.state), initial + 1.0)
    assert _fault_trace(run.tracer) == [
        ("corruption_detected", "checkpoint CRC mismatch"),
        ("corruption_rollback", "fell back to last verified checkpoint"),
    ]

    # That one rots too, and nothing verified is left: the block restarts
    # from the problem's initial data, under a fresh, valid stamp.
    assert run.corrupt_block(fault, injector._corrupt_rng) is not None
    ctx.halo_iter_left = 4
    run.restore_checkpoint(ctx)
    assert ctx.iteration == 0 and ctx.halo_iter_left == -1
    assert np.array_equal(problem.state_array(ctx.state), initial)
    assert np.array_equal(ctx.halo_left, problem.initial_halo(ctx.lo - 1))
    assert _fault_trace(run.tracer)[2:] == [
        ("corruption_detected", "checkpoint CRC mismatch"),
        ("corruption_rollback", "re-initialized block from problem initial data"),
    ]
    snapshot = ctx.checkpoint
    assert snapshot["crc"] == run._checkpoint_crc(snapshot)
    assert (snapshot["lo"], snapshot["hi"]) == (ctx.lo, ctx.hi)
    stats = injector.stats
    assert (stats["corruptions_detected"], stats["corruption_rollbacks"]) == (2, 2)


@pytest.mark.parametrize(
    "kind", ["residual", "residual_max", "iteration_time", "component_count"]
)
def test_a_checkpoint_snapshots_the_estimator_and_a_restore_brings_it_back(kind):
    # The snapshot shares nothing the live estimator changes: sweeps after
    # the checkpoint leave it as taken, a restore hands its estimate back,
    # and the restored estimator is the rank's own again.
    platform = homogeneous_cluster(2, speed=2000.0)
    run = build_chain(make_problem(), platform, make_config())
    ctx = run.ranks[0]
    ctx.estimator = make_estimator(kind)

    def sweep(k):
        ctx.estimator.update(
            residual=0.5 / k, residual_l2=2.0 / k, sweep_duration=float(k), n_local=k
        )

    for k in range(1, 4):
        sweep(k)
    run.checkpoint(ctx)
    taken = ctx.estimator.value()
    for k in range(4, 12):
        sweep(k)
    assert ctx.estimator.value() != taken
    assert ctx.checkpoint["estimator"].value() == taken
    run.restore_checkpoint(ctx)
    assert ctx.estimator.value() == taken
    sweep(12)
    assert ctx.estimator.value() != taken
    assert ctx.checkpoint["estimator"].value() == taken


# ----------------------------------------------------------------------
# Live state
# ----------------------------------------------------------------------
def test_poisoned_live_block_is_rolled_back_by_the_plausibility_screen():
    problem = make_problem()
    injector = FaultInjector(
        make_schedule(
            StateCorruption(
                rank=1, at=1.0, target="state", mode="perturb", amplitude=1e15
            )
        )
    )
    guard = InvariantMonitor(GuardConfig())
    result = run_aiac(
        problem,
        homogeneous_cluster(4, speed=2000.0),
        make_config(),
        injector=injector,
        guard=guard,
    )
    guard.verify_halt()
    (event,) = guard.plausibility_events
    assert event["rank"] == 1 and event["why"].startswith("state magnitude")
    assert guard.divergence_events == []
    stats = injector.stats
    assert (
        stats["corruptions_injected"],
        stats["corruptions_detected"],
        stats["corruption_rollbacks"],
    ) == (1, 1, 1)
    assert [kind for kind, _ in _fault_trace(result.tracer)] == [
        "state_corruption",
        "corruption_detected",
        "corruption_rollback",
    ]
    assert result.converged
    assert result.max_error_vs(problem.reference_solution()) < 1e-3
