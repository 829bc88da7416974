"""Unit-level tests of the migration handshake (offer / reply / data).

These drive small, crafted chains and inspect the protocol state
machines directly — complementing the end-to-end tests in
test_core_lb.py.
"""

import numpy as np
import pytest

from repro.core import LBConfig, SolverConfig, run_balanced_aiac
from repro.core.lb import _BalancedRun
from repro.core.partition import PartitionError
from repro.core.solver import build_chain
from repro.faults import FaultInjector, FaultSchedule, ResilienceConfig
from repro.grid import homogeneous_cluster
from repro.grid.host import Host
from repro.grid.link import Link
from repro.grid.network import Network
from repro.grid.platform import Platform
from repro.problems import SyntheticProblem
from repro.runtime.message import Message


def two_rank_platform(latency=0.01):
    net = Network(Link(latency=latency, bandwidth=1e6))
    return Platform(hosts=[Host("a", 100.0), Host("b", 400.0)], network=net)


def imbalanced_problem(n=24):
    # Uniform slow rates: residual lag between unequal-speed hosts
    # triggers migrations.
    return SyntheticProblem(np.full(n, 0.9), coupling=0.2)


CFG = SolverConfig(tolerance=1e-8, max_iterations=40000)


def test_every_offer_gets_exactly_one_reply():
    r = run_balanced_aiac(
        imbalanced_problem(),
        two_rank_platform(),
        CFG,
        LBConfig(period=3, min_components=2),
    )
    assert r.converged
    offers = [m for m in r.tracer.messages if m.kind.startswith("lb_offer")]
    replies = [m for m in r.tracer.messages if m.kind.startswith("lb_reply")]
    assert len(offers) == len(replies)
    assert len(offers) == r.meta["offers_sent"]


def test_data_messages_match_accepted_offers():
    r = run_balanced_aiac(
        imbalanced_problem(),
        two_rank_platform(),
        CFG,
        LBConfig(period=3, min_components=2),
    )
    data = [m for m in r.tracer.messages if m.kind.startswith("lb_data")]
    # Every migration produced one data message; cancels (n=0) may add more.
    assert len(data) >= r.n_migrations
    accepted = r.meta["offers_sent"] - r.meta["offers_rejected"]
    assert len(data) == accepted


def test_migration_sizes_respect_caps():
    lb = LBConfig(period=3, min_components=3, max_fraction=0.25, accuracy=1.0)
    r = run_balanced_aiac(imbalanced_problem(32), two_rank_platform(), CFG, lb)
    assert r.converged
    sizes = {0: 16, 1: 16}
    for m in sorted(r.tracer.migrations, key=lambda m: m.time):
        assert m.n_components <= max(1, int(0.25 * sizes[m.src_rank]))
        sizes[m.src_rank] -= m.n_components
        sizes[m.dst_rank] += m.n_components
        assert sizes[m.src_rank] >= 3


def test_partition_registry_validates_final_blocks():
    r = run_balanced_aiac(
        imbalanced_problem(),
        two_rank_platform(),
        CFG,
        LBConfig(period=3, min_components=2),
    )
    blocks = sorted(r.final_partition)
    assert blocks[0][0] == 0
    assert blocks[-1][1] == 24
    assert blocks[0][1] == blocks[1][0]


def test_stale_halos_are_dropped_when_blocks_move():
    # Frequent migrations + noticeable latency => some in-flight halos
    # carry positions that no longer match and must be dropped.
    r = run_balanced_aiac(
        imbalanced_problem(48),
        two_rank_platform(latency=0.2),
        CFG,
        LBConfig(period=2, min_components=2, max_fraction=0.5),
    )
    assert r.converged
    assert np.max(r.solution()) < 1e-8  # correctness despite drops
    if r.n_migrations > 3:
        assert r.meta["stale_halos_dropped"] >= 0


def test_three_rank_chain_funnels_work_to_fast_middle():
    net = Network(Link(latency=0.01, bandwidth=1e6))
    plat = Platform(
        hosts=[Host("slow-l", 100.0), Host("fast", 600.0), Host("slow-r", 100.0)],
        network=net,
    )
    r = run_balanced_aiac(
        imbalanced_problem(30),
        plat,
        CFG,
        LBConfig(period=3, min_components=2),
    )
    assert r.converged
    sizes = r.meta["final_sizes"]
    assert sizes[1] > sizes[0]
    assert sizes[1] > sizes[2]


# ---------------------------------------------------------------------------
# Adaptive frequency (the paper's future work)
# ---------------------------------------------------------------------------


def test_adaptive_mode_converges_and_is_correct():
    lb = LBConfig(period=4, adaptive=True, period_min=2, period_max=32)
    r = run_balanced_aiac(imbalanced_problem(), two_rank_platform(), CFG, lb)
    assert r.converged
    assert np.max(r.solution()) < 1e-8


def test_adaptive_mode_sends_fewer_offers_when_balanced():
    """On an already-balanced homogeneous run, adaptive backs off."""
    prob = lambda: SyntheticProblem(np.full(32, 0.9), coupling=0.2)  # noqa: E731
    plat = homogeneous_cluster(2, speed=100.0)
    fixed = run_balanced_aiac(
        prob(), plat, CFG, LBConfig(period=4, threshold_ratio=1e9)
    )
    adaptive = run_balanced_aiac(
        prob(),
        plat,
        CFG,
        LBConfig(period=4, threshold_ratio=1e9, adaptive=True, period_max=64),
    )
    assert adaptive.converged and fixed.converged
    # Neither migrates (threshold is huge); both stay healthy.
    assert adaptive.n_migrations == fixed.n_migrations == 0


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        LBConfig(period_min=0)
    with pytest.raises(ValueError):
        LBConfig(period_min=8, period_max=4)


def test_paper_mode_retries_every_sweep_once_triggered():
    """Without adaptivity, a node whose counter hit 0 keeps trying every
    sweep until a migration fires (Algorithm 4/5 semantics)."""
    r = run_balanced_aiac(
        imbalanced_problem(),
        two_rank_platform(),
        CFG,
        LBConfig(period=10, min_components=2),
    )
    assert r.converged
    assert r.meta["offers_sent"] >= r.n_migrations


@pytest.mark.parametrize(
    "theirs, outcome, offered",
    [(2.0, "balanced", None), (1.0, "offered", 4), (0.0, "offered", 6)],
)
def test_try_lb_offers_the_surplus_fraction_of_the_block(theirs, outcome, offered):
    # Algorithm 5 on a hand-built pair: 12 components, estimate 3.0 against
    # ``theirs``, threshold 2 -> floor(accuracy * 12 * (1 - 1/ratio)).
    run = build_chain(imbalanced_problem(), two_rank_platform(), CFG, model="aiac+lb")
    balanced = _BalancedRun(run, LBConfig(accuracy=0.5, max_fraction=1.0))
    ctx = run.ranks[0]
    assert ctx.n_local == 12
    ctx.residual = 0.3
    ctx.estimator.update(0.3, 3.0, 1.0, ctx.n_local)
    ctx.neighbor_estimate["right"] = theirs
    assert balanced.try_lb(ctx, "right") == outcome
    assert balanced.lb[0].outgoing["right"] == offered


# ---------------------------------------------------------------------------
# Protocol timeouts (resilient transport only)
# ---------------------------------------------------------------------------
#: A handshake step is abandoned this long (virtual s) after it started.
TIMEOUT = 0.5


def timed_pair():
    """A loaded rank 0 next to an idle rank 1, a fault injector armed
    with a short protocol timeout, and a link so slow that nothing sent
    during a test arrives: a handler runs only when the test calls it,
    and the timers are the only events that fire."""
    run = build_chain(
        imbalanced_problem(), two_rank_platform(latency=10.0), CFG, model="aiac+lb"
    )
    balanced = _BalancedRun(run, LBConfig(accuracy=0.5, max_fraction=1.0))
    resilience = ResilienceConfig(protocol_timeout=TIMEOUT, base_timeout=5.0)
    FaultInjector(FaultSchedule(resilience=resilience)).install(run)
    ctx = run.ranks[0]
    ctx.residual = 0.3
    ctx.estimator.update(0.3, 3.0, 1.0, ctx.n_local)
    ctx.neighbor_estimate["right"] = 1.0
    return run, balanced


def lb_message(kind, payload, src_rank):
    return Message(
        kind=kind, payload=payload, size_bytes=8, src_rank=src_rank,
        dst_rank=1 - src_rank,
    )


def test_an_unanswered_offer_expires_and_frees_the_edge():
    run, balanced = timed_pair()
    ctx, state = run.ranks[0], balanced.lb[0]
    assert balanced.try_lb(ctx, "right") == "offered"
    run.sim.run(until=0.9 * TIMEOUT)
    assert state.outgoing["right"] == 4 and state.offers_timed_out == 0
    assert balanced.try_lb(ctx, "right") == "pending"
    run.sim.run(until=1.1 * TIMEOUT)
    assert state.offers_timed_out == 1
    assert state.outgoing["right"] is None and not balanced._rank_busy(0)
    assert state.ok_to_try == LBConfig().retry_delay
    assert balanced.try_lb(ctx, "right") == "offered"
    assert state.offers_sent == 2 and state.outgoing["right"] == 4


def test_a_stale_offer_timer_is_a_no_op():
    # The first offer is refused before its timer fires; when it does,
    # a second offer is outstanding on the same edge and must survive.
    run, balanced = timed_pair()
    ctx, state = run.ranks[0], balanced.lb[0]
    assert balanced.try_lb(ctx, "right") == "offered"
    reply = lb_message("lb_reply_from_right", {"accept": False}, src_rank=1)
    balanced._on_reply(ctx, "right", reply)
    assert state.offers_rejected == 1 and state.outgoing["right"] is None
    run.sim.run(until=0.6 * TIMEOUT)
    assert balanced.try_lb(ctx, "right") == "offered"
    run.sim.run(until=1.1 * TIMEOUT)  # the first offer's timer has fired
    assert state.offers_timed_out == 0 and state.outgoing["right"] == 4
    run.sim.run(until=1.7 * TIMEOUT)  # and now the second one's
    assert state.offers_timed_out == 1 and state.outgoing["right"] is None


def test_accepted_data_that_never_arrives_stops_being_expected():
    run, balanced = timed_pair()
    ctx, state = run.ranks[1], balanced.lb[1]
    offer = lb_message("lb_offer_from_left", {"n": 2}, src_rank=0)
    balanced._on_offer(ctx, "left", offer)
    assert state.incoming_expected["left"] and balanced._rank_busy(1)
    balanced._on_offer(ctx, "left", offer)  # refused: data still expected
    assert state.incoming_epoch["left"] == 1
    run.sim.run(until=1.1 * TIMEOUT)
    assert not state.incoming_expected["left"] and not balanced._rank_busy(1)
    balanced._on_offer(ctx, "left", offer)  # accepted again
    assert state.incoming_expected["left"] and state.incoming_epoch["left"] == 2
