"""Tests for the topology-generic LB zoo driver (repro.balancing.zoo)."""

import numpy as np
import pytest

from repro.balancing.zoo import (
    ZOO_ALGORITHMS,
    ZOO_SCHEDULES,
    TriggerPolicy,
    ZooParams,
    initial_load,
    make_zoo_schedule,
    run_zoo,
)
from repro.topology.graphs import TopologySpec, build_topology, spec_for_family


def _params(rounds=48, **kwargs):
    return ZooParams(rounds=rounds, **kwargs)


@pytest.mark.parametrize("algorithm", ZOO_ALGORITHMS)
@pytest.mark.parametrize("schedule_name", ZOO_SCHEDULES)
def test_every_algorithm_conserves_load_under_every_schedule(
    algorithm, schedule_name
):
    topo = build_topology(spec_for_family("torus", 16, seed=0))
    params = _params()
    schedule = make_zoo_schedule(schedule_name, topo, params.rounds, seed=1)
    # run_zoo asserts conservation internally every balancing step; a
    # completed run with a sane final imbalance is the pass signal.
    result = run_zoo(topo, algorithm, params=params, schedule=schedule, seed=1)
    assert result.final_imbalance >= 1.0 - 1e-9
    assert result.rounds == params.rounds
    assert result.checks == -(-params.rounds // params.trigger.check_every)


@pytest.mark.parametrize("algorithm", ZOO_ALGORITHMS)
def test_runs_are_deterministic(algorithm):
    topo = build_topology(spec_for_family("random_geometric", 12, seed=4))
    params = _params()
    schedule = make_zoo_schedule("link_flap", topo, params.rounds, seed=2)
    a = run_zoo(topo, algorithm, params=params, schedule=schedule, seed=2)
    b = run_zoo(topo, algorithm, params=params, schedule=schedule, seed=2)
    assert a.to_row() == b.to_row()


def test_trigger_threshold_gates_steps():
    topo = build_topology(spec_for_family("torus", 16, seed=0))
    # Threshold above the spike's imbalance (max/mean == n) -> never fires.
    lazy = ZooParams(
        rounds=32, trigger=TriggerPolicy(check_every=1, threshold=100.0)
    )
    result = run_zoo(topo, "diffusion", params=lazy, seed=0)
    assert result.triggers == 0
    assert result.volume == 0.0
    assert result.final_imbalance == pytest.approx(16.0)
    # Threshold 1.02 on the same spike -> fires until balanced.
    eager = ZooParams(
        rounds=32, trigger=TriggerPolicy(check_every=1, threshold=1.02)
    )
    result = run_zoo(topo, "diffusion", params=eager, seed=0)
    assert result.triggers > 0
    assert result.final_imbalance < 16.0


def test_trigger_check_every_skips_rounds():
    topo = build_topology(spec_for_family("ring", 8, seed=0))
    params = ZooParams(
        rounds=40, trigger=TriggerPolicy(check_every=8, threshold=1.02)
    )
    result = run_zoo(topo, "diffusion", params=params, seed=0)
    assert result.checks == 5
    assert result.triggers <= 5


def test_node_outage_freezes_the_node():
    topo = build_topology(TopologySpec("chain", 6))
    params = _params(rounds=20)
    schedule = make_zoo_schedule("node_outage", topo, params.rounds, seed=3)
    assert len(schedule.node_outages) == 1
    result = run_zoo(topo, "diffusion", params=params, schedule=schedule, seed=3)
    # The run completes and stays conserved (asserted internally) even
    # though a node sat out a window with its load frozen.
    assert result.final_imbalance >= 1.0


def test_link_flap_schedule_targets_real_edges():
    topo = build_topology(spec_for_family("hypercube", 16, seed=0))
    schedule = make_zoo_schedule("link_flap", topo, 60, seed=5)
    edges = set(topo.edges())
    assert schedule.link_outages
    for outage in schedule.link_outages:
        assert (min(outage.u, outage.v), max(outage.u, outage.v)) in edges
        assert 0 <= outage.start < outage.end <= 60


def test_load_shock_raises_total_then_rebalances():
    topo = build_topology(spec_for_family("torus", 16, seed=0))
    params = _params(rounds=60)
    schedule = make_zoo_schedule("load_shock", topo, params.rounds, seed=1)
    assert len(schedule.shocks) == 2
    quiet = run_zoo(topo, "accelerated", params=params, seed=1)
    shocked = run_zoo(
        topo, "accelerated", params=params, schedule=schedule, seed=1
    )
    # The shocks show up as extra transfer volume and a higher peak.
    assert shocked.volume > quiet.volume
    assert shocked.peak_imbalance > 1.0


def test_wan_edges_cost_more_on_hierarchies():
    topo = build_topology(spec_for_family("hierarchy", 16, seed=0))
    params = _params()
    result = run_zoo(topo, "diffusion", params=params, seed=0)
    assert result.wan_volume > 0.0
    # Every WAN unit is charged wan_cost, LAN units cost 1.
    lan_volume = result.volume - result.wan_volume
    expected = lan_volume + params.wan_cost * result.wan_volume
    assert result.comm_cost == pytest.approx(expected)


def test_accelerated_limiter_keeps_loads_nonnegative():
    # A chain spike is the worst case for momentum overdraw.
    topo = build_topology(TopologySpec("chain", 8))
    params = ZooParams(
        rounds=80, trigger=TriggerPolicy(check_every=1, threshold=1.01)
    )
    result = run_zoo(topo, "accelerated", params=params, seed=0)
    # The imbalance metric is only meaningful for nonnegative loads; a
    # negative mean would have poisoned it.  The history must always be
    # >= 1 (max/mean of a nonnegative vector).
    assert all(h >= 1.0 - 1e-9 for h in result.history)
    assert result.final_imbalance < 2.0


def test_initial_load_kinds():
    topo = build_topology(spec_for_family("torus", 16, seed=0))
    for kind in ("spike", "uniform", "bimodal"):
        load = initial_load(topo, kind, seed=3)
        assert load.shape == (16,)
        assert np.all(load >= 0.0)
        assert load.sum() == pytest.approx(8.0 * 16)
    assert initial_load(topo, "spike")[0] == pytest.approx(128.0)
    with pytest.raises(ValueError):
        initial_load(topo, "gaussian")


def test_unknown_algorithm_and_schedule_raise():
    topo = build_topology(TopologySpec("chain", 4))
    with pytest.raises(ValueError):
        run_zoo(topo, "simulated_annealing", params=_params(rounds=2))
    with pytest.raises(ValueError):
        make_zoo_schedule("meteor_strike", topo, 10)


def test_params_validation():
    with pytest.raises(ValueError):
        ZooParams(rounds=0)
    with pytest.raises(ValueError):
        ZooParams(threshold_ratio=1.0)
    with pytest.raises(ValueError):
        ZooParams(accuracy=0.0)
    with pytest.raises(ValueError):
        TriggerPolicy(check_every=0)
    with pytest.raises(ValueError):
        TriggerPolicy(threshold=0.9)


def test_centralized_routes_through_the_graph():
    # On a chain, moving the spike from node 0 to node 5 must traverse
    # every intermediate edge: volume counts each hop.
    topo = build_topology(TopologySpec("chain", 6))
    params = ZooParams(
        rounds=4, trigger=TriggerPolicy(check_every=1, threshold=1.02)
    )
    result = run_zoo(topo, "centralized", params=params, seed=0)
    # Balancing the spike needs sum over dst of amount*hops; direct
    # endpoint-to-endpoint accounting would report only ~40 units.
    direct_total = 8.0 * 6 - 8.0  # everything except node 0's fair share
    assert result.volume > direct_total
    assert result.final_imbalance == pytest.approx(1.0)


def test_reactive_residual_levels_a_two_node_imbalance():
    topo = build_topology(TopologySpec("chain", 2))
    params = ZooParams(
        rounds=40, trigger=TriggerPolicy(check_every=1, threshold=1.02)
    )
    result = run_zoo(topo, "reactive_residual", params=params, seed=0)
    assert result.final_imbalance < 1.1


def test_value_corruption_lies_change_decisions_but_conserve_load():
    topo = build_topology(spec_for_family("torus", 16, seed=0))
    params = _params(rounds=60)
    schedule = make_zoo_schedule("value_corruption", topo, params.rounds, seed=7)
    assert len(schedule.corruptions) == 2
    over, under = schedule.corruptions
    assert over.factor > 1.0 > under.factor
    assert over.node != under.node
    for lie in schedule.corruptions:
        assert 0 <= lie.node < 16
        assert 0 <= lie.start < lie.end <= params.rounds
    honest = run_zoo(topo, "diffusion", params=params, seed=7)
    lied = run_zoo(topo, "diffusion", params=params, schedule=schedule, seed=7)
    # The lies changed balancing decisions (run_zoo asserts the true
    # total stayed conserved every step of both runs)...
    assert lied.to_row() != honest.to_row()
    # ...and the forced outflow limiter kept true loads nonnegative:
    # max/mean of a nonnegative vector is always >= 1.
    assert all(h >= 1.0 - 1e-9 for h in lied.history)
