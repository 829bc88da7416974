"""Tests for the LB policies (``make_policy``), driven one step at a time
and to a level load by the test-local loop of ``tests/oracles.py``, and
the library pieces they share (colouring, coordinator)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balancing import (
    ZOO_ALGORITHMS,
    TriggerPolicy,
    ZooParams,
    centralized_balance,
    diffusion_matrix,
    edge_colouring,
    make_policy,
    run_zoo,
)
from repro.balancing.accelerated import safe_alpha
from repro.topology.graphs import TopologySpec, build_topology
from tests.oracles import balance, fault_free_view

#: path, cycle, hypercube, star — the graphs every converging policy must level.
GRAPHS = [nx.path_graph(6), nx.cycle_graph(7), nx.hypercube_graph(3), nx.star_graph(5)]

#: Fires the zoo trigger every round until the load is exactly level.
ALWAYS = TriggerPolicy(check_every=1, threshold=1.0)


def step(policy, view, load):
    """One unlimited round: apply ``plan`` the way the loops do."""
    new = load.copy()
    for u, v, amount in policy.plan(view, load):
        new[u] -= amount
        new[v] += amount
    return new


def assert_balances(algorithm, graph, per_node=4.0):
    n = graph.number_of_nodes()
    load = np.zeros(n)
    load[0] = per_node * n
    final, rounds = balance(graph, load, algorithm, tol=1e-8)
    assert rounds > 0
    assert np.allclose(final, per_node, atol=1e-6)
    assert final.sum() == pytest.approx(load.sum(), rel=1e-12)
    assert load[0] == per_node * n  # the caller's vector is not touched
    return rounds


# ---------------------------------------------------------------------------
# Every policy: the invariants of one step
# ---------------------------------------------------------------------------


@st.composite
def connected_graph_and_load(draw):
    """A random tree plus random chords, and a non-negative load on it."""
    n = draw(st.integers(2, 9))
    tree = [(draw(st.integers(0, node - 1)), node) for node in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    chords = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=n))
    loads = st.just(0.0) | st.floats(1e-3, 100.0)
    load = draw(st.lists(loads, min_size=n, max_size=n))
    return nx.Graph(tree + chords), np.array(load)


@pytest.mark.parametrize("algorithm", ZOO_ALGORITHMS)
@settings(max_examples=25, deadline=None)
@given(drawn=connected_graph_and_load())
def test_policy_steps_conserve_and_stay_physical(algorithm, drawn):
    graph, load = drawn
    policy, view = make_policy(algorithm), fault_free_view(graph)
    total = load.sum()
    for _ in range(2 * len(load)):
        new = step(policy, view, load)
        assert abs(new.sum() - total) <= 1e-9 * total
        if not policy.needs_limiter:
            assert new.min() >= -1e-9 * total
        if algorithm in ("diffusion", "dimension_exchange"):
            assert np.sum(new**2) <= np.sum(load**2) * (1 + 1e-12)
        load = new


# ---------------------------------------------------------------------------
# Diffusion
# ---------------------------------------------------------------------------


def test_diffusion_step_conserves_load():
    load = np.array([10.0, 0.0, 0.0, 0.0, 0.0])
    new = step(make_policy("diffusion"), fault_free_view(nx.path_graph(5)), load)
    assert new.sum() == pytest.approx(load.sum())
    assert new[1] > 0  # flow happened


@pytest.mark.parametrize("graph", GRAPHS)
def test_diffusion_balances_connected_graphs(graph):
    assert_balances("diffusion", graph)


def test_diffusion_alpha_validation():
    # There is no alpha to pass any more: the one every scheme derives
    # must sit inside the stable range (0, min(0.5, 1/deg_max)] the old
    # argument was validated against, whatever the degree.
    for deg_max in range(1, 64):
        assert 0.0 < safe_alpha(deg_max) <= min(0.5, 1.0 / deg_max)


def test_optimal_alpha():
    # Policies and the spectral helper share it: a star's hub row.
    star, hub_load = nx.star_graph(4), np.eye(5)[0]
    assert safe_alpha(4) == diffusion_matrix(star)[0, 1] == pytest.approx(0.2)
    new = step(make_policy("diffusion"), fault_free_view(star), hub_load)
    assert new[1] == pytest.approx(0.2)


def test_optimal_alpha_edgeless_is_accepted_by_diffusion():
    # Regression (ISSUE 8): an edgeless graph has nothing to diffuse and
    # must be a no-op, not a crash on a degenerate alpha.
    load = np.array([1.0, 2.0, 3.0])
    for algorithm in ZOO_ALGORITHMS:
        view = fault_free_view(nx.empty_graph(3))
        assert np.array_equal(step(make_policy(algorithm), view, load), load)
    balanced, rounds = balance(nx.empty_graph(1), np.array([5.0]), "diffusion")
    assert rounds == 0
    assert balanced[0] == 5.0


def test_diffusion_step_rejects_divergent_alpha_on_stars():
    # Regression (ISSUE 8): alpha = 0.5 on a star of degree >= 3 gives
    # the iteration matrix an eigenvalue <= -1; the hub and leaves swap
    # loads forever instead of converging.  The alpha the policies derive
    # cannot be set that high (stable needs alpha <= 1/deg_max), and the
    # same spike balances fine.
    g = nx.star_graph(3)
    lap = nx.laplacian_matrix(g).toarray()
    assert np.linalg.eigvalsh(np.eye(4) - 0.5 * lap).min() <= -1.0 + 1e-12
    assert safe_alpha(3) <= 1.0 / 3.0
    balanced, _ = balance(g, np.array([12.0, 0.0, 0.0, 0.0]), "diffusion", tol=1e-6)
    assert np.std(balanced) <= 1e-6


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100), n=st.integers(2, 12))
def test_property_diffusion_monotone_stddev(seed, n):
    load = np.random.default_rng(seed).uniform(0, 10, n)
    view = fault_free_view(nx.cycle_graph(n))
    after = np.std(step(make_policy("diffusion"), view, load))
    assert after <= np.std(load) + 1e-12


# ---------------------------------------------------------------------------
# Dimension exchange
# ---------------------------------------------------------------------------


def test_edge_colouring_is_proper():
    g = nx.hypercube_graph(3)
    colours = edge_colouring(g)
    all_edges = [e for c in colours for e in c]
    assert len(all_edges) == g.number_of_edges()
    for matching in colours:
        nodes = [n for e in matching for n in e]
        assert len(nodes) == len(set(nodes))  # a valid matching


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 500))
def test_edge_colouring_ignores_construction_order(seed):
    # Regression (ISSUE 8): networkx yields each edge in insertion
    # orientation, and the old code sorted the raw (u, v) tuples — the
    # same graph built in a different order produced different
    # matchings.  Endpoints must be normalized before sorting.
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
    reference = nx.Graph()
    reference.add_edges_from(edges)
    rng = np.random.default_rng(seed)
    shuffled = nx.Graph()
    for i in rng.permutation(len(edges)):
        u, v = edges[i]
        if rng.integers(2):
            u, v = v, u  # insert in flipped orientation
        shuffled.add_edge(u, v)
    assert edge_colouring(shuffled) == edge_colouring(reference)


def test_dimension_exchange_round_averages_pairs():
    view = fault_free_view(nx.path_graph(2))
    new = step(make_policy("dimension_exchange"), view, np.array([10.0, 0.0]))
    assert np.allclose(new, [5.0, 5.0])


def test_dimension_exchange_round_rejects_nonmatching():
    # No round may pair a node twice: whatever the graph, the transfers
    # of one step touch each node at most once.
    for graph in GRAPHS:
        policy, view = make_policy("dimension_exchange"), fault_free_view(graph)
        load = np.arange(1.0, len(view.up) + 1.0)
        for _ in range(2 * view.max_degree()):
            touched = [n for u, v, _ in policy.plan(view, load) for n in (u, v)]
            assert touched and len(touched) == len(set(touched))


@pytest.mark.parametrize("graph", [GRAPHS[0], GRAPHS[2], GRAPHS[1], GRAPHS[3]])
def test_dimension_exchange_balances(graph):
    assert_balances("dimension_exchange", graph, per_node=1.0)


def test_dimension_exchange_hypercube_one_cycle_is_exact():
    """On a d-cube, one sweep through the d dimensions balances exactly."""
    g = nx.hypercube_graph(3)
    load = np.random.default_rng(3).uniform(0, 10, g.number_of_nodes())
    final, rounds = balance(g, load, "dimension_exchange", tol=1e-9)
    assert rounds == len(edge_colouring(g)) == 3
    assert np.allclose(final, load.mean(), atol=1e-12)


# ---------------------------------------------------------------------------
# Centralized
# ---------------------------------------------------------------------------


def test_centralized_balances_in_one_round():
    load = np.array([10.0, 2.0, 0.0])
    final, plan = centralized_balance(load)
    assert np.allclose(final, 4.0)
    # The plan actually realises the balance.
    realised = load.copy()
    for src, dst, amount in plan:
        realised[src] -= amount
        realised[dst] += amount
    assert np.allclose(realised, 4.0)
    # Routed over a graph it is still one round, whatever the diameter.
    assert {assert_balances("centralized", g) for g in GRAPHS} == {1}
    # The §3 chain spike: one transfer to each of the other 15 nodes.
    _, plan = centralized_balance(160.0 * np.eye(16)[0])
    assert len(plan) == 15


def test_centralized_plan_empty_when_balanced():
    _, plan = centralized_balance(np.array([3.0, 3.0, 3.0]))
    assert plan == []


# ---------------------------------------------------------------------------
# Bertsekas–Tsitsiklis lightest-neighbour rule
# ---------------------------------------------------------------------------


def bertsekas_run(n, algorithm="bertsekas", initial="spike", seed=0, **params):
    params = ZooParams(trigger=ALWAYS, **params)
    return run_zoo(
        build_topology(TopologySpec("chain", n)),
        algorithm,
        params=params,
        initial=initial,
        seed=seed,
    )


def test_bertsekas_reduces_imbalance_on_path():
    res = bertsekas_run(5)
    assert res.volume > 0
    assert res.final_imbalance < 5.0 / 2  # the spike starts at max/mean = n


@pytest.mark.parametrize("theta", [1.2, 1.05])
def test_bertsekas_plateau_within_bt_bound(theta):
    # B&T balance to a threshold-bounded neighbourhood of uniform: on a
    # chain the steady profile is at worst geometric with ratio theta,
    # so max/mean plateaus at or below n(1-1/theta)/(1-theta^-n).
    n = 16
    plateau = bertsekas_run(n, rounds=400, threshold_ratio=theta).final_imbalance
    assert 1.0 < plateau <= n * (1 - 1 / theta) / (1 - theta ** (-n))
    if theta == 1.05:  # the tighter threshold gives the lower plateau
        looser = bertsekas_run(n, rounds=400, threshold_ratio=1.2)
        assert plateau < looser.final_imbalance


def test_bertsekas_variants_both_balance():
    # The B&T lightest-neighbour rule and the paper's ratio variant of it.
    for algorithm in ("bertsekas", "reactive_residual"):
        res = bertsekas_run(6, algorithm, initial="uniform")
        assert res.final_imbalance < 1.3, algorithm


def test_bertsekas_threshold_prevents_thrashing_when_balanced():
    policy = make_policy("bertsekas", ZooParams(threshold_ratio=1.5))
    view = fault_free_view(nx.path_graph(4))
    assert policy.plan(view, np.full(4, 10.0)) == []
    assert policy.plan(view, np.array([14.0, 10.0, 10.0, 10.0])) == []


def test_bertsekas_history_is_sampled():
    res = bertsekas_run(3, rounds=100, sample_every=2)
    assert len(res.history) == 50
    # Imbalance trends down over the run (from 3.0 at round 0).
    assert res.history[0] <= 3.0
    assert res.history[-1] < 1.5
    assert res.history[-1] <= res.history[0]


def test_bertsekas_deterministic_per_seed():
    rows = [bertsekas_run(4, initial="uniform", seed=s).to_row() for s in (7, 7, 8)]
    assert rows[0] == rows[1] != rows[2]


def test_bertsekas_validation():
    for bad in ({"transfer_fraction": 0.0}, {"transfer_fraction": 1.5}, {"staleness": 0}):
        with pytest.raises(ValueError):
            ZooParams(**bad)


# ---------------------------------------------------------------------------
# The §3 comparison EXPERIMENTS.md quotes: a 16-node chain, all load on node 0
# ---------------------------------------------------------------------------

CHAIN_SPIKE = 160.0 * np.eye(16)[0]


@pytest.mark.parametrize(
    "algorithm, rounds", [("diffusion", 741), ("dimension_exchange", 493)]
)
def test_section3_rounds_to_level_a_chain_spike(algorithm, rounds):
    final, taken = balance(nx.path_graph(16), CHAIN_SPIKE, algorithm, tol=1e-3)
    assert taken == rounds
    assert final.max() / final.mean() < 1.05


@pytest.mark.parametrize(
    "theta, transfers, plateau",
    [(1.2, 958, 2.389794381840044), (1.05, 2528, 1.3141708133780379)],
)
def test_section3_bertsekas_plateaus(theta, transfers, plateau):
    # B&T never reach a small tolerance: drive the policy until every
    # stale view has caught up and it has nothing left to propose.  The
    # plateau sits under the geometric bound n(1-1/θ)/(1-θ^-n).
    n = len(CHAIN_SPIKE)
    params = ZooParams(threshold_ratio=theta)
    policy, view = make_policy("bertsekas", params), fault_free_view(nx.path_graph(n))
    load, sent, quiet = CHAIN_SPIKE.copy(), 0, 0
    while quiet < params.staleness:
        plan = policy.plan(view, load)
        quiet = 0 if plan else quiet + 1
        sent += len(plan)
        for u, v, amount in plan:
            load[u] -= amount
            load[v] += amount
    assert sent == transfers
    assert load.max() / load.mean() == pytest.approx(plateau, rel=1e-12)
    assert plateau < n * (1 - 1 / theta) / (1 - theta ** (-n))

