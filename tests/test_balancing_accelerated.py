"""Tests for the spectral helpers and the second-order (accelerated) policy."""

import networkx as nx
import numpy as np
import pytest

from repro.balancing import (
    ZOO_ALGORITHMS,
    diffusion_matrix,
    make_policy,
    second_eigenvalue,
)
from tests.oracles import balance, fault_free_view
from tests.test_balancing import GRAPHS, assert_balances, step


def test_diffusion_matrix_is_doubly_stochastic():
    g = nx.path_graph(6)
    m = diffusion_matrix(g)
    assert np.allclose(m.sum(axis=0), 1.0)
    assert np.allclose(m.sum(axis=1), 1.0)
    assert np.all(m >= -1e-12)


def test_diffusion_matrix_empty_graph():
    with pytest.raises(ValueError):
        diffusion_matrix(nx.Graph())


def test_second_eigenvalue_bounds():
    g = nx.path_graph(8)
    lam2 = second_eigenvalue(diffusion_matrix(g))
    assert 0.0 < lam2 < 1.0
    # Complete graph (alpha = 1/n) balances in one round: lambda2 = 0.
    lam2_k = second_eigenvalue(diffusion_matrix(nx.complete_graph(5)))
    assert lam2_k == pytest.approx(0.0, abs=1e-9)


def test_second_eigenvalue_rejects_non_diffusion_matrix():
    with pytest.raises(ValueError):
        second_eigenvalue(np.diag([0.5, 0.2]))


@pytest.mark.parametrize("graph", [nx.path_graph(12), *GRAPHS])
def test_accelerated_schemes_balance_and_conserve(graph):
    assert_balances("accelerated", graph, per_node=1.0)


def test_accelerated_faster_than_first_order_on_chain():
    g = nx.path_graph(16)
    load = 16.0 * np.eye(16)[0]
    _, first_order = balance(g, load, "diffusion", tol=1e-6)
    _, accelerated = balance(g, load, "accelerated", tol=1e-6)
    # Heavy-ball: O(1/sqrt(1-λ2)) vs O(1/(1-λ2)) — a chain of 16 shows
    # well over 3x fewer rounds.
    assert accelerated * 3 < first_order


def test_already_balanced_returns_immediately():
    load = np.full(5, 3.0)
    for algorithm in ZOO_ALGORITHMS:
        final, rounds = balance(nx.path_graph(5), load, algorithm)
        assert rounds == 0
        assert np.array_equal(final, load)


def test_transient_negativity_is_possible():
    """Accelerated schemes overshoot: without the outflow limiter loads
    transiently go negative (documented caveat; the reason the component
    balancer is first-order).  A mid-chain spike produces the overshoot;
    under the limiter — how both loops run the policy — it cannot."""
    g = nx.path_graph(13)
    load = np.zeros(13)
    load[6] = 13.0
    policy, view = make_policy("accelerated"), fault_free_view(g)
    assert policy.needs_limiter
    current, lowest = load, 0.0
    for _ in range(300):
        current = step(policy, view, current)
        lowest = min(lowest, current.min())
    assert lowest < -1e-9
    final, _ = balance(g, load, "accelerated", tol=1e-8)
    assert final.min() > 0.0
