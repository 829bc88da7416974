"""Integration tests for the unbalanced AIAC solver (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import SolverConfig, run_aiac
from repro.grid import homogeneous_cluster
from repro.grid.host import Host
from repro.grid.link import Link
from repro.grid.network import Network
from repro.grid.platform import Platform
from repro.problems import (
    BrusselatorProblem,
    HeatProblem,
    SyntheticProblem,
)


def synthetic(n=48, hard=0.9):
    return SyntheticProblem.with_hard_region(n, easy_rate=0.4, hard_rate=hard)


def test_single_rank_reduces_to_sequential():
    prob = synthetic(16)
    plat = homogeneous_cluster(1, speed=100.0)
    r = run_aiac(prob, plat, SolverConfig(tolerance=1e-8))
    assert r.converged
    assert r.n_ranks == 1
    assert np.max(r.solution()) < 1e-8


@pytest.mark.parametrize("n_ranks", [2, 3, 5])
def test_synthetic_converges_to_fixed_point(n_ranks):
    prob = synthetic(45)
    plat = homogeneous_cluster(n_ranks, speed=100.0)
    r = run_aiac(prob, plat, SolverConfig(tolerance=1e-8, max_iterations=20000))
    assert r.converged
    assert np.max(r.solution()) < 1e-8
    assert r.solution().shape == (45,)


def test_brusselator_matches_reference():
    prob = BrusselatorProblem(12, t_end=2.0, n_steps=20)
    plat = homogeneous_cluster(3, speed=5000.0)
    r = run_aiac(prob, plat, SolverConfig(tolerance=1e-8, max_iterations=3000))
    assert r.converged
    assert r.max_error_vs(prob.reference_solution()) < 1e-5


def test_heat_matches_reference():
    prob = HeatProblem(n_points=12, t_end=0.05, n_steps=20)
    plat = homogeneous_cluster(3, speed=5000.0)
    r = run_aiac(prob, plat, SolverConfig(tolerance=1e-10, max_iterations=5000))
    assert r.converged
    assert r.max_error_vs(prob.reference_solution()) < 1e-7


def test_linear_matches_direct_solution():
    # The linear problem on four ranks, held to its direct tridiagonal
    # solves two orders tighter than the three-rank run above.
    prob = HeatProblem(n_points=40, t_end=0.01, n_steps=5)
    plat = homogeneous_cluster(4, speed=1000.0)
    r = run_aiac(prob, plat, SolverConfig(tolerance=1e-11, max_iterations=5000))
    assert r.converged
    assert r.max_error_vs(prob.reference_solution()) < 1e-9


def test_deterministic_across_runs():
    cfg = SolverConfig(tolerance=1e-8)
    plat = homogeneous_cluster(3, speed=100.0)
    r1 = run_aiac(synthetic(), plat, cfg)
    r2 = run_aiac(synthetic(), plat, cfg)
    assert r1.time == r2.time
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.solution(), r2.solution())


def test_platform_unchanged_by_run():
    plat = homogeneous_cluster(3, speed=100.0)
    run_aiac(synthetic(), plat, SolverConfig(tolerance=1e-8))
    assert plat.network.messages_sent == 0  # runs use a private copy


def test_heterogeneous_speeds_converge_and_fast_ranks_iterate_more():
    net = Network(Link(latency=1e-4, bandwidth=1e8))
    hosts = [Host("slow", 50.0), Host("fast", 500.0)]
    plat = Platform(hosts=hosts, network=net)
    prob = SyntheticProblem(np.full(24, 0.9), coupling=0.2)
    r = run_aiac(prob, plat, SolverConfig(tolerance=1e-8, max_iterations=50000))
    assert r.converged
    assert r.iterations[1] > 2 * r.iterations[0]


def test_max_iterations_aborts():
    prob = SyntheticProblem(np.full(12, 0.999), coupling=0.1)
    plat = homogeneous_cluster(2, speed=100.0)
    r = run_aiac(prob, plat, SolverConfig(tolerance=1e-12, max_iterations=30))
    assert not r.converged
    assert "max_iterations" in r.meta["aborted_reason"]


def test_max_time_horizon():
    prob = SyntheticProblem(np.full(12, 0.9999), coupling=0.1)
    plat = homogeneous_cluster(2, speed=100.0)
    r = run_aiac(
        prob, plat, SolverConfig(tolerance=1e-12, max_time=5.0, max_iterations=10**6)
    )
    assert not r.converged
    assert r.time <= 5.0 + 1e-9


def test_eager_variant_sends_more_messages():
    plat = homogeneous_cluster(3, speed=100.0)
    r_excl = run_aiac(synthetic(), plat, SolverConfig(tolerance=1e-8))
    r_eager = run_aiac(
        synthetic(), plat, SolverConfig(tolerance=1e-8, exclusive_sends=False)
    )
    assert r_eager.converged and r_excl.converged
    n_excl = len([m for m in r_excl.tracer.messages if m.kind.startswith("halo")])
    n_eager = len([m for m in r_eager.tracer.messages if m.kind.startswith("halo")])
    assert n_eager >= n_excl


def test_host_order_permutation():
    net = Network(Link(latency=1e-4, bandwidth=1e8))
    hosts = [Host("a", 50.0), Host("b", 500.0), Host("c", 50.0)]
    plat = Platform(hosts=hosts, network=net)
    r = run_aiac(
        synthetic(30),
        plat,
        SolverConfig(tolerance=1e-8, max_iterations=30000),
        host_order=[1, 0, 2],
    )
    assert r.converged
    # Rank 0 runs on host "b" (fast): it iterates the most.
    assert r.iterations[0] >= max(r.iterations[1:])


def test_bad_host_order_rejected():
    plat = homogeneous_cluster(3)
    with pytest.raises(ValueError, match="permutation"):
        run_aiac(synthetic(), plat, host_order=[0, 0, 1])


def test_work_accounting_positive_and_busy_time_recorded():
    plat = homogeneous_cluster(2, speed=100.0)
    r = run_aiac(synthetic(24), plat, SolverConfig(tolerance=1e-8))
    assert all(w > 0 for w in r.work)
    for rank in range(2):
        assert r.tracer.busy_time_of(rank) <= r.time + 1e-9
