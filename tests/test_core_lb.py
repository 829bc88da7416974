"""Integration tests for the load-balanced AIAC solver (Algorithms 4-7)."""

import numpy as np
import pytest

from repro.core import LBConfig, SolverConfig, run_aiac, run_balanced_aiac
from repro.grid import homogeneous_cluster
from repro.grid.host import Host
from repro.grid.link import Link
from repro.grid.network import Network
from repro.grid.platform import Platform
from repro.problems import BrusselatorProblem, SyntheticProblem
from tests.oracles import PiecewiseTrace


def synthetic(n=64, hard=0.95):
    return SyntheticProblem.with_hard_region(
        n, easy_rate=0.4, hard_rate=hard, active_cost=6.0
    )


CFG = SolverConfig(tolerance=1e-8, max_iterations=50000)


def test_balanced_still_correct_on_synthetic():
    plat = homogeneous_cluster(4, speed=100.0)
    r = run_balanced_aiac(synthetic(), plat, CFG, LBConfig(period=5))
    assert r.converged
    assert np.max(r.solution()) < 1e-8
    assert r.n_migrations > 0  # the balancer actually did something


def test_balanced_still_correct_on_brusselator():
    prob = BrusselatorProblem(12, t_end=2.0, n_steps=20)
    plat = homogeneous_cluster(3, speed=5000.0)
    r = run_balanced_aiac(
        prob,
        plat,
        SolverConfig(tolerance=1e-8, max_iterations=3000),
        LBConfig(period=5, min_components=2),
    )
    assert r.converged
    assert r.max_error_vs(prob.reference_solution()) < 1e-5


def test_lb_beats_unbalanced_on_activity_imbalance():
    """The paper's homogeneous-cluster experiment (Figure 5) in miniature."""
    plat = homogeneous_cluster(4, speed=100.0)
    r_unbal = run_aiac(synthetic(), plat, CFG)
    r_bal = run_balanced_aiac(synthetic(), plat, CFG, LBConfig(period=5))
    assert r_bal.converged and r_unbal.converged
    assert r_bal.time < r_unbal.time


def test_lb_beats_unbalanced_on_heterogeneous_speeds():
    net = Network(Link(latency=1e-4, bandwidth=1e8))
    hosts = [Host("slow", 100.0), Host("fast", 800.0)]
    plat = Platform(hosts=hosts, network=net)
    prob = lambda: SyntheticProblem(np.full(60, 0.93), coupling=0.2)  # noqa: E731
    r_unbal = run_aiac(prob(), plat, CFG)
    r_bal = run_balanced_aiac(prob(), plat, CFG, LBConfig(period=5))
    assert r_bal.converged and r_unbal.converged
    assert r_bal.time < r_unbal.time
    # The fast host ends up with more components.
    sizes = r_bal.meta["final_sizes"]
    assert sizes[1] > sizes[0]


def test_famine_guard_respected():
    plat = homogeneous_cluster(4, speed=100.0)
    lb = LBConfig(period=3, min_components=5, accuracy=1.0)
    r = run_balanced_aiac(synthetic(48), plat, CFG, lb)
    assert r.converged
    assert min(r.meta["final_sizes"]) >= 5
    # Famine must hold at every point in time, not just at the end:
    # reconstruct sizes from the migration log.
    sizes = {rank: 12 for rank in range(4)}
    for m in sorted(r.tracer.migrations, key=lambda m: m.time):
        sizes[m.src_rank] -= m.n_components
        sizes[m.dst_rank] += m.n_components
        assert sizes[m.src_rank] >= 5
    assert sizes == {
        rank: size for rank, size in enumerate(r.meta["final_sizes"])
    }


def test_components_conserved():
    plat = homogeneous_cluster(5, speed=100.0)
    r = run_balanced_aiac(synthetic(60), plat, CFG, LBConfig(period=4))
    assert sum(r.meta["final_sizes"]) == 60
    blocks = sorted(r.final_partition)
    cursor = 0
    for lo, hi in blocks:
        assert lo == cursor
        cursor = hi
    assert cursor == 60


def test_migrations_flow_toward_less_loaded_ranks():
    """Migrations are neighbour-local and predominantly high->low estimate."""
    plat = homogeneous_cluster(4, speed=100.0)
    lb = LBConfig(period=5, threshold_ratio=2.0)
    r = run_balanced_aiac(synthetic(), plat, CFG, lb)
    assert r.n_migrations > 0
    downhill = 0
    for m in r.tracer.migrations:
        assert abs(m.src_rank - m.dst_rank) == 1  # neighbour-local only
        assert m.n_components >= 1
        if m.src_residual > m.dst_residual:
            downhill += 1
    # The estimates are re-read at data-send time (after the offer), so a
    # few individual records may have flipped; the flow must still be
    # overwhelmingly downhill.
    assert downhill >= 0.8 * r.n_migrations


def test_deterministic():
    plat = homogeneous_cluster(4, speed=100.0)
    lb = LBConfig(period=5)
    r1 = run_balanced_aiac(synthetic(), plat, CFG, lb)
    r2 = run_balanced_aiac(synthetic(), plat, CFG, lb)
    assert r1.time == r2.time
    assert r1.n_migrations == r2.n_migrations
    assert r1.meta["final_sizes"] == r2.meta["final_sizes"]


def test_high_threshold_disables_lb():
    plat = homogeneous_cluster(4, speed=100.0)
    lb = LBConfig(period=5, threshold_ratio=1e12)
    r = run_balanced_aiac(synthetic(), plat, CFG, lb)
    assert r.converged
    assert r.n_migrations == 0


def test_single_rank_lb_is_noop():
    plat = homogeneous_cluster(1, speed=100.0)
    r = run_balanced_aiac(synthetic(16), plat, CFG, LBConfig(period=2))
    assert r.converged
    assert r.n_migrations == 0


def test_estimator_variants_all_converge():
    plat = homogeneous_cluster(3, speed=100.0)
    for estimator in ("residual", "iteration_time", "component_count"):
        r = run_balanced_aiac(
            synthetic(48), plat, CFG, LBConfig(period=5, estimator=estimator)
        )
        assert r.converged, estimator
        assert np.max(r.solution()) < 1e-8


def test_lb_under_external_load_changes():
    """A host that loses most of its capacity mid-run sheds components."""
    trace = PiecewiseTrace([0.0, 5.0], [1.0, 0.05])
    net = Network(Link(latency=1e-4, bandwidth=1e8))
    hosts = [
        Host("victim", 200.0, trace=trace),
        Host("steady", 200.0),
        Host("steady2", 200.0),
    ]
    plat = Platform(hosts=hosts, network=net)
    prob = SyntheticProblem(np.full(60, 0.97), coupling=0.2, active_cost=4.0)
    r = run_balanced_aiac(
        prob, plat, CFG, LBConfig(period=5, estimator="residual")
    )
    assert r.converged
    sizes = r.meta["final_sizes"]
    assert sizes[0] < max(sizes[1], sizes[2])


def test_offers_tracked_in_meta():
    plat = homogeneous_cluster(4, speed=100.0)
    r = run_balanced_aiac(synthetic(), plat, CFG, LBConfig(period=5))
    assert r.meta["offers_sent"] >= r.n_migrations
    assert r.meta["offers_rejected"] >= 0
