"""Tests for the frozen scenario definitions themselves."""

import dataclasses

import numpy as np
import pytest

from repro.workloads import (
    Figure5Scenario,
    ModelsComparisonScenario,
    ScaleScenario,
    Table1Scenario,
    TraceFigureScenario,
)


def test_figure5_problem_matches_parameters():
    sc = Figure5Scenario()
    prob = sc.problem()
    assert prob.n_components == sc.n_components
    hard = prob.rates == sc.hard_rate
    assert hard.sum() == pytest.approx(
        sc.n_components * (sc.hard_region[1] - sc.hard_region[0]), abs=2
    )
    assert prob.active_threshold == pytest.approx(100 * sc.tolerance)


def test_figure5_quick_and_tiny_are_smaller():
    full, quick, tiny = (
        Figure5Scenario(),
        Figure5Scenario.quick(),
        Figure5Scenario.tiny(),
    )
    assert tiny.n_components < quick.n_components < full.n_components
    assert max(tiny.proc_counts) <= max(quick.proc_counts) < max(full.proc_counts)


def test_figure5_platform_is_homogeneous():
    sc = Figure5Scenario.quick()
    plat = sc.platform(8)
    assert len(plat) == 8
    assert len({h.speed for h in plat.hosts}) == 1


def test_table1_platform_matches_paper_shape():
    sc = Table1Scenario()
    plat = sc.platform()
    assert len(plat) == 15
    assert sorted(plat.sites) == ["belfort", "grenoble", "montbeliard"]
    speeds = np.array([h.speed for h in plat.hosts])
    # PII-400 .. Athlon-1.4G divided by the work-unit divisor.
    assert speeds.min() >= 400.0 / sc.speed_divisor
    assert speeds.max() <= 1400.0 / sc.speed_divisor
    assert speeds.max() / speeds.min() > 1.5


def test_table1_platform_deterministic_per_seed():
    a = Table1Scenario().platform()
    b = Table1Scenario().platform()
    assert [h.speed for h in a.hosts] == [h.speed for h in b.hosts]
    c = Table1Scenario(seed=7).platform()
    assert [h.speed for h in a.hosts] != [h.speed for h in c.hosts]


def test_table1_host_order_is_intersite():
    sc = Table1Scenario()
    plat = sc.platform()
    order = sc.host_order(plat)
    sites = [plat.hosts[i].site for i in order]
    assert all(s1 != s2 for s1, s2 in zip(sites, sites[1:]))


def test_table1_quick_is_smaller():
    assert Table1Scenario.quick().n_points < Table1Scenario().n_points


def test_models_comparison_grid_slower_than_cluster_links():
    sc = ModelsComparisonScenario()
    cluster = sc.cluster_platform()
    grid = sc.grid_platform()
    ha = grid.sites["a"][0]
    hb = grid.sites["b"][0]
    wan = grid.network.link_for(ha, hb)
    lan = cluster.network.link_for(cluster.hosts[0], cluster.hosts[1])
    assert wan.latency > 10 * lan.latency
    assert wan.bandwidth < lan.bandwidth


def test_trace_scenario_two_unequal_hosts():
    sc = TraceFigureScenario()
    plat = sc.platform()
    assert len(plat) == 2
    assert plat.hosts[0].speed != plat.hosts[1].speed
    assert sc.solver_config().trace


def test_scale_scenario_tiles_components_exactly():
    from repro.workloads import ScaleScenario

    sc = ScaleScenario(n_ranks=32, components_per_rank=10)
    assert sc.n_components == 320
    prob = sc.problem()
    assert prob.n_components == sc.n_components
    plat = sc.platform()
    assert len(plat) == 32
    assert len({h.speed for h in plat.hosts}) == 1  # homogeneous
    assert not sc.solver_config().trace  # span records are O(ranks x rounds)


def test_scale_scenario_presets():
    from repro.workloads import ScaleScenario

    smoke = ScaleScenario.smoke()
    assert smoke.n_ranks == 256
    assert smoke.n_components == smoke.n_ranks * smoke.components_per_rank >= 100_000
    assert smoke.problem_kind == "synthetic"


def test_figure5_scale_preset_reaches_1024_ranks():
    assert Figure5Scenario.scale().proc_counts[-1] == 1024
    assert Figure5Scenario.scale().n_components > Figure5Scenario.quick().n_components


def test_problem_kind_dispatch():
    import dataclasses

    from repro.problems.brusselator import BrusselatorProblem
    from repro.workloads import ScaleScenario

    for sc in (
        dataclasses.replace(Figure5Scenario.quick(), problem_kind="brusselator"),
        ScaleScenario(problem_kind="brusselator", n_ranks=256, components_per_rank=4),
    ):
        prob = sc.problem()
        assert isinstance(prob, BrusselatorProblem)
        assert prob.n_components == sc.n_components
        assert prob.skip_converged  # the activity mechanism
        assert prob.skip_threshold == pytest.approx(100 * sc.tolerance)
        # alpha derives from the coupling target: c * dt == coupling,
        # keeping the relaxation's contraction rate N-independent.
        assert prob.c * prob.dt == pytest.approx(sc.coupling)
    with pytest.raises(ValueError, match="problem_kind"):
        dataclasses.replace(Figure5Scenario(), problem_kind="nope").problem()
    with pytest.raises(ValueError, match="problem_kind"):
        ScaleScenario(problem_kind="nope").problem()


def test_scale_scenario_brusselator_presets():
    assert Figure5Scenario.scale_brusselator().proc_counts[-1] == 1024
    assert Figure5Scenario.scale_brusselator().problem_kind == "brusselator"


# ----------------------------------------------------------------------
# Scenario.preset: a preset name resolved in one place
# ----------------------------------------------------------------------
def scenario_presets():
    from repro.experiments import TopologyZooScenario
    from repro.workloads import (
        IntegrityScenario,
        ResilienceScenario,
        SoakScenario,
    )

    return {
        Figure5Scenario: ("quick", "tiny", "scale", "scale_brusselator"),
        ScaleScenario: ("smoke",),
        Table1Scenario: ("quick",),
        ResilienceScenario: ("quick", "tiny"),
        IntegrityScenario: ("quick", "tiny"),
        TopologyZooScenario: ("quick",),
        SoakScenario: (),
        ModelsComparisonScenario: (),
        TraceFigureScenario: (),
    }


def test_preset_is_the_named_classmethod_and_full_is_the_default():
    from repro.workloads.scenarios import Scenario

    for cls, names in scenario_presets().items():
        assert issubclass(cls, Scenario)
        assert cls.preset("full") == cls()
        for name in names:
            assert cls.preset(name) == getattr(cls, name)()
        # The literal lists above are every preset each class offers.
        offered = {
            name
            for klass in cls.__mro__
            for name, member in vars(klass).items()
            if isinstance(member, classmethod) and name != "preset"
        }
        assert offered == set(names), cls.__name__


@pytest.mark.parametrize(
    "name",
    [
        "huge",  # unknown
        "tiny",  # a preset of other classes, not of Table 1
        "preset",  # the resolver itself
        "_private",
        "__init__",
        "problem",  # an instance method
        "n_points",  # a field default, not callable
        "",
    ],
)
def test_preset_rejects_everything_that_is_not_a_preset(name):
    with pytest.raises(ValueError, match="unknown mode"):
        Table1Scenario.preset(name)


def test_heat_fault_scenarios_keep_their_cache_key_fields():
    """A scenario's ``asdict`` keys the run cache: the shared base must
    give the three fault scenarios exactly the fields they declared
    one by one before it existed."""
    from repro.workloads import IntegrityScenario, ResilienceScenario, SoakScenario

    shared = {
        "seed", "n_points", "t_end", "n_steps", "n_procs", "host_speed",
        "tolerance", "max_time",
    }
    own = {
        ResilienceScenario: {
            "loss_low", "loss_high", "dup_rate", "reorder_rate",
            "reorder_delay", "crash_rank", "crash_at", "crash_downtime",
            "partition_window", "slowdown_window", "slowdown_factor",
            "schedule_names", "models", "headline",
        },
        IntegrityScenario: {
            "rate_low", "rate_high", "perturb_amplitude", "state_rank",
            "state_at", "ckpt_at", "crash_rank", "crash_at",
            "crash_downtime", "error_tol", "schedule_names", "models",
            "arms", "detect_only", "headline",
        },
        SoakScenario: {
            "models", "error_tol", "agreement_tol", "stall_horizon",
            "max_faults", "loss_range", "dup_range", "reorder_range",
            "reorder_delay_range", "crash_at_range", "crash_downtime_range",
            "slowdown_factor_range", "fault_window_range",
        },
    }
    for cls, fields in own.items():
        assert set(dataclasses.asdict(cls())) == shared | fields, cls.__name__
    # The defaults the subclasses override on the shared fields.
    assert (ResilienceScenario().seed, ResilienceScenario().max_time) == (42, 5000.0)
    assert IntegrityScenario().max_time == 600.0
    soak = SoakScenario()
    assert (soak.seed, soak.n_points, soak.n_steps, soak.tolerance, soak.max_time) == (
        0, 32, 8, 1e-6, 2000.0,
    )


def test_heat_fault_scenarios_run_untraced_unless_asked():
    # SolverConfig.trace defaults to True; a sweep run must not inherit it.
    from repro.workloads import IntegrityScenario, ResilienceScenario, SoakScenario

    for cls in (ResilienceScenario, IntegrityScenario, SoakScenario):
        assert cls().solver_config().trace is False
        assert cls().solver_config(trace=True).trace is True
    armed = IntegrityScenario().schedule("flip_hi", detect=True).resilience
    blind = IntegrityScenario().schedule("flip_hi", detect=False).resilience
    assert (armed.integrity_checks, blind.integrity_checks) == (True, False)
    assert dataclasses.replace(armed, integrity_checks=False) == blind
    assert armed == ResilienceScenario().resilience() == SoakScenario().resilience()
