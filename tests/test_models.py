"""Tests for the SISC / SIAC / AIAC execution-model taxonomy."""

import numpy as np
import pytest

from repro.core import SolverConfig, run_aiac
from repro.grid import homogeneous_cluster
from repro.grid.host import Host
from repro.grid.link import Link
from repro.grid.network import Network
from repro.grid.platform import Platform
from repro.models import run_siac, run_sisc
from repro.problems import SyntheticProblem


def problem(n=40):
    return SyntheticProblem(np.full(n, 0.85), coupling=0.3)


CFG = SolverConfig(tolerance=1e-8, max_iterations=30000)


def two_speed_platform(latency=0.05):
    """Two unequal hosts with a noticeable network latency."""
    net = Network(Link(latency=latency, bandwidth=1e6))
    return Platform(hosts=[Host("fast", 200.0), Host("slow", 100.0)], network=net)


@pytest.mark.parametrize("runner", [run_sisc, run_siac])
def test_synchronous_models_converge_to_fixed_point(runner):
    plat = homogeneous_cluster(3, speed=100.0)
    r = runner(problem(42), plat, CFG)
    assert r.converged
    assert np.max(r.solution()) < 1e-8


def test_sisc_iterations_are_lockstep():
    plat = two_speed_platform()
    r = run_sisc(problem(), plat, CFG)
    assert r.converged
    assert abs(r.iterations[0] - r.iterations[1]) <= 1


def test_siac_iterations_are_lockstep():
    # "at any time t it is not possible to have two processors
    # performing different iterations"
    plat = two_speed_platform()
    r = run_siac(problem(), plat, CFG)
    assert r.converged
    assert abs(r.iterations[0] - r.iterations[1]) <= 1


def test_aiac_lets_fast_rank_run_ahead():
    plat = two_speed_platform()
    r = run_aiac(problem(), plat, CFG)
    assert r.converged
    assert r.iterations[0] > r.iterations[1] + 5


def test_idle_ordering_sisc_geq_siac_geq_aiac():
    """Figures 1-3: idle time shrinks from SISC to SIAC and vanishes in AIAC."""
    plat = two_speed_platform(latency=0.05)
    idle = {}
    for name, runner in [("sisc", run_sisc), ("siac", run_siac), ("aiac", run_aiac)]:
        r = runner(problem(), plat, CFG)
        assert r.converged, name
        idle[name] = sum(r.tracer.idle_time_of(rank) for rank in range(2))
    assert idle["aiac"] == 0.0
    assert idle["siac"] > 0.0
    assert idle["sisc"] >= idle["siac"]


def test_sisc_fast_rank_waits_for_slow_rank():
    plat = two_speed_platform()
    r = run_sisc(problem(), plat, CFG)
    # The fast host (rank 0) accumulates the idle time.
    assert r.tracer.idle_time_of(0) > r.tracer.idle_time_of(1)


def test_models_agree_on_the_answer():
    plat = two_speed_platform()
    solutions = []
    for runner in (run_sisc, run_siac, run_aiac):
        r = runner(problem(36), plat, CFG)
        assert r.converged
        solutions.append(r.solution())
    for s in solutions[1:]:
        assert np.max(np.abs(s - solutions[0])) < 1e-7


def test_asynchronous_wins_on_slow_network():
    """Section 6: on the grid (slow links) AIAC beats the synchronous models."""
    net = Network(Link(latency=0.5, bandwidth=1e5))
    plat = Platform(
        hosts=[Host("a", 100.0), Host("b", 60.0), Host("c", 100.0)], network=net
    )
    r_sisc = run_sisc(problem(45), plat, CFG)
    r_aiac = run_aiac(problem(45), plat, CFG)
    assert r_sisc.converged and r_aiac.converged
    assert r_aiac.time < r_sisc.time


# ----------------------------------------------------------------------
# run_model: a model name resolved in one place
# ----------------------------------------------------------------------
def test_run_model_rejects_an_unknown_name_and_lists_the_choices():
    from repro.models import MODELS, run_model
    from repro.workloads import ResilienceScenario

    assert sorted(MODELS) == ["aiac", "aiac+lb", "siac", "sisc"]
    with pytest.raises(ValueError, match=r"unknown model 'aiac\+rb'.*'aiac\+lb'"):
        run_model("aiac+rb", ResilienceScenario.tiny())


def test_run_model_builds_the_drivers_arguments(monkeypatch):
    """``aiac+lb`` alone receives ``lb_config()``; ``trace`` reaches the
    ``SolverConfig``; ``platform`` and the hooks are forwarded as given."""
    import repro.models.registry as models
    from repro.workloads import ResilienceScenario

    calls = []

    def spy(name):
        def driver(*args, **hooks):
            calls.append((name, args, hooks))
            return name

        return driver

    monkeypatch.setattr(models, "MODELS", {name: spy(name) for name in models.MODELS})
    scenario = ResilienceScenario.tiny()
    for model in ("aiac", "aiac+lb", "siac", "sisc"):
        assert models.run_model(model, scenario) == model
    assert [len(args) for _, args, _ in calls] == [3, 4, 3, 3]
    assert calls[1][1][3] == scenario.lb_config()
    assert all(args[2] == scenario.solver_config() for _, args, _ in calls)
    assert all(not args[2].trace and hooks == {} for _, args, hooks in calls)

    calls.clear()
    platform, guard = object(), object()
    models.run_model(
        "sisc", scenario, platform=platform, trace=True, guard=guard, injector=None
    )
    ((_, args, hooks),) = calls
    assert args[1] is platform
    assert args[2] == scenario.solver_config(trace=True) and args[2].trace
    assert hooks == {"guard": guard, "injector": None}


@pytest.mark.parametrize("model", ["aiac", "aiac+lb", "siac", "sisc"])
def test_run_model_equals_the_direct_driver_call(model):
    from repro.analysis.perf import run_fingerprint
    from repro.core import run_balanced_aiac
    from repro.models import run_model
    from repro.workloads import ResilienceScenario

    scenario = ResilienceScenario.tiny()
    direct = {
        "aiac": run_aiac,
        "aiac+lb": run_balanced_aiac,
        "siac": run_siac,
        "sisc": run_sisc,
    }[model]
    args = [scenario.problem(), scenario.platform(), scenario.solver_config()]
    if model.endswith("+lb"):
        args.append(scenario.lb_config())
    assert run_fingerprint(run_model(model, scenario)) == run_fingerprint(
        direct(*args)
    )
