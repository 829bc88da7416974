"""The timing proxies must be invisible to the simulation."""

from dataclasses import asdict

from repro.analysis.perf import run_fingerprint
from repro.core.config import LBConfig, SolverConfig
from repro.core.lb import run_balanced_aiac
from repro.grid.platform import homogeneous_cluster
from repro.models.lockstep import run_sisc_batched
from repro.problems import BrusselatorProblem
from repro.workloads import Figure5Scenario

from proxies import TimedProblem, traced_scenario
from spans import SpanRecorder


def tiny_brusselator():
    return BrusselatorProblem(16, t_end=1.0, n_steps=8, alpha=0.002)


def test_balanced_run_fingerprint_is_unchanged_through_the_proxy():
    config = SolverConfig(tolerance=1e-5)
    lb = LBConfig(period=2, threshold_ratio=2.0, min_components=2)
    plain = run_balanced_aiac(
        tiny_brusselator(), homogeneous_cluster(4, speed=500.0), config, lb
    )
    recorder = SpanRecorder("proxy")
    proxy = TimedProblem(tiny_brusselator(), recorder)
    timed = run_balanced_aiac(proxy, homogeneous_cluster(4, speed=500.0), config, lb)
    assert plain.converged and timed.converged
    assert run_fingerprint(timed) == run_fingerprint(plain)
    # ... and it did see the run
    # (sweeps still in flight when convergence stops the run are not
    # counted as iterations)
    assert recorder.count("problems.iterate") >= timed.total_iterations
    assert proxy.work_units > 0.0
    assert recorder.count("problems.halo") > 0


def test_lockstep_fingerprint_is_unchanged_through_the_sweeper_proxy():
    config = SolverConfig(tolerance=1e-5)
    plain = run_sisc_batched(tiny_brusselator(), homogeneous_cluster(4), config)
    recorder = SpanRecorder("sweeper")
    proxy = TimedProblem(tiny_brusselator(), recorder)
    timed = run_sisc_batched(proxy, homogeneous_cluster(4), config)
    assert timed.meta["engine"] == "lockstep"
    assert run_fingerprint(timed) == run_fingerprint(plain)
    assert recorder.count("problems.batched_sweep") == max(timed.iterations)
    assert recorder.count("problems.iterate") == 0


def test_traced_scenario_keeps_fields_and_wraps_problem():
    scenario = Figure5Scenario.tiny()
    recorder = SpanRecorder("scenario")
    traced = traced_scenario(scenario, recorder)
    assert isinstance(traced, Figure5Scenario)
    assert asdict(traced) == asdict(scenario)
    problem = traced.problem()
    assert isinstance(problem, TimedProblem)
    assert traced.proxies == [problem]
    assert problem.n_components == scenario.n_components
    assert problem.name == scenario.problem().name
