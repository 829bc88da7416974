"""Byte-identity of sweep reports: serial vs worker pool vs cache.

The engine's whole contract is that ``--jobs`` and the run cache are
pure accelerators: the rendered report (and therefore its digest) is
byte-identical on every path.  These tests pin that for the three
sweeps CI parallelises — figure5, resilience and the guard soak — by
running each one serially, through a 2-worker pool into a cold cache,
and again fully from cache.
"""

import pytest

from repro.exec import RunCache, SweepEngine


def run_three_ways(tmp_path, run):
    """serial / jobs=2+cold-cache / warm-cache reports for one sweep."""
    cache_dir = str(tmp_path / "cache")
    serial = run(SweepEngine())
    with SweepEngine(jobs=2, cache=RunCache(cache_dir)) as cold_engine:
        cold = run(cold_engine)
    warm_engine = SweepEngine(cache=RunCache(cache_dir))
    warm = run(warm_engine)
    assert cold_engine.stats.misses == cold_engine.stats.tasks
    assert warm_engine.stats.hits == warm_engine.stats.tasks
    assert warm_engine.stats.misses == 0
    return serial, cold, warm


def test_figure5_report_identical_on_all_paths(tmp_path):
    from repro.experiments import run_figure5
    from repro.workloads import Figure5Scenario

    scenario = Figure5Scenario.tiny()

    def run(engine):
        return run_figure5(scenario, engine=engine)

    serial, cold, warm = run_three_ways(tmp_path, run)
    assert serial.report() == cold.report() == warm.report()
    assert serial.digest() == cold.digest() == warm.digest()


def test_resilience_report_identical_on_all_paths(tmp_path):
    from repro.experiments import run_resilience
    from repro.workloads import ResilienceScenario

    scenario = ResilienceScenario.tiny()

    def run(engine):
        return run_resilience(scenario, engine=engine)

    serial, cold, warm = run_three_ways(tmp_path, run)
    assert serial.report() == cold.report() == warm.report()
    assert serial.digest() == cold.digest() == warm.digest()


def test_soak_report_identical_on_all_paths(tmp_path):
    from repro.guard.soak import run_soak

    def run(engine):
        return run_soak(
            n_schedules=2,
            seed=0,
            models=("sisc", "aiac"),
            out_dir=str(tmp_path),
            shrink=False,
            engine=engine,
        )

    serial, cold, warm = run_three_ways(tmp_path, run)
    assert serial.ok and cold.ok and warm.ok
    assert serial.report() == cold.report() == warm.report()


def test_figure5_scenario_change_misses_cache(tmp_path):
    from repro.experiments import run_figure5
    from repro.workloads import Figure5Scenario

    cache_dir = str(tmp_path / "cache")
    first = SweepEngine(cache=RunCache(cache_dir))
    run_figure5(Figure5Scenario.tiny(), engine=first)
    assert first.stats.hits == 0

    # Any scenario field change must invalidate every run.
    import dataclasses

    changed = dataclasses.replace(Figure5Scenario.tiny(), active_cost=31.0)
    second = SweepEngine(cache=RunCache(cache_dir))
    run_figure5(changed, engine=second)
    assert second.stats.hits == 0
    assert second.stats.misses == second.stats.tasks


def small_table1():
    import dataclasses

    from repro.workloads import Table1Scenario

    return dataclasses.replace(
        Table1Scenario.quick(), n_points=45, n_steps=10, tolerance=1e-3
    )


def test_sidecar_sweeps_bypass_pool_and_cache(spied_sweep):
    # An observed sweep must scrape live RunResult objects, so the
    # sidecar path always runs serially in process: the report is the
    # engine path's byte for byte, one scrape per run of the grid.
    from repro.experiments import run_figure5, run_resilience, run_table1
    from repro.obs.harness import MetricsSidecar
    from repro.workloads import Figure5Scenario, ResilienceScenario

    for plain, run, scenario, n_runs in [
        (spied_sweep("figure5-tiny")[0], run_figure5, Figure5Scenario.tiny(), 4),
        (run_table1(small_table1()), run_table1, small_table1(), 2),
        (
            spied_sweep("resilience-tiny")[0],
            run_resilience,
            ResilienceScenario.tiny(),
            8,
        ),
    ]:
        sidecar = MetricsSidecar()
        observed = run(scenario, sidecar=sidecar)
        assert plain.report() == observed.report()
        assert sidecar.n_runs == n_runs
    # The resilience rows are digest material: equal as data, too.
    assert plain.to_dict() == observed.to_dict()


def test_non_convergence_reads_the_same_on_both_paths(monkeypatch):
    from repro.core.config import SolverConfig
    from repro.experiments import run_figure5, run_table1
    from repro.obs.harness import MetricsSidecar
    from repro.workloads import Figure5Scenario, Table1Scenario

    def three_sweeps(self, *, trace=False):
        return SolverConfig(tolerance=self.tolerance, max_iterations=3, trace=trace)

    for cls, run, scenario, message in [
        (
            Figure5Scenario,
            run_figure5,
            Figure5Scenario.tiny(),
            r"figure5 run did not converge at p=4 \(unbalanced\)",
        ),
        (
            Table1Scenario,
            run_table1,
            small_table1(),
            "table1 unbalanced run did not converge",
        ),
    ]:
        monkeypatch.setattr(cls, "solver_config", three_sweeps)
        with pytest.raises(RuntimeError, match=message):
            run(scenario)
        with pytest.raises(RuntimeError, match=message):
            run(scenario, sidecar=MetricsSidecar())
