"""Integration tests for scenarios and the experiment harness.

These run every experiment at reduced ('tiny'/'quick') size and assert
the *shape* criteria from DESIGN.md §4 that each report's verb
(``python -m repro figure5 / table1 / figures-1-4 / models / ablations``)
prints at paper scale with ``--full``.
"""

import pytest

from repro.analysis.perf import stable_digest
from repro.experiments import run_models_comparison, run_trace_figures
from repro.experiments.ablations import (
    compare_adaptive_period,
    compare_detection_protocols,
    sweep_accuracy,
    sweep_estimator,
    sweep_lb_period,
    sweep_min_components,
    sweep_threshold_ratio,
)
from repro.workloads import (
    ModelsComparisonScenario,
    Table1Scenario,
    TraceFigureScenario,
)


@pytest.fixture(scope="module")
def figure5_tiny(spied_sweep):
    return spied_sweep("figure5-tiny")[0]


def test_figure5_lb_wins_everywhere(figure5_tiny):
    for ratio in figure5_tiny.ratios:
        assert ratio > 1.2
    assert figure5_tiny.mean_ratio > 1.5


def test_figure5_both_series_scale(figure5_tiny):
    r = figure5_tiny
    assert r.time_unbalanced == sorted(r.time_unbalanced, reverse=True)
    assert r.time_balanced == sorted(r.time_balanced, reverse=True)


def test_figure5_migrations_happen(figure5_tiny):
    assert all(m > 0 for m in figure5_tiny.migrations)


def test_figure5_report_mentions_paper_band(figure5_tiny):
    report = figure5_tiny.report()
    assert "6.8" in report
    assert "ratio" in report


@pytest.fixture(scope="module")
def trace_figures():
    return run_trace_figures(TraceFigureScenario())


def test_trace_figures_idle_ordering(trace_figures):
    idle = trace_figures.idle_fractions()
    assert idle["figure3_aiac_eager"] == 0.0
    assert idle["figure4_aiac_exclusive"] == 0.0
    assert idle["figure2_siac"] > 0.0
    assert idle["figure1_sisc"] >= idle["figure2_siac"] * 0.9


def test_trace_figures_mutual_exclusion_sends_less(trace_figures):
    messages = trace_figures.halo_messages()
    assert messages["figure4_aiac_exclusive"] < messages["figure3_aiac_eager"]


def test_trace_figures_asynchronism_finishes_first(trace_figures):
    times = {key: run.time for key, run in trace_figures.runs.items()}
    assert times["figure3_aiac_eager"] <= times["figure2_siac"]
    assert times["figure2_siac"] <= times["figure1_sisc"]


def test_trace_figures_report_contains_gantt(trace_figures):
    report = trace_figures.report()
    assert "█" in report
    assert "Figure 1" in report and "Figure 4" in report


def test_models_comparison_shape():
    result = run_models_comparison(ModelsComparisonScenario())
    # Cluster: the three models are close (paper: "almost the same").
    assert result.advantage("cluster") < 1.3
    # Grid: the asynchronous model wins clearly.
    assert result.advantage("grid") > 1.3
    assert result.advantage("grid") > 1.5 * result.advantage("cluster")
    # SIAC sits between SISC and AIAC on the grid.
    grid = result.grid
    assert grid["aiac"].time <= grid["siac"].time <= grid["sisc"].time


def test_table1_quick_shape(table1_quick_observed):
    result, _ = table1_quick_observed
    assert 1.5 < result.ratio < 9.0  # balanced wins on the heterogeneous grid
    assert result.migrations > 0
    assert sum(result.final_sizes) == Table1Scenario.quick().n_points
    assert "Table 1" in result.report()


def ablation_digest(result):
    return stable_digest(
        [result.values, result.times, result.migrations, result.extra]
    )


def test_ablation_lb_period_sweep_runs():
    result = sweep_lb_period(values=(5, 40), n_procs=4)
    assert len(result.times) == 2
    assert ablation_digest(result) == (
        "393a889bb1f6a23d3ea7a8713f23f45f5836b11102d97ea2bffca7f4c6f4d576"
    )
    assert result.best() in (5, 40)
    assert "period" in result.report()


def test_ablation_estimator_sweep_runs():
    result = sweep_estimator(values=("residual", "component_count"), n_procs=4)
    assert len(result.times) == 2
    assert ablation_digest(result) == (
        "3adc591727a466214cc4bb4c8971ba09676673c5e0fe59f080e7bb443c74381e"
    )
    # The residual estimator must beat the naive component count on an
    # activity-imbalanced workload (the paper's §5.2 argument).
    by_value = dict(zip(result.values, result.times))
    assert by_value["residual"] < by_value["component_count"]


def test_ablation_detection_protocols():
    result = compare_detection_protocols(n_procs=4)
    assert ablation_digest(result) == (
        "2b5661a99e01a2250e98242fd636fc749067119abc7458a1ff8d55dd0b3975f1"
    )
    by_value = dict(zip(result.values, result.times))
    # The decentralized protocol detects no earlier than the oracle.
    assert by_value["token_ring"] >= by_value["oracle"] * 0.999
    overhead = dict(zip(result.values, result.extra["overhead (s)"]))
    assert 0.0 <= overhead["token_ring"] < by_value["oracle"] * 0.5


# The §6 conditions the ablation report prints, at the sweeps' own
# n_procs = 8 (at 4 the famine claim flips) and only the values each
# claim compares.
def test_ablation_both_period_extremes_lose():
    result = sweep_lb_period(values=(1, 5, 20, 320))
    times = dict(zip(result.values, result.times))
    # "Neither too high nor too low": a moderate period beats both ends.
    moderate = min(times[5], times[20])
    assert moderate <= times[320]
    assert moderate <= times[1] * 1.5


def test_ablation_threshold_disabling_balancing_loses():
    result = sweep_threshold_ratio(values=(1.2, 2.0, 3.0, 64.0))
    times = dict(zip(result.values, result.times))
    migrations = dict(zip(result.values, result.migrations))
    # A near-infinite threshold disables balancing and loses.
    assert min(times[2.0], times[3.0]) < times[64.0]
    assert migrations[64.0] <= min(migrations[1.2], migrations[2.0])


def test_ablation_accurate_migration_beats_coarse():
    result = sweep_accuracy(values=(0.1, 1.0))
    times = dict(zip(result.values, result.times))
    assert times[1.0] <= times[0.1]


def test_ablation_large_famine_threshold_loses():
    result = sweep_min_components(values=(2, 4, 16))
    times = dict(zip(result.values, result.times))
    assert min(times[2], times[4]) <= times[16]


def test_ablation_adaptive_period_is_competitive():
    result = compare_adaptive_period()
    times = dict(zip(result.values, result.times))
    fixed = [times["fixed-5"], times["fixed-20"], times["fixed-80"]]
    # Within 50% of the best fixed period, and no worse than the worst.
    assert times["adaptive"] <= min(fixed) * 1.5
    assert times["adaptive"] <= max(fixed)
