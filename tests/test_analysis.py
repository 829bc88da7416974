"""Tests for metrics, gantt rendering and report formatting."""

import numpy as np
import pytest

from repro.analysis import format_table, idle_fraction, render_gantt
from repro.core import SolverConfig, run_aiac
from repro.core.records import RunResult
from repro.grid import homogeneous_cluster
from repro.models import run_sisc
from repro.problems import SyntheticProblem
from repro.runtime.tracer import Tracer


def small_run(runner=run_aiac, trace=True):
    prob = SyntheticProblem(np.full(24, 0.8), coupling=0.3)
    plat = homogeneous_cluster(3, speed=100.0)
    return runner(prob, plat, SolverConfig(tolerance=1e-8, trace=trace))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_idle_fraction_zero_for_aiac():
    r = small_run()
    assert idle_fraction(r) == 0.0


def test_idle_fraction_positive_for_sisc_on_uneven_platform():
    from repro.grid.host import Host
    from repro.grid.link import Link
    from repro.grid.network import Network
    from repro.grid.platform import Platform

    plat = Platform(
        hosts=[Host("fast", 200.0), Host("slow", 100.0)],
        network=Network(Link(latency=0.05, bandwidth=1e6)),
    )
    prob = SyntheticProblem(np.full(24, 0.8), coupling=0.3)
    r = run_sisc(prob, plat, SolverConfig(tolerance=1e-8))
    assert idle_fraction(r) > 0.05


def test_idle_fraction_requires_trace():
    r = small_run(trace=False)
    with pytest.raises(ValueError, match="trace"):
        idle_fraction(r)


# ---------------------------------------------------------------------------
# Gantt
# ---------------------------------------------------------------------------


def test_gantt_renders_rows_per_rank():
    r = small_run()
    text = render_gantt(r, width=40)
    lines = text.splitlines()
    assert len(lines) == 1 + r.n_ranks
    for line in lines[1:]:
        assert line.count("|") == 2
        body = line.split("|")[1]
        assert len(body) == 40


def test_gantt_busy_everywhere_for_aiac():
    r = small_run()
    text = render_gantt(r, width=30)
    for line in text.splitlines()[1:]:
        body = line.split("|")[1]
        assert "░" not in body  # AIAC records no idle


def test_gantt_validation():
    r = small_run()
    with pytest.raises(ValueError):
        render_gantt(r, width=3)
    r_untraced = small_run(trace=False)
    with pytest.raises(ValueError, match="trace"):
        render_gantt(r_untraced)


def test_gantt_t_max_window():
    r = small_run()
    text = render_gantt(r, width=20, t_max=r.time / 2)
    assert f"[0, {r.time / 2:.3g}]" in text


def test_gantt_marks_migrations():
    from repro.core import LBConfig, run_balanced_aiac
    from repro.problems import SyntheticProblem as SP

    prob = SP.with_hard_region(48, easy_rate=0.4, hard_rate=0.95, active_cost=6.0)
    plat = homogeneous_cluster(3, speed=100.0)
    r = run_balanced_aiac(
        prob, plat, SolverConfig(tolerance=1e-8), LBConfig(period=5)
    )
    assert r.n_migrations > 0
    text = render_gantt(r, width=100)
    assert "▼" in text


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def test_format_table_alignment_and_rule():
    out = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert set(lines[1].replace(" ", "")) == {"-"}
    # All lines are padded to the same width.
    assert len({len(line) for line in lines}) == 1


def test_format_table_validation():
    with pytest.raises(ValueError):
        format_table([], [])
    with pytest.raises(ValueError):
        format_table(["a"], [[1, 2]])
