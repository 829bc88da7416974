"""Tests for the topology-zoo experiment + CLI verb (ISSUE 8)."""

import copy
import json

import pytest

from repro.analysis.perf import save_report
from repro.exec import RunCache, SweepEngine
from repro.experiments import (
    TopologyZooResult,
    TopologyZooScenario,
    run_topology_zoo,
)


def _tiny():
    return TopologyZooScenario(
        families=("chain", "torus"),
        algorithms=("diffusion", "reactive_residual"),
        schedules=("none", "load_shock"),
        n_nodes=8,
        rounds=24,
    )


def test_rows_cover_the_grid_in_order():
    scenario = _tiny()
    result = run_topology_zoo(scenario)
    assert len(result.rows) == 8
    expected = [
        (family, algorithm, schedule)
        for family in scenario.families
        for algorithm in scenario.algorithms
        for schedule in scenario.schedules
    ]
    got = [
        (row["family"], row["algorithm"], row["schedule"])
        for row in result.rows
    ]
    assert got == expected


def test_digest_is_reproducible_across_runs():
    a = run_topology_zoo(_tiny())
    b = run_topology_zoo(_tiny())
    assert a.digest() == b.digest()
    assert a.rows == b.rows


def test_parallel_and_cached_runs_match_serial(tmp_path):
    scenario = _tiny()
    serial = run_topology_zoo(scenario)
    with SweepEngine(jobs=2) as engine:
        parallel = run_topology_zoo(scenario, engine=engine)
    assert parallel.digest() == serial.digest()
    cache = RunCache(str(tmp_path / "cache"))
    cold_engine = SweepEngine(cache=cache)
    cold = run_topology_zoo(scenario, engine=cold_engine)
    assert cold_engine.stats.misses == len(serial.rows)
    warm_engine = SweepEngine(cache=cache)
    warm = run_topology_zoo(scenario, engine=warm_engine)
    assert warm_engine.stats.hits == len(serial.rows)
    assert cold.digest() == serial.digest()
    assert warm.digest() == serial.digest()


def test_winners_exclude_the_centralized_oracle():
    scenario = TopologyZooScenario(
        families=("torus",),
        algorithms=("diffusion", "centralized"),
        schedules=("none",),
        n_nodes=8,
        rounds=24,
    )
    result = run_topology_zoo(scenario)
    winners = result.winners()
    assert winners[("torus", "none")]["algorithm"] == "diffusion"
    with_oracle = result.winners(include_centralized=True)
    assert with_oracle[("torus", "none")]["algorithm"] == "centralized"


def test_report_and_json(tmp_path):
    result = run_topology_zoo(_tiny())
    report = result.report()
    assert "Which decentralized LB wins where" in report
    assert "reactive_residual" in report
    assert result.digest() in report
    path = tmp_path / "zoo.json"
    save_report(str(path), result.to_dict())
    data = json.loads(path.read_text())
    assert data["digest"] == result.digest()
    assert len(data["rows"]) == 8
    assert set(data["winners"]) == {
        f"{family}/{schedule}"
        for family in ("chain", "torus")
        for schedule in ("none", "load_shock")
    }


def test_scenario_validation_and_quick_preset():
    with pytest.raises(ValueError):
        TopologyZooScenario(families=("klein_bottle",))
    with pytest.raises(ValueError):
        TopologyZooScenario(algorithms=("gradient_descent",))
    with pytest.raises(ValueError):
        TopologyZooScenario(schedules=("earthquake",))
    quick = TopologyZooScenario.quick()
    # The ISSUE 8 acceptance floor: the paper's scheme plus >= 4 zoo
    # algorithms, >= 5 families, >= 2 fault schedules.
    assert "reactive_residual" in quick.algorithms
    assert len(quick.algorithms) >= 5
    assert len(quick.families) >= 5
    assert len(quick.schedules) >= 2


def test_cli_topology_zoo_verb(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "zoo.json"
    code = main(
        [
            "topology-zoo",
            "--no-cache",
            "--check",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "Which decentralized LB wins where" in printed
    assert "topology-zoo gate passed" in printed
    data = json.loads(out.read_text())
    # The default grid is TopologyZooScenario.quick(): its digest is pinned,
    # so drift in a policy, the driver or a fault schedule fails tier-1.
    assert len(data["rows"]) == 90
    assert data["digest"] == (
        "459b2829f28a39165a913e2f4bf28250ba5da345bf0adb052f48cd5bdb24e4b2"
    )


def _unlevel(rows):
    for row in rows:
        if (row["family"], row["algorithm"], row["schedule"]) == (
            "torus", "diffusion", "none"
        ):
            row["final_imbalance"] = 1.5
    return rows


def _drop_cell(rows):
    # chain is not a gated family, so only the winners clause breaks.
    return [
        row
        for row in rows
        if (row["family"], row["schedule"]) != ("chain", "link_flap")
    ]


@pytest.mark.parametrize(
    "doctor, clause",
    [
        (
            _unlevel,
            "spike not levelled: torus/diffusion/none: final imbalance "
            "1.500 > 1.15",
        ),
        (_drop_cell, "winners table not full: 14 of 15"),
    ],
)
def test_each_broken_clause_fails_the_check_by_name(
    spied_sweep, run_check, doctor, clause
):
    quick = spied_sweep("zoo-quick")[0]
    assert quick.gate_failures() == []
    broken = TopologyZooResult(
        scenario=quick.scenario, rows=doctor(copy.deepcopy(quick.rows))
    )
    assert broken.gate_failures() == [clause]
    with pytest.raises(SystemExit) as exc:
        run_check("topology-zoo", broken)
    assert isinstance(exc.value.code, str)  # printed, exit status 1
    assert exc.value.code.startswith("topology-zoo gate failed:")
    assert clause in exc.value.code


def test_a_missing_gated_row_fails_the_check(spied_sweep):
    quick = spied_sweep("zoo-quick")[0]
    rows = [
        row
        for row in quick.rows
        if (row["family"], row["algorithm"]) != ("hypercube", "centralized")
    ]
    broken = TopologyZooResult(scenario=quick.scenario, rows=rows)
    assert broken.gate_failures() == [
        "spike not levelled: hypercube/centralized/none: no row"
    ]
