"""End-to-end tests for the resilience experiment sweep."""

import json

import pytest

from repro.analysis.perf import save_report, stable_digest
from repro.experiments import run_resilience
from repro.workloads import ResilienceScenario


@pytest.fixture(scope="module")
def tiny_result(spied_sweep):
    return spied_sweep("resilience-tiny")[0]


def test_sweep_covers_every_schedule_model_pair(tiny_result):
    scenario = ResilienceScenario.tiny()
    seen = {(row["schedule"], row["model"]) for row in tiny_result.rows}
    expected = {
        (s, m) for s in scenario.schedule_names for m in scenario.models
    }
    assert seen == expected


def test_headline_row_converges_correctly(tiny_result):
    scenario = ResilienceScenario.tiny()
    row = tiny_result.row(scenario.headline, "aiac+lb")
    assert row is not None
    assert row["converged"]
    assert row["max_error"] < 1e-3
    assert row["crashes"] == 1
    assert row["restarts"] == 1


def test_sweep_is_deterministic(tiny_result):
    again = run_resilience(ResilienceScenario.tiny())
    assert again.digest() == tiny_result.digest()
    assert again.rows == tiny_result.rows


def test_report_carries_digest_and_fault_overlay(tiny_result):
    report = tiny_result.report()
    assert tiny_result.digest() in report
    # The headline Gantt must overlay the injected crash window.
    assert "✖" in tiny_result.headline_gantt
    assert tiny_result.headline_gantt in report


def test_save_json_round_trip(tiny_result, tmp_path):
    path = tmp_path / "bench.json"
    save_report(str(path), tiny_result.to_dict())
    data = json.loads(path.read_text())
    assert data["digest"] == tiny_result.digest()
    assert data["rows"] == tiny_result.rows
    # The stored digest re-derives from the stored rows alone.
    assert stable_digest({"rows": data["rows"]}) == data["digest"]


def test_unknown_schedule_name_is_rejected():
    scenario = ResilienceScenario(schedule_names=("none", "nope"))
    with pytest.raises(ValueError, match="nope"):
        scenario.schedule("nope")
