"""``BENCHMARK.json`` against the builder's contract, and the validator."""

import copy
import json
import os

import pytest

import report
from conftest import ROOT
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_committed_spec_meets_the_contract(spec):
    assert report.validate_spec(spec) == []
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    assert report.load_spec(ROOT) == spec


def test_spec_names_this_benchmark(spec):
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    # 4 + 22 runs per workload must fit the driver's 3420 s budget with
    # a set-up and a body per run: 30 s a run on average.
    assert (4 + 22 * len(spec["workloads"])) * 30 <= 3420


def test_every_end_to_end_metric_has_a_bound_and_setup_has_the_largest(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert {"wall_s", "peak_rss_mb", "virtual_time_s", "lb_ratio"} <= set(bounds)


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (lambda s: s.update(extra=1), "keys"),
        (lambda s: s["command"].append("/etc/passwd"), "absolute path"),
        (lambda s: s["command"].append("../x"), "absolute path"),
        (lambda s: s.update(paths=[]), "paths"),
        (lambda s: s.update(paths=["bad path"]), "paths"),
        (lambda s: s.update(run_seconds=61), "run_seconds"),
        (lambda s: s.update(run_seconds=2.5), "run_seconds"),
        (lambda s: s.update(workloads=s["workloads"][:1]), "workloads"),
        (lambda s: s["workloads"][0].update(name="-bad"), "not a valid name"),
        (lambda s: s["workloads"][0].update(name="x" * 65), "not a valid name"),
        (lambda s: s["workloads"][0].update(why="y" * 201), "why"),
        (lambda s: s["workloads"][0].update(expected_s=10), "exactly"),
        (lambda s: s["end_to_end"][0].update(bound=0.3), "bound"),
        (lambda s: s["end_to_end"][0].update(unit="a unit"), "bad unit"),
        (lambda s: s["end_to_end"][0].update(better="faster"), "better"),
        (lambda s: s["per_layer"][0].update(bound=0.1), "exactly"),
        (lambda s: s["per_layer"].append(dict(s["per_layer"][0])), "more than once"),
        (
            lambda s: s.update(
                end_to_end=[m for m in s["end_to_end"] if m["name"] != "setup_s"]
            ),
            "setup_s",
        ),
    ],
)
def test_validator_rejects(spec, mutate, expected):
    broken = copy.deepcopy(spec)
    mutate(broken)
    errors = report.validate_spec(broken)
    assert any(expected in error for error in errors), errors
