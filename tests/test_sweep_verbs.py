"""The sweep-verb table against the classes and functions it names.

``repro.sweeps`` spells its targets as strings so that building the CLI
parser imports no experiment code; what the strings and flag names
promise is checked here, and the CLI handler built on the table is
driven through every preset flag without running a sweep.
"""

import dataclasses
import inspect

import pytest

from repro.sweeps import SWEEP_VERBS, SweepVerb, _resolve


def test_every_row_resolves_and_every_flag_is_a_preset():
    from repro.workloads.scenarios import Scenario

    assert list(SWEEP_VERBS) == [
        "figure5", "table1", "resilience", "integrity", "topology-zoo"
    ]
    for name, verb in SWEEP_VERBS.items():
        cls = verb.scenario_class()
        assert issubclass(cls, Scenario) and dataclasses.is_dataclass(cls), name
        # The no-flag default and every declared flag name a preset.
        for mode in ("quick", *verb.flags):
            assert isinstance(verb.preset(mode), cls), (name, mode)
        target = inspect.signature(_resolve(verb.runner))
        assert "engine" in target.parameters, name
        assert list(target.parameters)[0] == "scenario", name
        assert verb.help and all(verb.flags.values()), name


def test_json_flag_is_offered_exactly_where_the_result_has_a_json_form():
    from repro.experiments import (
        Figure5Result,
        IntegrityResult,
        ResilienceResult,
        Table1Result,
        TopologyZooResult,
    )

    results = {
        "figure5": Figure5Result,
        "table1": Table1Result,
        "resilience": ResilienceResult,
        "integrity": IntegrityResult,
        "topology-zoo": TopologyZooResult,
    }
    for name, verb in SWEEP_VERBS.items():
        assert bool(verb.json) == hasattr(results[name], "to_dict"), name


def test_check_flag_is_offered_exactly_where_the_result_has_a_gate():
    from repro.experiments import IntegrityResult, TopologyZooResult

    gated = {"integrity": IntegrityResult, "topology-zoo": TopologyZooResult}
    for name, verb in SWEEP_VERBS.items():
        assert bool(verb.check) == (name in gated), name
    for result in gated.values():
        assert callable(result.gate_failures)


def test_served_kinds_and_observed_experiments_are_rows_of_the_table():
    from repro.obs.harness import EXPERIMENTS
    from repro.serve.spec import AdmissionError, validate_spec

    assert set(EXPERIMENTS) <= set(SWEEP_VERBS)
    # Every mode admission lets through for a served sweep kind is a
    # preset of that kind's scenario class.
    for kind in ("figure5", "resilience"):
        for mode in ("tiny", "quick", "full"):
            assert validate_spec({"kind": kind, "mode": mode})["mode"] == mode
            SWEEP_VERBS[kind].preset(mode)
        with pytest.raises(AdmissionError):
            validate_spec({"kind": kind, "mode": "scale"})


class StubResult:
    def report(self):
        return "stub report"


def resolved_scenario(monkeypatch, argv):
    """The scenario ``repro ARGV`` would run, without running it."""
    from repro.cli import main

    seen = []

    def run(self, scenario, **kwargs):
        assert set(kwargs) == {"engine"}
        seen.append(scenario)
        return StubResult()

    monkeypatch.setattr(SweepVerb, "run", run)
    assert main([*argv, "--no-cache"]) == 0
    (scenario,) = seen
    return scenario


def cli_cases():
    from repro.experiments import TopologyZooScenario
    from repro.workloads import (
        Figure5Scenario,
        IntegrityScenario,
        ResilienceScenario,
        Table1Scenario,
    )

    brusselator_quick = dataclasses.replace(
        Figure5Scenario.quick(), problem_kind="brusselator"
    )
    return [
        (["figure5"], Figure5Scenario.quick()),
        (["figure5", "--full"], Figure5Scenario()),
        (["figure5", "--scale"], Figure5Scenario.scale()),
        (["figure5", "--scale", "--full"], Figure5Scenario.scale()),
        (["figure5", "--problem", "brusselator"], brusselator_quick),
        (
            ["figure5", "--problem", "brusselator", "--full"],
            Figure5Scenario(problem_kind="brusselator"),
        ),
        (
            ["figure5", "--problem", "brusselator", "--scale"],
            Figure5Scenario.scale_brusselator(),
        ),
        (["table1"], Table1Scenario.quick()),
        (["table1", "--full"], Table1Scenario()),
        (["resilience"], ResilienceScenario.quick()),
        (["resilience", "--tiny"], ResilienceScenario.tiny()),
        (["resilience", "--full"], ResilienceScenario()),
        (["resilience", "--full", "--tiny"], ResilienceScenario()),
        (["integrity"], IntegrityScenario.quick()),
        (["integrity", "--tiny"], IntegrityScenario.tiny()),
        (["integrity", "--full", "--tiny"], IntegrityScenario()),
        (["topology-zoo"], TopologyZooScenario.quick()),
        (["topology-zoo", "--full"], TopologyZooScenario()),
    ]


@pytest.mark.parametrize("argv, expected", cli_cases())
def test_cli_flags_resolve_to_the_preset_they_name(
    monkeypatch, capsys, argv, expected
):
    assert resolved_scenario(monkeypatch, argv) == expected
    assert "stub report" in capsys.readouterr().out
