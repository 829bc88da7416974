"""The engine-backed sweep verbs, one table row each.

``repro figure5 / table1 / resilience / integrity / topology-zoo`` all
do the same thing — resolve a scenario preset, run the experiment
through a :class:`~repro.exec.SweepEngine`, print its report — and
three callers need to know which scenario class and runner a verb name
means: the CLI (:mod:`repro.cli`), the served ``figure5`` /
``resilience`` job kinds (:mod:`repro.serve.spec`) and ``repro metrics``
(:mod:`repro.obs.harness`).  They all read this table.

The table names its targets as ``"module:attribute"`` strings and
imports them on first use: the CLI builds its parser from it for every
verb, ``repro health`` included, so importing this module must not load
the experiment stack (``tests/test_import_hygiene.py`` holds that, and
``tests/test_sweep_verbs.py`` checks every declared flag against the
scenario class it names).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Mapping

__all__ = ["SWEEP_VERBS", "SweepVerb"]


def _resolve(target: str) -> Any:
    module, _, attribute = target.partition(":")
    return getattr(import_module(module), attribute)


@dataclass(frozen=True)
class SweepVerb:
    """One sweep verb: where its scenario and runner live, and its flags."""

    #: One line for ``repro list`` and ``repro VERB --help``.
    help: str
    #: ``"module:Class"`` of the scenario dataclass.
    scenario: str
    #: ``"module:function"`` of ``run_*(scenario, *, engine=...)``.
    runner: str
    #: Preset flag -> its help line, in precedence order (the first one
    #: set wins); with none set the verb runs the ``quick`` preset.
    flags: Mapping[str, str]
    #: Help line of ``--json``; empty when the result has no JSON form.
    json: str = ""
    #: Whether ``--json`` also records the engine's counts.
    json_engine: bool = False
    #: Help line of ``--check``; empty when the result has no gate.
    check: str = ""

    def scenario_class(self) -> Any:
        return _resolve(self.scenario)

    def preset(self, mode: str) -> Any:
        """The scenario instance ``mode`` means for this verb."""
        return self.scenario_class().preset(mode)

    def run(self, scenario: Any, **kwargs: Any) -> Any:
        return _resolve(self.runner)(scenario, **kwargs)


SWEEP_VERBS: dict[str, SweepVerb] = {
    "figure5": SweepVerb(
        help="time vs processors, with/without LB (paper Figure 5)",
        scenario="repro.workloads.scenarios:Figure5Scenario",
        runner="repro.experiments.figure5:run_figure5",
        flags={
            "scale": "large-N preset: the same curves out to 1024 ranks "
            "(overrides --full; expect minutes)",
            "full": "paper-scale run (minutes) instead of the quick one",
        },
        json="write rows + digest + engine stats to this JSON file",
        json_engine=True,
    ),
    "table1": SweepVerb(
        help="heterogeneous 3-site grid (paper Table 1)",
        scenario="repro.workloads.scenarios:Table1Scenario",
        runner="repro.experiments.table1:run_table1",
        flags={"full": "paper-scale run (minutes) instead of the quick one"},
    ),
    "resilience": SweepVerb(
        help="execution models under injected faults",
        scenario="repro.workloads.scenarios:ResilienceScenario",
        runner="repro.experiments.resilience:run_resilience",
        flags={
            "full": "all fault schedules instead of the quick subset",
            "tiny": "smallest sweep (CI smoke: clean baseline + "
            "loss-and-crash)",
        },
        json="also write the report (rows + digest) to this JSON file",
    ),
    "integrity": SweepVerb(
        help="silent-corruption injection vs detection/recovery",
        scenario="repro.workloads.scenarios:IntegrityScenario",
        runner="repro.experiments.integrity:run_integrity",
        flags={
            "full": "all corruption schedules instead of the quick subset",
            "tiny": "smallest sweep (clean baseline + one payload schedule)",
        },
        json="also write the report (rows + digest) to this JSON file",
        check="exit non-zero on a wrong answer with detection armed, a "
        "clean path that differs between arms, or a payload schedule that "
        "never fires or misses a corruption",
    ),
    "topology-zoo": SweepVerb(
        help="LB algorithms x topologies x fault schedules",
        scenario="repro.experiments.topology_zoo:TopologyZooScenario",
        runner="repro.experiments.topology_zoo:run_topology_zoo",
        flags={
            "full": "full grid (all families/algorithms/schedules) instead "
            "of the quick CI cut",
        },
        json="also write rows + winners + digest to this JSON file",
        check="exit non-zero unless the gated algorithms level the "
        "fault-free spike on the fast-mixing graphs and every cell has a winner",
    ),
}
