"""Pins on what the tracer records: the two Figure 5 arms, a
synchronous run and a faulted one.

The digests were taken while ``Tracer``'s recording calls still took
record objects.  Now that they take fields, an enabled tracer builds
the same six record lists, every tracer keeps the same aggregates, and
an untraced run builds no record at all.
"""

from dataclasses import fields

import pytest

from repro.analysis.perf import run_fingerprint, stable_digest
from repro.core.lb import run_balanced_aiac
from repro.core.solver import run_aiac
from repro.faults.injector import FaultInjector
from repro.models.sisc import run_sisc
from repro.obs.registry import MetricsRegistry
from repro.runtime import tracer as tracer_module
from repro.workloads.scenarios import Figure5Scenario, ResilienceScenario

RECORD_LISTS = {
    "iterations": "IterationSpan",
    "idles": "IdleSpan",
    "messages": "MessageRecord",
    "migrations": "MigrationRecord",
    "residuals": "ResidualRecord",
    "faults": "FaultRecord",
}

PINS = {
    "unbalanced": {
        "records": "9b4d320c9677c35d83bf998b22472a16108c560a5d882b2091b2143c571e64e7",
        "aggregates": "b0e002dd6fba5ed69aef4e9771c0ce89d55288801814c26d17a3a1174eed1b81",
        "lengths": {
            "iterations": 2989, "idles": 0, "messages": 4045,
            "migrations": 0, "residuals": 2989, "faults": 0,
        },
    },
    "balanced": {
        "records": "7ea8b55dff6eaf1ff900248371f2bc1f93b0e5fcbff1d4f38205729f91526ed9",
        "aggregates": "ec6f77430a5fef4c6f984687d083c6bcd0ecfdeb50cd10b7eac4df0060e0e351",
        "lengths": {
            "iterations": 1345, "idles": 0, "messages": 2562,
            "migrations": 41, "residuals": 1345, "faults": 0,
        },
    },
    # The two Figure 5 arms leave `idles` and `faults` empty; a
    # synchronous run and a faulted one cover those call sites.
    "sisc": {
        "records": "2034c6f8fbc1015448c41b23b31b63cd00dffeb428ec27a05620014d162ca352",
        "aggregates": "6582d56abe317eeda5303c3a40a7c0bb0a175bee33f2c1005376dd461154d35d",
        "lengths": {
            "iterations": 350, "idles": 348, "messages": 524,
            "migrations": 0, "residuals": 350, "faults": 0,
        },
    },
    "faulted": {
        "records": "e02c8d15e8890335cb10fb7fd359c52ec39d2ab44aaf2b04a1bd1b62fe3d0f33",
        "aggregates": "fbad1f3b404082328548398e8b03b60cd0a49d178cd9ad720245da9bc890414b",
        "lengths": {
            "iterations": 1841, "idles": 0, "messages": 2576,
            "migrations": 132, "residuals": 1841, "faults": 2,
        },
    },
}


def _solve(version: str, *, trace: bool):
    if version == "faulted":
        faulted = ResilienceScenario.tiny()
        return run_balanced_aiac(
            faulted.problem(),
            faulted.platform(),
            faulted.solver_config(trace=trace),
            faulted.lb_config(),
            injector=FaultInjector(faulted.schedule("loss10+crash")),
        )
    scenario = Figure5Scenario.tiny()
    platform = scenario.platform(scenario.proc_counts[0])
    config = scenario.solver_config(trace=trace)
    if version == "balanced":
        return run_balanced_aiac(
            scenario.problem(), platform, config, scenario.lb_config()
        )
    solve = run_sisc if version == "sisc" else run_aiac
    return solve(scenario.problem(), platform, config)


def _records_digest(tracer) -> str:
    return stable_digest(
        {
            name: [
                [getattr(record, f.name) for f in fields(record)]
                for record in getattr(tracer, name)
            ]
            for name in RECORD_LISTS
        }
    )


def _aggregates_digest(result) -> str:
    tracer = result.tracer
    registry = MetricsRegistry()
    tracer.export_metrics(registry)
    return stable_digest(
        {
            "busy": [tracer.busy_time_of(r) for r in range(result.n_ranks)],
            "idle": [tracer.idle_time_of(r) for r in range(result.n_ranks)],
            "n_messages": tracer.n_messages(),
            "n_migrations": tracer.n_migrations(),
            # per-kind message counts and bytes, per-rank iteration counts
            "metrics": registry.snapshot(),
        }
    )


@pytest.mark.parametrize("version", sorted(PINS))
def test_enabled_tracer_records_are_pinned(version):
    result = _solve(version, trace=True)
    tracer = result.tracer
    assert {n: len(getattr(tracer, n)) for n in RECORD_LISTS} == PINS[version][
        "lengths"
    ]
    assert _records_digest(tracer) == PINS[version]["records"]


@pytest.mark.parametrize("version", sorted(PINS))
@pytest.mark.parametrize("trace", [True, False])
def test_aggregates_are_pinned_in_both_modes(version, trace):
    assert _aggregates_digest(_solve(version, trace=trace)) == PINS[version][
        "aggregates"
    ]


@pytest.mark.parametrize("version", sorted(PINS))
def test_fingerprint_does_not_depend_on_tracing(version):
    assert run_fingerprint(_solve(version, trace=True)) == run_fingerprint(
        _solve(version, trace=False)
    )


@pytest.fixture
def constructed(monkeypatch):
    """Count every record object built through ``repro.runtime.tracer``."""
    counts = {cls_name: 0 for cls_name in RECORD_LISTS.values()}

    def counting(cls_name, cls):
        def build(*args, **kwargs):
            counts[cls_name] += 1
            return cls(*args, **kwargs)

        return build

    for cls_name in counts:
        monkeypatch.setattr(
            tracer_module, cls_name, counting(cls_name, getattr(tracer_module, cls_name))
        )
    return counts


@pytest.mark.parametrize("version", sorted(PINS))
def test_untraced_run_constructs_no_record(version, constructed):
    result = _solve(version, trace=False)
    assert result.tracer.n_messages() > 0  # the run did report to its tracer
    assert constructed == {cls_name: 0 for cls_name in RECORD_LISTS.values()}


@pytest.mark.parametrize("version", sorted(PINS))
def test_traced_run_constructs_exactly_the_records_it_keeps(version, constructed):
    tracer = _solve(version, trace=True).tracer
    assert constructed == {
        cls_name: len(getattr(tracer, name))
        for name, cls_name in RECORD_LISTS.items()
    }
    assert constructed == {
        cls_name: PINS[version]["lengths"][name]
        for name, cls_name in RECORD_LISTS.items()
    }
