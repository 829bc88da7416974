"""Zero-drift pins for the experiment layer.

Everything a refactor of the sweep scaffold could move without any
other test noticing is held here by value: the run-cache address of
every task the sweeps build (so entries written by an older checkout
are still served), every sweep digest, the resilience report text, the
observed runs' sidecar digests, and the CLI's whole
``(verb, option, default)`` surface.  The sweeps themselves come from
the session fixtures in ``conftest.py`` — the same runs the shape and
determinism tests read, not extra ones.
"""

import argparse

import pytest

from repro.analysis.perf import run_fingerprint, stable_digest
from repro.exec import RunCache

from tests.conftest import SWEEP_PATHS, SpyEngine, force_sweep_path


def cache_addresses(tasks):
    """``(count, digest of the ordered address list, first address)``."""
    cache = RunCache()
    digests = [cache.digest_for(task.key) for task in tasks]
    return len(digests), stable_digest(digests), digests[0]


class AnyPayload(dict):
    """Answers every field a result fold reads, so that a sweep's task
    construction can be observed without running a task."""

    def __missing__(self, key):
        return 0.0


# ----------------------------------------------------------------------
# Cache keys and digests of the engine-backed sweeps (124 tasks)
# ----------------------------------------------------------------------
SWEEP_PINS = {
    "figure5-tiny": (
        4,
        "1bfa5d22e6a47274ead349e6e15a56f28ddb1eec4477558e11137efbf22ea904",
        "8df9f48b6b3d7b22a0bd8de751ec693b3970aaf4cf7fcf089f715bc2d1af3324",
        "37cf43f16f79009ff3ef9280fc3e528eebfb04bd33a2f06d54799c593935efbd",
    ),
    "resilience-tiny": (
        8,
        "fdcab75b4dea81933f706ccb3a6c786f637b084dead4fd8ce7b44f7590abcad1",
        "e00e642509082176851016d013305fc2b12d21cea07a1f38cba895b0e971f07d",
        "c499e755380f945cb89524f6b53ebd85da2c33b19ffd4de56d6fe6d98586a472",
    ),
    "integrity-tiny": (
        8,
        "64674dfaa146193d7fd5ad04cdc3da8394a73d52ec9e50d54d84fb021bf4b1d3",
        "943b4786feb601093a727eefc6e983ed124df16a94d53f03b47141f9fbafdecd",
        "7839855a7ba8faa0c265a84094ddb85f6c3d213d8c44ba233b5370ad80c8da08",
    ),
    "zoo-quick": (
        90,
        "d14f916531cfa8b46ffb641c60e2a9902aab36c508b68f1fff22f18788332fd3",
        "436b6177b3867d43d0c139c490ed5169ebe3a2f3a9a9ec14526e023f79ab53e0",
        "459b2829f28a39165a913e2f4bf28250ba5da345bf0adb052f48cd5bdb24e4b2",
    ),
    "soak-2": (
        12,
        "20528be96ee10d78a7da37aaca95801dabbef2969eebc107f2f16c5154ac8ee6",
        "c6e1e8e7415122958a4a7b0b1cf58d59e8768a978b8d9bddf81ec80ca93a7c3e",
        "141f628f91530561405b1fe919f123ff59cd73b5744d6aa5127c80083571af59",
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_sweep_cache_keys_and_digest(spied_sweep, name):
    n_tasks, addresses, first, digest = SWEEP_PINS[name]
    result, tasks = spied_sweep(name)
    assert cache_addresses(tasks) == (n_tasks, addresses, first)
    assert result.digest() == digest


#: ``stable_digest`` of the ``faulted_guarded`` benchmark body's rows (the
#: quick integrity sweep's detect arm, AIAC+LB and AIAC, on the heat
#: problem).
FAULTED_GUARDED_ROWS = (
    "a54288e3c2ea57f31efa67b81bbe60a750acd61041b435d4aa79dec6903027e7"
)


@pytest.mark.parametrize("path", SWEEP_PATHS)
def test_synthetic_and_heat_sweeps_pinned_on_both_paths(monkeypatch, path):
    # The session's sweeps run on whichever path loads; here each path
    # must give the figure5 tiny digest and the faulted_guarded rows.
    from dataclasses import replace

    from repro.experiments import run_figure5, run_integrity
    from repro.workloads import Figure5Scenario, IntegrityScenario

    force_sweep_path(monkeypatch, path)
    figure5 = run_figure5(Figure5Scenario.tiny(), engine=SpyEngine())
    assert figure5.digest() == SWEEP_PINS["figure5-tiny"][3]
    scenario = replace(
        IntegrityScenario.quick(), arms=("detect",), models=("aiac+lb", "aiac")
    )
    assert stable_digest(run_integrity(scenario).rows) == FAULTED_GUARDED_ROWS


def test_resilience_report_text(spied_sweep):
    result, _ = spied_sweep("resilience-tiny")
    assert stable_digest(result.report()) == (
        "2cc4a96a303c4e553e74862af8554d1cda2dd9ddb6525e39c17a8795974b1aa5"
    )


def test_table1_cache_keys():
    from repro.experiments import run_table1
    from repro.workloads import Table1Scenario

    engine = SpyEngine(payload=AnyPayload(final_sizes=[]))
    run_table1(Table1Scenario.quick(), engine=engine)
    assert cache_addresses(engine.seen) == (
        2,
        "7bac6dcb39638616ee84d87d2f9abea34dfd8b13af0fed952851e9c2eae42eaf",
        "a6d81ab90d09e067e013f4f0da534473f5d0796792c84b315ebc1f923587d5c4",
    )


def test_table1_quick_values(table1_quick_observed):
    result, _ = table1_quick_observed
    assert stable_digest(
        [
            result.time_unbalanced,
            result.time_balanced,
            result.migrations,
            result.components_migrated,
            list(result.final_sizes),
        ]
    ) == "508e4afdbe93ca58096cbacd7f76d2d71a07532fed49ca3d1324731c91f488fb"


ABLATION_PINS = {
    "sweep_lb_period": (
        5, "eae503315eb01ced65155b7d17a14fdbf019e0ebd6e6e45af71a3205eb0a17bc"
    ),
    "sweep_threshold_ratio": (
        5, "dbc65d0973d1cb5c66d98b943ad92f87dfa42e79a9be07bd05bb5c89408fc117"
    ),
    "sweep_accuracy": (
        4, "039afa4b0a4a0c29af698bcb0721118df71c3766fef4926de7e3744b7b1778da"
    ),
    "sweep_min_components": (
        4, "20c9d068be92c7a314ee8b70dfde025db46c421e7588f42e5591632369032265"
    ),
    "sweep_estimator": (
        4, "bb03b7ca9d6e82ac6f7cff1c6096ec3d11d1484de9177e2f663a2c0b952e7fa5"
    ),
    "compare_adaptive_period": (
        4, "45f655b635040ee8b2959c3d55b35002efcf839da3bd54dd948a168a8e38624d"
    ),
    "compare_detection_protocols": (
        2, "06bfc1a77f0f10c3f15937eafdf5ca2c251c69cd62bb20618dd4e53abe9c698a"
    ),
    "compare_skip_optimisation": (
        2, "74113384e3be7257cda4e1b18dfa001f09b3ac5c6a8565b8d22e00a3fd34c22d"
    ),
}


@pytest.mark.parametrize("entry_point", sorted(ABLATION_PINS))
def test_ablation_cache_keys(entry_point):
    import repro.experiments.ablations as ablations

    engine = SpyEngine(payload=AnyPayload())
    getattr(ablations, entry_point)(engine=engine)
    assert cache_addresses(engine.seen)[:2] == ABLATION_PINS[entry_point]


# ----------------------------------------------------------------------
# Observed runs: sidecar digests and the traced headline runs
# ----------------------------------------------------------------------
def test_observed_figure5_sidecar_and_headline(observed_run):
    obs = observed_run("figure5", "tiny", profile=True)
    assert obs.sidecar.digest() == (
        "5207b836eaae1a55220e002d80b0a09f552965c70813c357258a549bca284a18"
    )
    assert obs.traced_label == "p8/balanced"
    assert run_fingerprint(obs.traced) == (
        "90443b48824876192ef5c3fd48f7ad4c07fa336a68b400c9c4016ecfbfffb974"
    )


def test_observed_table1_sidecar(table1_quick_observed):
    _, sidecar = table1_quick_observed
    assert sidecar.n_runs == 2
    assert sidecar.digest() == (
        "94d7093bf638449b321cfc6c746bf8b51ae6eea68d51e2116c45fe45beccb9fa"
    )


def test_observed_table1_headline_is_the_balanced_run(monkeypatch):
    # ``metrics table1 --tiny`` means quick (Table 1 has no tiny
    # preset); quick is cut down here so that the third, traced run of
    # the observed path stays affordable.
    from dataclasses import replace

    from repro.obs import run_observed
    from repro.workloads import Table1Scenario

    small = replace(
        Table1Scenario.quick(), n_points=45, n_steps=10, tolerance=1e-3
    )
    monkeypatch.setattr(Table1Scenario, "quick", classmethod(lambda cls: small))
    obs = run_observed("table1", mode="tiny")
    assert (obs.mode, obs.traced_label, obs.sidecar.n_runs) == (
        "tiny", "balanced", 2
    )
    assert obs.sidecar.digest() == (
        "0c3205df490d892c20f91bbef1b5b4fc357a5b6f81381be37991f278752bd196"
    )
    assert run_fingerprint(obs.traced) == (
        "eec2b5d1e43e9ac55245f7d211108afddbb0c127c975e6bc4743faa249ba51ba"
    )


def test_observed_resilience_sidecar_and_headline(observed_run):
    obs = observed_run("resilience", "tiny")
    # 8 sweep runs + the traced headline run, collected with its injector.
    assert obs.sidecar.n_runs == 9
    assert obs.traced_label == "loss10+crash/aiac+lb"
    assert obs.sidecar.digest() == (
        "391b3bc17b48ba0628846d18ce7662c7e915e75b489ff76805a4767130baf747"
    )


# ----------------------------------------------------------------------
# The CLI surface
# ----------------------------------------------------------------------
CLI_VERBS_WITHOUT_OPTIONS = {"figures-1-4", "models", "list"}

_ENGINE_FLAGS = [
    ("--jobs", 1),
    ("--cache/--no-cache", True),
    ("--cache-dir", ".repro-cache"),
    ("--cache-max-mb", None),
]
_SOCKET = ("--socket", ".repro-serve/serve.sock")

CLI_SURFACE = {
    "figure5": [
        ("--full", False),
        ("--scale", False),
        ("--problem", "synthetic"),
        ("--json", ""),
        *_ENGINE_FLAGS,
    ],
    "table1": [("--full", False), *_ENGINE_FLAGS],
    "resilience": [
        ("--full", False),
        ("--tiny", False),
        ("--json", ""),
        *_ENGINE_FLAGS,
    ],
    "integrity": [
        ("--full", False),
        ("--tiny", False),
        ("--json", ""),
        ("--check", False),
        *_ENGINE_FLAGS,
    ],
    "topology-zoo": [
        ("--full", False),
        ("--json", ""),
        ("--check", False),
        *_ENGINE_FLAGS,
    ],
    "metrics": [
        ("experiment", None),
        ("--tiny", False),
        ("--full", False),
        ("--out", "obs"),
        ("--profile", False),
        ("--no-trace", False),
    ],
    "soak": [
        ("--schedules", 50),
        ("--seed", 0),
        ("--models", ""),
        ("--out-dir", "."),
        ("--json", ""),
        ("--no-shrink", False),
        *_ENGINE_FLAGS,
    ],
    "ablations": [("--only", ""), *_ENGINE_FLAGS],
    "serve": [
        ("--state-dir", ".repro-serve"),
        ("--socket", ""),
        ("--workers", 2),
        ("--cache/--no-cache", True),
        ("--cache-dir", ""),
        ("--cache-max-mb", None),
        ("--quota", 16),
        ("--job-timeout", 600.0),
        ("--max-retries", 2),
        ("--retry-backoff", 1.0),
        ("--no-fsync", False),
    ],
    "submit": [
        ("--kind", None),
        ("--mode", "tiny"),
        ("--schedules", 5),
        ("--seed", 0),
        ("--seconds", 0.1),
        ("--tasks", 1),
        ("--tenant", "default"),
        ("--priority", 0),
        ("--wait", False),
        _SOCKET,
    ],
    "jobs": [("--tenant", ""), ("--json", False), _SOCKET],
    "result": [("job_id", None), ("--follow", False), _SOCKET],
    "health": [("--json", False), _SOCKET],
    "audit-replay": [
        ("--state-dir", ".repro-serve"),
        ("--audit", ""),
        ("--sample", 5),
        ("--seed", 0),
    ],
    "solve": [
        ("--problem", "brusselator"),
        ("--size", 48),
        ("--ranks", 4),
        ("--slow-factor", 1.0),
        ("--model", "aiac"),
        ("--lb", False),
        ("--lb-period", 10),
        ("--tolerance", 1e-07),
        ("--gantt", False),
        ("--json", ""),
    ],
}


def test_cli_surface_is_exactly_this_table():
    from repro.cli import build_parser

    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    surface = {}
    for verb, command in subparsers.choices.items():
        surface[verb] = {
            ("/".join(action.option_strings) or action.dest, action.default)
            for action in command._actions
            if not isinstance(action, argparse._HelpAction)
        }
    expected = {verb: set(rows) for verb, rows in CLI_SURFACE.items()}
    expected.update({verb: set() for verb in CLI_VERBS_WITHOUT_OPTIONS})
    assert surface == expected
