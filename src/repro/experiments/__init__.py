"""Experiment harness: one module per table/figure (DESIGN.md §4).

Each ``run_*`` function executes the experiment and returns a result
object with a ``report()`` method printing the same rows/series the
paper shows.

An engine-backed sweep is five small things (``docs/architecture.md``,
"Experiment layer"): a scenario dataclass with presets
(:mod:`repro.workloads.scenarios`), one top-level task function that
reduces one run (through :func:`repro.models.run_model`) to a JSON
payload, the list of grid cells handed to :func:`repro.exec.sweep`, one
fold of the payload list into the result object, and one row of
:data:`repro.sweeps.SWEEP_VERBS` for the CLI, the serve daemon and the
observed runs.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "run_figure5": "figure5",
        "Figure5Result": "figure5",
        "run_table1": "table1",
        "Table1Result": "table1",
        "run_trace_figures": "figures_1_to_4",
        "TraceFiguresResult": "figures_1_to_4",
        "run_models_comparison": "models_comparison",
        "ModelsComparisonResult": "models_comparison",
        "run_integrity": "integrity",
        "IntegrityResult": "integrity",
        "run_resilience": "resilience",
        "ResilienceResult": "resilience",
        "run_topology_zoo": "topology_zoo",
        "TopologyZooResult": "topology_zoo",
        "TopologyZooScenario": "topology_zoo",
    },
)
