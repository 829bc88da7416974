"""Experiment harness: one module per table/figure (DESIGN.md §4).

Each ``run_*`` function executes the experiment and returns a result
object with a ``report()`` method printing the same rows/series the
paper shows; the benchmark files under ``benchmarks/`` are thin wrappers
around these.

An engine-backed sweep is five small things (``docs/architecture.md``,
"Experiment layer"): a scenario dataclass with presets
(:mod:`repro.workloads.scenarios`), one top-level task function that
reduces one run (through :func:`repro.models.run_model`) to a JSON
payload, the list of grid cells handed to :func:`repro.exec.sweep`, one
fold of the payload list into the result object, and one row of
:data:`repro.sweeps.SWEEP_VERBS` for the CLI, the serve daemon and the
observed runs.
"""

from repro.experiments.figure5 import Figure5Result, run_figure5
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.figures_1_to_4 import TraceFiguresResult, run_trace_figures
from repro.experiments.models_comparison import (
    ModelsComparisonResult,
    run_models_comparison,
)
from repro.experiments.integrity import IntegrityResult, run_integrity
from repro.experiments.resilience import ResilienceResult, run_resilience
from repro.experiments.topology_zoo import (
    TopologyZooResult,
    TopologyZooScenario,
    run_topology_zoo,
)

__all__ = [
    "run_figure5",
    "Figure5Result",
    "run_table1",
    "Table1Result",
    "run_trace_figures",
    "TraceFiguresResult",
    "run_models_comparison",
    "ModelsComparisonResult",
    "run_integrity",
    "IntegrityResult",
    "run_resilience",
    "ResilienceResult",
    "run_topology_zoo",
    "TopologyZooResult",
    "TopologyZooScenario",
]
