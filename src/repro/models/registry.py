"""Model names (``"sisc"``, ``"siac"``, ``"aiac"``, ``"aiac+lb"``) resolved
to their event-driven drivers: :data:`MODELS`, :data:`VERSIONS` and
:func:`run_model`.  Importing it loads that engine; the lockstep replay
never does."""

from typing import Any

from repro.core.lb import run_balanced_aiac
from repro.core.records import RunResult
from repro.core.solver import run_aiac
from repro.models.siac import run_siac
from repro.models.sisc import run_sisc

__all__ = ["MODELS", "VERSIONS", "run_model"]

#: Model name -> driver: the one place a model name is resolved.
MODELS = {
    "aiac": run_aiac,
    "aiac+lb": run_balanced_aiac,
    "siac": run_siac,
    "sisc": run_sisc,
}

#: The two "versions" Figure 5 and Table 1 compare, as model names.
VERSIONS = {"unbalanced": "aiac", "balanced": "aiac+lb"}


def run_model(
    model: str,
    scenario: Any,
    *,
    platform: Any = None,
    trace: bool = False,
    **hooks: Any,
) -> RunResult:
    """One solve of ``model`` on a scenario's problem and platform.

    Problem, platform and solver configuration are built fresh per call
    (a platform's host/link state is mutated by timed faults), and
    ``aiac+lb`` alone receives the scenario's ``lb_config()``.
    ``platform`` replaces ``scenario.platform()`` for scenarios whose
    platform takes an argument (Figure 5's processor count) or whose
    caller needs it first (Table 1's host order).  ``hooks`` go to the
    driver untouched; every driver takes the same ones: ``host_order``,
    ``injector``, ``profiler`` and ``guard`` (see
    :func:`repro.core.solver.run_chain`).
    """
    if model not in MODELS:
        raise ValueError(
            f"unknown model {model!r}; choose from {sorted(MODELS)}"
        )
    if platform is None:
        platform = scenario.platform()
    args = [scenario.problem(), platform, scenario.solver_config(trace=trace)]
    if model == "aiac+lb":
        args.append(scenario.lb_config())
    return MODELS[model](*args, **hooks)
