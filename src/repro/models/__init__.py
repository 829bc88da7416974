"""The parallel-iterative execution-model taxonomy (paper Section 1.2).

Three ways to run the same block-relaxation over the same platform:

* :func:`~repro.models.sisc.run_sisc` — Synchronous Iterations,
  Synchronous Communications: everyone exchanges at the end of each
  iteration through a global synchronisation (Figure 1);
* :func:`~repro.models.siac.run_siac` — Synchronous Iterations,
  Asynchronous Communications: boundary data is sent as soon as
  updated, overlapping communication with the rest of the sweep, but a
  rank still waits for its neighbours' previous-iteration data
  (Figure 2);
* :func:`~repro.models.aiac.run_aiac_model` — Asynchronous Iterations,
  Asynchronous Communications: no waiting at all (Figures 3/4); thin
  wrapper over :func:`repro.core.solver.run_aiac` selecting the eager
  (Figure 3) or mutual-exclusion (Figure 4) variant.

All three share the chain machinery of :mod:`repro.core.solver`, so
timing differences come only from the synchronisation semantics.

The experiment layer names models by string — ``"sisc"``, ``"siac"``,
``"aiac"`` and ``"aiac+lb"`` (the load-balanced solver of
:mod:`repro.core.lb`): :data:`MODELS` maps a name to its driver and
:func:`run_model` runs one on a scenario.

:func:`~repro.models.lockstep.run_sisc_batched` is a rank-batched
replay of the SISC model — bit-identical results, orders of magnitude
fewer dispatched events — used by the scale benchmarks and the
``--scale`` experiment presets.
"""

from typing import Any

from repro._exports import lazy_exports
from repro.core.lb import run_balanced_aiac
from repro.core.records import RunResult
from repro.core.solver import run_aiac
from repro.models.sisc import run_sisc
from repro.models.siac import run_siac

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "run_sisc": "sisc",
        "run_siac": "siac",
        "run_aiac_model": "aiac",
        "run_sisc_batched": "lockstep",
    },
)
__all__ = ["MODELS", "VERSIONS", "run_model", *__all__]

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
    driver untouched: ``host_order``, ``injector``, ``guard`` and, for
    the two AIAC drivers only, ``profiler``.
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
