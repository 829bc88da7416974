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
* :func:`repro.core.solver.run_aiac` — Asynchronous Iterations,
  Asynchronous Communications: no waiting at all; the eager (Figure 3)
  or mutual-exclusion (Figure 4) variant by
  ``SolverConfig.exclusive_sends``.

All three run the one rank loop of :func:`repro.core.solver.run_chain`,
so timing differences come only from when a rank waits.

The experiment layer names models by string: :mod:`repro.models.
registry` holds :data:`MODELS` (name -> driver), :data:`VERSIONS` and
:func:`run_model`.

:func:`~repro.models.lockstep.run_sisc_batched` is a rank-batched
replay of the SISC model — bit-identical results, orders of magnitude
fewer dispatched events — used by the scale benchmarks and the
``--scale`` experiment presets.  It takes no ``guard``: a guarded SISC
run is ``run_sisc(..., guard=g)``, whose watchdogs can roll a rank
back.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "MODELS": "registry",
        "VERSIONS": "registry",
        "run_model": "registry",
        "run_sisc": "sisc",
        "run_siac": "siac",
        "run_sisc_batched": "lockstep",
    },
)
