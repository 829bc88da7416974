"""The paper's contribution: AIAC solvers coupled with decentralized
dynamic load balancing.

Public entry points:

* :func:`~repro.core.solver.run_aiac` — Algorithm 1, the unbalanced
  asynchronous-iterations / asynchronous-communications solver;
* :func:`~repro.core.lb.run_balanced_aiac` — Algorithms 4–7, the
  residual-driven, non-centralized load-balanced AIAC solver;
* :class:`~repro.core.config.SolverConfig` /
  :class:`~repro.core.config.LBConfig` — run configuration;
* :class:`~repro.core.records.RunResult` — everything a run produces.

The synchronous execution models (SISC, SIAC) built on the same
machinery live in :mod:`repro.models`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "SolverConfig": "config",
        "LBConfig": "config",
        "SupervisorMonitor": "convergence",
        "TokenRingDetector": "convergence",
        "LoadEstimator": "estimators",
        "ResidualEstimator": "estimators",
        "IterationTimeEstimator": "estimators",
        "ComponentCountEstimator": "estimators",
        "make_estimator": "estimators",
        "PartitionRegistry": "partition",
        "RunResult": "records",
        "run_aiac": "solver",
        "run_balanced_aiac": "lb",
    },
)
