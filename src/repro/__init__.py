"""repro — reproduction of Bahi, Contassot-Vivier & Couturier (IPDPS 2003),
"Coupling Dynamic Load Balancing with Asynchronism in Iterative
Algorithms on the Computational Grid".

Quick tour
----------
>>> from repro import (
...     BrusselatorProblem, homogeneous_cluster,
...     SolverConfig, LBConfig, run_aiac, run_balanced_aiac,
... )
>>> problem = BrusselatorProblem(24, t_end=2.0, n_steps=20)
>>> platform = homogeneous_cluster(4, speed=5000.0)
>>> result = run_balanced_aiac(
...     problem, platform, SolverConfig(tolerance=1e-8), LBConfig(period=10)
... )
>>> result.converged
True

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — AIAC solvers, load balancing, convergence detection;
* :mod:`repro.models` — the SISC / SIAC / AIAC execution-model taxonomy;
* :mod:`repro.problems` — Brusselator, heat and synthetic problems;
* :mod:`repro.grid`, :mod:`repro.runtime`, :mod:`repro.des` — the
  simulated computational grid;
* :mod:`repro.balancing` — the non-centralized LB algorithms as step
  policies, and the loops that run them on arbitrary graphs;
* :mod:`repro.workloads`, :mod:`repro.experiments`,
  :mod:`repro.analysis` — the evaluation harness.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "SolverConfig": "core.config",
        "LBConfig": "core.config",
        "RunResult": "core.records",
        "run_aiac": "core.solver",
        "run_balanced_aiac": "core.lb",
        "run_sisc": "models.sisc",
        "run_siac": "models.siac",
        "BrusselatorProblem": "problems.brusselator",
        "HeatProblem": "problems.heat",
        "SyntheticProblem": "problems.synthetic",
        "Host": "grid.host",
        "Link": "grid.link",
        "Network": "grid.network",
        "Platform": "grid.platform",
        "homogeneous_cluster": "grid.platform",
        "multi_site_grid": "grid.platform",
        "paper_heterogeneous_grid": "grid.platform",
    },
)
__all__ = [*__all__, "__version__"]
