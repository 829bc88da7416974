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
* :mod:`repro.problems` — Brusselator, heat, linear and synthetic problems;
* :mod:`repro.grid`, :mod:`repro.runtime`, :mod:`repro.des` — the
  simulated computational grid;
* :mod:`repro.balancing` — the non-centralized LB algorithms as step
  policies, and the loops that run them on arbitrary graphs;
* :mod:`repro.workloads`, :mod:`repro.experiments`,
  :mod:`repro.analysis` — the evaluation harness.
"""

from repro.core import (
    LBConfig,
    RunResult,
    SolverConfig,
    run_aiac,
    run_balanced_aiac,
)
from repro.grid import (
    Host,
    Link,
    Network,
    Platform,
    homogeneous_cluster,
    multi_site_grid,
    paper_heterogeneous_grid,
)
from repro.models import run_aiac_model, run_siac, run_sisc
from repro.problems import (
    AdvectionDiffusionProblem,
    BrusselatorProblem,
    HeatProblem,
    LinearFixedPointProblem,
    SyntheticProblem,
)

__version__ = "1.0.0"

__all__ = [
    "SolverConfig",
    "LBConfig",
    "RunResult",
    "run_aiac",
    "run_balanced_aiac",
    "run_sisc",
    "run_siac",
    "run_aiac_model",
    "AdvectionDiffusionProblem",
    "BrusselatorProblem",
    "HeatProblem",
    "LinearFixedPointProblem",
    "SyntheticProblem",
    "Host",
    "Link",
    "Network",
    "Platform",
    "homogeneous_cluster",
    "multi_site_grid",
    "paper_heterogeneous_grid",
    "__version__",
]
