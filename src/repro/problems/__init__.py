"""Block-decomposable fixed-point problems.

Every solver in :mod:`repro.core` and :mod:`repro.models` operates on a
:class:`~repro.problems.base.Problem`: a global vector of *components*
partitioned in contiguous blocks over a logical chain of processors,
iterated towards a fixed point, with one-component-wide halo
dependencies on each side (the paper's "two spatial components before
``y_p`` and after ``y_q``" — their scalar numbering interleaves u and v,
so two scalars = one of our components).

Problems:

* :class:`~repro.problems.brusselator.BrusselatorProblem` — the paper's
  evaluation problem (Section 4), as nonlinear waveform relaxation.
* :class:`~repro.problems.synthetic.SyntheticProblem` — a controllable
  contraction model used for large parameter sweeps.
* :class:`~repro.problems.heat.HeatProblem` — 1-D implicit heat
  equation, a second physical example.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "IterationResult": "base",
        "Problem": "base",
        "BrusselatorProblem": "brusselator",
        "SyntheticProblem": "synthetic",
        "HeatProblem": "heat",
    },
)
