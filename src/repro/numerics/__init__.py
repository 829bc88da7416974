"""Numerical substrates: banded LU, batched Newton, implicit Euler.

These are the "Solve" building blocks of the paper's two-stage iteration
(Section 5): implicit Euler for the time derivative and Newton for the
resulting nonlinear systems.  Everything is implemented from scratch on
numpy; :mod:`scipy` is an independent oracle the tests call themselves,
imported by nothing here: the project does not depend on it.

Work accounting: the batched Newton solvers return *per-component
iteration counts*.  One Newton iteration on one component at one time
step is the **work unit** of the whole reproduction — hosts convert work
units to virtual seconds (:meth:`repro.grid.Host.duration_for_work`).
This is what makes per-iteration cost *activity dependent*: components
whose trajectories have locally converged verify in a single Newton
iteration, active components take several, so the local residual is a
faithful load estimator exactly as the paper argues (Section 5.2).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "BandedMatrix": "banded",
        "thomas_solve": "banded",
        "NewtonOptions": "newton",
        "NewtonResult": "newton",
        "newton_batched_2x2": "newton",
        "implicit_euler_banded": "euler",
        "ChainSegments": "ragged",
        "validate_chain_blocks": "ragged",
    },
)
