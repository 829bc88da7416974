"""Numerical substrates: banded LU, batched Newton, implicit Euler, norms.

These are the "Solve" building blocks of the paper's two-stage iteration
(Section 5): implicit Euler for the time derivative and Newton for the
resulting nonlinear systems.  Everything is implemented from scratch on
numpy; :mod:`scipy` is an independent oracle the tests ask for by name
(``backend="scipy"``), never a default: the project does not depend on it.

Work accounting: the batched Newton solvers return *per-component
iteration counts*.  One Newton iteration on one component at one time
step is the **work unit** of the whole reproduction — hosts convert work
units to virtual seconds (:meth:`repro.grid.Host.duration_for_work`).
This is what makes per-iteration cost *activity dependent*: components
whose trajectories have locally converged verify in a single Newton
iteration, active components take several, so the local residual is a
faithful load estimator exactly as the paper argues (Section 5.2).
"""

from repro.numerics.banded import BandedMatrix, solve_banded_system, thomas_solve
from repro.numerics.newton import NewtonOptions, NewtonResult, newton_batched_2x2
from repro.numerics.euler import implicit_euler_dense, implicit_euler_banded
from repro.numerics.norms import max_abs_norm, l2_norm, relative_change
from repro.numerics.ragged import ChainSegments, validate_chain_blocks

__all__ = [
    "BandedMatrix",
    "solve_banded_system",
    "thomas_solve",
    "NewtonOptions",
    "NewtonResult",
    "newton_batched_2x2",
    "implicit_euler_dense",
    "implicit_euler_banded",
    "max_abs_norm",
    "l2_norm",
    "relative_change",
    "ChainSegments",
    "validate_chain_blocks",
]
