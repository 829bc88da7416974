"""The block-decomposable fixed-point problem interface.

A problem defines a global index space of ``n_components`` *components*
(the paper's migratable spatial unknowns).  Each solver rank owns a
contiguous slice ``[lo, hi)`` held as one :class:`BlockState`: ``lo``
plus the array ``traj`` whose axis 0 is the component and whose trailing
shape is the problem's :attr:`Problem.component_shape` (a trajectory
``(n_steps + 1,)`` for heat, ``(2, n_steps + 1)`` for the Brusselator's
``(u, v)``, ``()`` for the synthetic model's one error).

That one layout is what lets :class:`Problem` own everything that only
moves components around — the block range check, ``n_local``, halo
extraction, ``split`` / ``merge`` for migration, checkpoint copies,
solutions and wire sizes — so a problem supplies only its numerics:

* :meth:`Problem.iterate` performs one local relaxation sweep given the
  current halo data from both neighbours, returns per-component
  residuals and per-component **work** (in work units; see
  :mod:`repro.numerics`) with their max and sum, and mutates the state
  in place;
* :meth:`Problem.initial_traj` / :meth:`Problem.initial_halo` give the
  initial data and the boundary conditions.

The solver never looks inside halos, which is what lets one AIAC/LB
implementation drive the Brusselator, the heat equation and the
synthetic model alike ("the principle of AIAC algorithms is generic",
Section 5).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.numerics.ragged import ChainSegments

__all__ = ["BlockState", "ChainSweeper", "IterationResult", "Problem", "padded"]


def padded(old: np.ndarray, left_halo: Any, right_halo: Any) -> np.ndarray:
    """``(n + 2, ...)``: the per-component rows ``old`` between the two
    halo rows, so that ``[:-2]`` / ``[2:]`` are every component's left /
    right neighbour as views (a Jacobi sweep reads them, never writes)."""
    ext = np.empty((old.shape[0] + 2,) + old.shape[1:], dtype=old.dtype)
    ext[:1] = left_halo
    ext[1:-1] = old
    ext[-1:] = right_halo
    return ext


@dataclass(slots=True)
class BlockState:
    """A rank's components ``[lo, lo + n)``: row ``j`` of ``traj`` is
    component ``lo + j``."""

    lo: int
    traj: np.ndarray

    @property
    def n(self) -> int:
        return self.traj.shape[0]


@dataclass(slots=True)
class IterationResult:
    """Outcome of one local relaxation sweep.

    Attributes
    ----------
    residuals:
        Per-component residual (infinity norm of the component's change
        during the sweep) — the paper's load estimator.
    work:
        Per-component work in work units (counted Newton component-steps
        or equivalent).
    local_residual:
        ``float(residuals.max())``, 0.0 for an empty block: the node's
        load estimate.
    total_work:
        ``float(work.sum())``.

    The problem reports the two reductions with the arrays, bit for bit
    what NumPy's reductions of those arrays return: a compiled sweep and
    the Brusselator's sweep on Python floats have them from their own
    loop, a NumPy sweep builds the result with :meth:`from_arrays`.
    """

    residuals: np.ndarray
    work: np.ndarray
    local_residual: float
    total_work: float

    @classmethod
    def from_arrays(cls, residuals: np.ndarray, work: np.ndarray) -> "IterationResult":
        """The result of an array sweep, its reductions taken by NumPy."""
        if residuals.shape != work.shape:
            raise ValueError(
                f"residuals and work must align, got {residuals.shape} "
                f"vs {work.shape}"
            )
        local = float(residuals.max()) if residuals.size else 0.0
        return cls(residuals, work, local, float(work.sum()))


class Problem(ABC):
    """A fixed-point problem decomposable over a logical chain.

    Subclasses set :attr:`n_components` and :attr:`component_shape` and
    implement :meth:`initial_traj`, :meth:`iterate` and
    :meth:`initial_halo`; the block bookkeeping below is shared.  Halos
    must be cheap, self-contained arrays (they travel in messages).
    """

    #: Global number of migratable components.
    n_components: int
    #: Trailing shape of one component's row in :attr:`BlockState.traj`.
    component_shape: tuple[int, ...]
    #: Human-readable problem name (used in reports).
    name: str = "problem"
    #: The block class :meth:`initial_state` builds.
    state_class: type[BlockState] = BlockState

    # ------------------------------------------------------------------
    # State lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def initial_traj(self, lo: int, hi: int) -> np.ndarray:
        """Initial rows of global components ``[lo, hi)``, computed
        elementwise from global indices (so one ``[0, N)`` call equals
        the concatenated blocks: :class:`ChainSweeper` relies on it)."""

    def initial_state(self, lo: int, hi: int) -> BlockState:
        """Create the local state for global components ``[lo, hi)``."""
        if not 0 <= lo < hi <= self.n_components:
            raise ValueError(
                f"invalid block [{lo}, {hi}) for {self.n_components} components"
            )
        return self.state_class(lo, self.initial_traj(lo, hi))

    def n_local(self, state: BlockState) -> int:
        """Number of components currently held by ``state``."""
        return state.traj.shape[0]

    @abstractmethod
    def iterate(
        self, state: BlockState, left_halo: Any, right_halo: Any
    ) -> IterationResult:
        """One relaxation sweep; mutates ``state``, returns residual/work.

        A caller never mutates a halo it has passed: when the values
        change it passes a new array (a problem may keep a reference and
        take the same object for the same values)."""

    def copy_state(self, state: BlockState) -> BlockState:
        """Independent snapshot of a local state (checkpoints, which
        ``faulted_guarded`` takes at every migration): one array copy."""
        return self.state_class(state.lo, state.traj.copy())

    def state_array(self, state: BlockState) -> np.ndarray:
        """The mutable array backing ``state``.

        Consumed by the data-integrity layer: in-memory corruption
        injection (:class:`~repro.faults.models.StateCorruption`) and
        the plausibility guard's NaN/Inf screens need a raw view of the
        block's values.
        """
        return state.traj

    def batched_chain_sweeper(self, blocks: list[tuple[int, int]]) -> "ChainSweeper":
        """The lockstep replay's sweeper over static ``blocks``.

        Every problem's :meth:`iterate` is Jacobi in space: it reads the
        neighbours only through the halos and sweeps every component on
        its own, so one sweep of the whole chain between the domain-edge
        halos is every block's sweep against its neighbours'
        previous-iteration boundaries, bit for bit.
        """
        return ChainSweeper(self, blocks)

    # ------------------------------------------------------------------
    # Halos
    # ------------------------------------------------------------------
    def halo_out(self, state: BlockState, side: str) -> np.ndarray:
        """Boundary data for the ``side`` neighbour ('left' or 'right'):
        the edge component's row, ``(1,) + component_shape``.  Any other
        ``side`` raises :meth:`check_side`'s error, without the call."""
        if side == "left":
            return state.traj[:1].copy()
        if side == "right":
            return state.traj[-1:].copy()
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    @abstractmethod
    def initial_halo(self, global_index: int) -> Any:
        """Halo for component ``global_index`` before any message arrived.

        Ranks bootstrap from the problem's initial guess, exactly like an
        SPMD code that knows the global initial data.  Indices ``-1`` and
        ``n_components`` denote the domain edges (boundary conditions).
        """

    def halo_nbytes(self) -> float:
        """Wire size of one halo payload (drives network timing): one
        component's row."""
        return self.component_nbytes()

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def split(self, state: BlockState, n: int, side: str) -> np.ndarray:
        """Remove the ``n`` components nearest ``side``; return the payload."""
        self.check_side(side)
        total = state.traj.shape[0]
        if not 0 < n < total:
            raise ValueError(f"cannot split {n} of {total} components")
        if side == "left":
            payload = state.traj[:n].copy()
            state.traj = state.traj[n:].copy()
            state.lo += n
        else:
            payload = state.traj[total - n :].copy()
            state.traj = state.traj[: total - n].copy()
        return payload

    def merge(self, state: BlockState, payload: Any, side: str) -> None:
        """Attach a migrated payload on ``side`` of ``state`` (in place)."""
        self.check_side(side)
        payload = np.asarray(payload, dtype=float)
        if payload.ndim == 0 or payload.shape[1:] != self.component_shape:
            raise ValueError(
                f"bad migration payload shape {payload.shape}; expected "
                f"(n,) + {self.component_shape}"
            )
        if side == "left":
            state.traj = np.concatenate([payload, state.traj], axis=0)
            state.lo -= payload.shape[0]
        else:
            state.traj = np.concatenate([state.traj, payload], axis=0)

    def component_nbytes(self) -> float:
        """Wire size per migrated component (float64 values)."""
        return 8.0 * math.prod(self.component_shape)

    def payload_edge_halo(self, payload: Any, edge: str) -> Any:
        """Halo-formatted view of a migration payload's first/last component.

        After shipping its ``n`` leftmost components, the sender's new
        left halo is the *last* component of the payload (its data
        dependency now lives on the neighbour); symmetrically for the
        right.  Matches :meth:`halo_out`'s single-component slices
        (``payload[:1]`` / ``payload[-1:]``); a problem whose halo
        format differs (the Brusselator drops the leading axis)
        overrides both.
        """
        if edge not in ("first", "last"):
            raise ValueError(f"edge must be 'first' or 'last', got {edge!r}")
        return payload[:1].copy() if edge == "first" else payload[-1:].copy()

    # ------------------------------------------------------------------
    # Solution access
    # ------------------------------------------------------------------
    def solution(self, state: BlockState) -> np.ndarray:
        """Local solution data, concatenable across ranks in global order."""
        return state.traj.copy()

    def check_side(self, side: str) -> str:
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return side


class ChainSweeper:
    """Every rank's block swept once, as one :meth:`Problem.iterate`
    over the whole chain ``[0, N)`` between the domain-edge halos: a
    synchronous round of the lockstep replay
    (:func:`repro.models.lockstep.run_sisc_batched`).  The per-rank
    reductions are :class:`~repro.numerics.ragged.ChainSegments`', bit
    for bit each rank's own."""

    def __init__(self, problem: Problem, blocks: list[tuple[int, int]]) -> None:
        n = problem.n_components
        self.problem = problem
        self.segments = ChainSegments(blocks, n)
        self.state = problem.initial_state(0, n)
        self.edges = (problem.initial_halo(-1), problem.initial_halo(n))

    def sweep(self) -> tuple[np.ndarray, np.ndarray]:
        """Advance every rank one iteration: per-rank (residual, work)."""
        result = self.problem.iterate(self.state, *self.edges)
        return self.segments.max(result.residuals), self.segments.sum(result.work)

    def solution_block(self, rank: int) -> np.ndarray:
        lo, hi = self.segments.blocks[rank]
        return self.state.traj[lo:hi].copy()
