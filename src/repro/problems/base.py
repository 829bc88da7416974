"""The block-decomposable fixed-point problem interface.

A problem defines a global index space of ``n_components`` *components*
(the paper's migratable spatial unknowns).  Each solver rank owns a
contiguous slice ``[lo, hi)`` and holds an opaque *local state* that the
problem creates, iterates, splits and merges:

* :meth:`Problem.iterate` performs one local relaxation sweep given the
  current halo data from both neighbours, returns per-component
  residuals and per-component **work** (in work units; see
  :mod:`repro.numerics`) with their max and sum, and mutates the state
  in place;
* :meth:`Problem.split` / :meth:`Problem.merge` implement component
  migration for dynamic load balancing;
* :meth:`Problem.halo_out` extracts the boundary data a neighbour needs
  (what the paper's Algorithm 1 sends as "the two first/last local
  components").

The solver never looks inside states or halos — everything
problem-specific stays here, which is what lets one AIAC/LB
implementation drive the Brusselator, the heat and advection equations
and the synthetic model alike ("the principle of AIAC algorithms is
generic", Section 5).
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["IterationResult", "Problem", "padded"]


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
    what NumPy's reductions of those arrays return: a sweep on Python
    floats has them from its own loop, an array sweep builds the result
    with :meth:`from_arrays`.
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

    Subclasses must set :attr:`n_components` and implement the abstract
    methods.  States and halos are opaque to callers; halos must be
    cheap, self-contained arrays (they travel in messages).
    """

    #: Global number of migratable components.
    n_components: int
    #: Human-readable problem name (used in reports).
    name: str = "problem"

    # ------------------------------------------------------------------
    # State lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def initial_state(self, lo: int, hi: int) -> Any:
        """Create the local state for global components ``[lo, hi)``."""

    @abstractmethod
    def n_local(self, state: Any) -> int:
        """Number of components currently held by ``state``."""

    @abstractmethod
    def iterate(self, state: Any, left_halo: Any, right_halo: Any) -> IterationResult:
        """One relaxation sweep; mutates ``state``, returns residual/work."""

    def copy_state(self, state: Any) -> Any:
        """Deep snapshot of a local state (checkpoints, verification).

        The default is a generic ``copy.deepcopy``; problems whose state
        is a thin wrapper around arrays override this with direct array
        copies, which is both faster and far leaner in memory (deepcopy
        builds a memo dict per call — measurable at thousands of ranks).
        The copy must be numerically identical and fully independent of
        the original.
        """
        return copy.deepcopy(state)

    def state_array(self, state: Any) -> np.ndarray | None:
        """The mutable array backing ``state``, or None.

        Consumed by the data-integrity layer: in-memory corruption
        injection (:class:`~repro.faults.models.StateCorruption`) and
        the plausibility guard's NaN/Inf screens need a raw view of the
        block's values.  The default recognises a bare array and the
        field names every bundled problem uses (``traj``/``e``/``x``);
        a problem with an exotic state layout overrides this.  ``None``
        means the state cannot be poisoned or screened.
        """
        if isinstance(state, np.ndarray):
            return state
        for name in ("traj", "e", "x"):
            arr = getattr(state, name, None)
            if isinstance(arr, np.ndarray):
                return arr
        return None

    def batched_chain_sweeper(self, blocks: list[tuple[int, int]]) -> Any:
        """A vectorised whole-chain sweeper for static ``blocks``, or None.

        When a problem can express "every block sweeps once against its
        neighbours' previous-iteration boundaries" as one global
        vectorised operation, it returns an object with the interface
        expected by :func:`repro.models.lockstep.run_sisc_batched`
        (``sweep()``, ``solution_block()``, ``probe_residual()``,
        ``component_counts()``).  The per-block numerics of the sweeper
        must be *bit-identical* to per-rank :meth:`iterate` calls.  The
        default (None) routes synchronous large-N runs down the ordinary
        per-rank path.
        """
        return None

    # ------------------------------------------------------------------
    # Halos
    # ------------------------------------------------------------------
    @abstractmethod
    def halo_out(self, state: Any, side: str) -> Any:
        """Boundary data for the ``side`` neighbour ('left' or 'right')."""

    @abstractmethod
    def initial_halo(self, global_index: int) -> Any:
        """Halo for component ``global_index`` before any message arrived.

        Ranks bootstrap from the problem's initial guess, exactly like an
        SPMD code that knows the global initial data.  Indices ``-1`` and
        ``n_components`` denote the domain edges (boundary conditions).
        """

    @abstractmethod
    def halo_nbytes(self) -> float:
        """Wire size of one halo payload (drives network timing)."""

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    @abstractmethod
    def split(self, state: Any, n: int, side: str) -> Any:
        """Remove the ``n`` components nearest ``side``; return the payload."""

    @abstractmethod
    def merge(self, state: Any, payload: Any, side: str) -> None:
        """Attach a migrated payload on ``side`` of ``state`` (in place)."""

    @abstractmethod
    def component_nbytes(self) -> float:
        """Wire size per migrated component."""

    def payload_edge_halo(self, payload: Any, edge: str) -> Any:
        """Halo-formatted view of a migration payload's first/last component.

        After shipping its ``n`` leftmost components, the sender's new
        left halo is the *last* component of the payload (its data
        dependency now lives on the neighbour); symmetrically for the
        right.  The default implementation assumes payloads are arrays
        indexed by component on axis 0 and halos are single-component
        slices (``payload[:1]`` / ``payload[-1:]``); problems whose halo
        format differs (e.g. the Brusselator drops the leading axis)
        override this.
        """
        if edge not in ("first", "last"):
            raise ValueError(f"edge must be 'first' or 'last', got {edge!r}")
        return payload[:1].copy() if edge == "first" else payload[-1:].copy()

    # ------------------------------------------------------------------
    # Solution access
    # ------------------------------------------------------------------
    @abstractmethod
    def solution(self, state: Any) -> np.ndarray:
        """Local solution data, concatenable across ranks in global order."""

    def check_side(self, side: str) -> str:
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return side
