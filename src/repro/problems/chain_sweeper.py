"""Shared scaffolding for rank-batched whole-chain sweepers.

A *chain sweeper* (see :meth:`repro.problems.base.Problem.
batched_chain_sweeper`) advances every rank's block in one global
vectorised sweep, for the lockstep SISC replay.  The correctness
argument is the same for every problem in the library (Brusselator,
heat, and the synthetic contraction, whose "trajectory" is one error
per component):

* the relaxation is **Jacobi in space** — neighbour trajectories are
  always read from the *previous* sweep's values, and in a synchronous
  round the halo a block receives is exactly its neighbour's
  previous-sweep boundary trajectory;
* every arithmetic operation of the sweep is **elementwise per
  component** (the only sequential axis is time, which is local to each
  component), so partitioning the component axis cannot change any
  result: one global sweep over the concatenated ``(N, ...)`` state
  with the domain-edge halos pinned reproduces each block's
  :meth:`~repro.problems.base.Problem.iterate` bit for bit.

Subclasses implement :meth:`_advance` (one uncommitted global sweep)
and optionally :meth:`_commit`; this base provides block validation,
the per-rank ragged reductions (:class:`repro.numerics.ragged.
ChainSegments` — bit-identical to each rank's own contiguous
reductions), ``solution_block`` and the guard-equivalent
``probe_residual``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.numerics.ragged import ChainSegments

__all__ = ["LinearChainSweeper", "TrajectoryChainSweeper"]


class TrajectoryChainSweeper:
    """Base class for sweepers over a concatenated trajectory array.

    ``self.traj`` holds the global state with the component axis first
    (``(N, n_steps + 1)`` for scalar problems, ``(N, 2, n_steps + 1)``
    for the Brusselator, ``(N,)`` for the synthetic errors); blocks
    slice axis 0.  Empty blocks are tolerated (residual/work ``0.0``),
    matching the guard's convention for ranks that migrated everything
    away — though the lockstep gate itself never builds a sweeper over
    empty blocks.
    """

    def __init__(self, problem: Any, blocks: list[tuple[int, int]]) -> None:
        self.problem = problem
        self.blocks = [(int(lo), int(hi)) for lo, hi in blocks]
        self.segments = ChainSegments(self.blocks, problem.n_components)
        # One global initial state: the problem's initial data is
        # computed elementwise from global indices, so this is
        # bit-identical to concatenating the per-block initial states.
        self.traj = problem.initial_traj(0, problem.n_components)
        # The domain-edge halos every global sweep is pinned between.
        self._edge_left = problem.initial_halo(-1)
        self._edge_right = problem.initial_halo(problem.n_components)

    def component_counts(self) -> np.ndarray:
        return self.segments.counts()

    def solution_block(self, rank: int) -> np.ndarray:
        lo, hi = self.blocks[rank]
        return self.traj[lo:hi].copy()

    # ------------------------------------------------------------------
    def _advance(
        self, old: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Any]:
        """One global sweep from ``old`` (no state mutation).

        Returns ``(new, per-component residuals, per-component work,
        aux)`` where ``aux`` is subclass data threaded to
        :meth:`_commit` (``None`` when unused).
        """
        raise NotImplementedError

    def _commit(self, new: np.ndarray, residuals: np.ndarray, aux: Any) -> None:
        self.traj = new

    # ------------------------------------------------------------------
    def sweep(self) -> tuple[np.ndarray, np.ndarray]:
        """Advance every rank one iteration; returns per-rank
        ``(residual, work)``."""
        new, residuals, work, aux = self._advance(self.traj)
        self._commit(new, residuals, aux)
        return self.segments.max(residuals), self.segments.sum(work)

    def probe_residual(self) -> float:
        """Max residual one additional sweep would report (state untouched).

        Equivalent to the guard's ``true_global_residual``: every block
        iterated once more against the neighbours' *current* boundary
        trajectories — which is exactly one more uncommitted global
        sweep — taking the worst per-block residual (floored at 0.0,
        the empty-block convention).
        """
        _, residuals, _, _ = self._advance(self.traj)
        if residuals.size == 0:
            return 0.0
        return max(0.0, float(residuals.max()))


class LinearChainSweeper(TrajectoryChainSweeper):
    """Sweeper of a linear scalar problem (heat).

    The problem's ``_relax(old, left_halo, right_halo)`` is the update
    its ``iterate`` applies to one block — Jacobi in space, sequential
    only along each component's own time axis — so the same call over
    the whole chain between the domain-edge halos is every block's
    sweep, bit for bit.  Each (component, step) costs one work unit.
    """

    def _advance(self, old: np.ndarray):
        p = self.problem
        new = p._relax(old, self._edge_left, self._edge_right)
        residuals = np.max(np.abs(new - old), axis=1)
        work = np.full(old.shape[0], float(p.n_steps))
        return new, residuals, work, None
