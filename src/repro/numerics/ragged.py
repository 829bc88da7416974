"""Ragged per-rank reductions over a concatenated chain state.

The lockstep replay (:mod:`repro.models.lockstep`) advances *every*
rank's block in one global vectorised sweep over the concatenated
component axis, then needs per-rank scalars back: the block-max residual
and the block-sum work.  Both reductions must be **bit-identical** to
what each rank computes on its own contiguous slice:

* ``max`` is exact under any association: ``np.maximum.reduceat``
  gives each slice's ``.max()`` bit for bit, signed zeros and NaNs
  included;
* ``sum`` is *not* — numpy's pairwise summation depends on the operand
  layout.  A rank computes ``work.sum()`` on its contiguous 1-D slice,
  which matches a per-slice ``values[lo:hi].sum()`` and, for equal-width
  blocks, the row-wise ``reshape(R, w).sum(axis=1)`` (each row is the
  same contiguous buffer).  ``np.add.reduceat`` is **not** used for
  sums: it accumulates left-to-right, which differs from pairwise
  summation on blocks longer than numpy's pairwise threshold.

:class:`ChainSegments` packages the block layout validation and both
reductions, choosing the fastest bit-preserving path per layout
(``reduceat`` max, equal-width reshape > per-slice sum), and tolerates
empty (``lo == hi``) blocks — a rank that migrated everything away
reports residual ``0.0`` (matching
:attr:`repro.problems.base.IterationResult.local_residual` on a size-0
block) and work ``0.0``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ChainSegments", "validate_chain_blocks"]


def validate_chain_blocks(
    blocks: list[tuple[int, int]], n_components: int
) -> None:
    """Check that ``blocks`` tile ``[0, n_components)`` contiguously.

    Empty blocks (``lo == hi``) are allowed — they occur after a rank
    migrates its whole slice away — but gaps, overlaps and inversions
    are not.
    """
    if not blocks:
        raise ValueError("blocks must be non-empty")
    cursor = 0
    for i, (lo, hi) in enumerate(blocks):
        if lo != cursor:
            raise ValueError(
                f"blocks do not tile the component space: block {i} starts "
                f"at {lo}, expected {cursor}"
            )
        if hi < lo:
            raise ValueError(f"block {i} is inverted: [{lo}, {hi})")
        cursor = hi
    if cursor != n_components:
        raise ValueError(
            f"blocks cover [0, {cursor}) but the problem has "
            f"{n_components} components"
        )


class ChainSegments:
    """Per-rank reductions over values indexed by global component.

    Construction validates the tiling once; :meth:`max` and :meth:`sum`
    then reduce a ``(n_components,)`` array to ``(n_ranks,)`` with the
    bit-identity guarantees documented in the module docstring.
    """

    def __init__(
        self, blocks: list[tuple[int, int]], n_components: int
    ) -> None:
        validate_chain_blocks(blocks, n_components)
        self.blocks = [(int(lo), int(hi)) for lo, hi in blocks]
        self.n_components = int(n_components)
        self.n_ranks = len(self.blocks)
        self._has_empty = any(hi == lo for lo, hi in self.blocks)
        widths = {hi - lo for lo, hi in self.blocks}
        self._equal_width = len(widths) == 1 and not self._has_empty
        self._width = widths.pop() if self._equal_width else 0
        self._starts = np.array([lo for lo, _ in self.blocks], dtype=np.intp)

    def max(self, values: np.ndarray) -> np.ndarray:
        """Per-rank max; ``0.0`` for empty blocks (size-0 residual)."""
        if not self._has_empty:
            return np.maximum.reduceat(values, self._starts)
        return np.array(
            [
                float(values[lo:hi].max()) if hi > lo else 0.0
                for lo, hi in self.blocks
            ]
        )

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-rank sum, pairwise-ordered exactly like each rank's own
        contiguous ``values[lo:hi].sum()``."""
        if self._equal_width:
            return values.reshape(self.n_ranks, self._width).sum(axis=1)
        return np.array(
            [values[lo:hi].sum() if hi > lo else 0.0 for lo, hi in self.blocks]
        )
