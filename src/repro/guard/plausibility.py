"""Numerical-plausibility screens for the data-integrity layer.

Checksums catch corruption *in flight* and checkpoint CRCs catch it *at
rest*, but a bit flipped in live solver memory
(:class:`~repro.faults.models.StateCorruption` with ``target="state"``)
is invisible to both: the damaged values simply become the next sweep's
input.  The :class:`PlausibilityGuard` closes that gap by screening each
rank right after its sweep for states no healthy run produces:

* **non-finite values** anywhere in the block
  (via :meth:`~repro.problems.base.Problem.state_array`);
* **out-of-domain magnitudes** — ``|value| >`` :data:`VALUE_BOUND`
  (an exponent-bit flip turns an O(1) solution value into 1e300);
* **implausible residual jumps** — a single sweep moving the residual
  more than :data:`RESIDUAL_JUMP_FACTOR` above the previous sweep's (floored at the tolerance, and suppressed across migrations,
  where the residual legitimately re-scales).

The screen is owned by :class:`repro.guard.InvariantMonitor` and runs
*only* while the attached fault injector has its detection layer armed
(``injector.detection_active``) — which in turn requires a corruption
fault in the schedule — so every other configuration, including all
pre-existing fault scenarios, keeps its exact behaviour.  A hit counts
as a detected corruption, rolls the rank back to its last *verified*
checkpoint (:meth:`~repro.core.solver.ChainRun.restore_checkpoint`) and
counts the rollback as a recovery.

The divergence watchdog (:class:`~repro.guard.watchdogs.DivergenceGuard`)
stays the first line of defence: it also fires on blow-ups from honest
numerics and needs no injector.  The plausibility screen is stricter
(no patience, value-level checks) because under an armed corruption
schedule a wild state is presumed poisoned, not merely diverging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np


if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.solver import ChainRun, RankContext

__all__ = ["RESIDUAL_JUMP_FACTOR", "VALUE_BOUND", "PlausibilityGuard"]

#: Any state magnitude above this is treated as corruption.
VALUE_BOUND = 1e12
#: A single sweep moving the residual more than this factor above the
#: previous sweep's is treated as corruption (no patience — contrast
#: :data:`repro.guard.watchdogs.DIVERGENCE_PATIENCE`).
RESIDUAL_JUMP_FACTOR = 1e6

_max_reduce = np.maximum.reduce  # what ``ndarray.max`` calls, unwrapped


@dataclass(slots=True)
class PlausibilityGuard:
    """Post-sweep state screens + rollback, active under armed detection."""

    #: One record per rollback: rank, time, iteration, reason.
    events: list[dict[str, Any]] = field(default_factory=list)
    _block: dict[int, tuple[int, int]] = field(default_factory=dict)

    def _implausible(self, run: "ChainRun", ctx: "RankContext") -> str | None:
        """Why ``ctx``'s post-sweep state is implausible, or None."""
        # One reduction decides both screens: a NaN or an infinity
        # anywhere in the block is what ``max`` of the magnitudes gives.
        peak = float(_max_reduce(np.abs(run.problem.state_array(ctx.state)), None))
        if not math.isfinite(peak):
            return "non-finite state values"
        if peak > VALUE_BOUND:
            return f"state magnitude {peak:.3e} exceeds bound {VALUE_BOUND:g}"
        # Residual-jump screen: one sweep legitimately moves the residual
        # by O(1) factors; a corruption-scale perturbation moves it by
        # many orders of magnitude at once.  Migrations re-scale the
        # block's residual, so the first sweep on a new block is exempt.
        block = (ctx.lo, ctx.hi)
        migrated = self._block.get(ctx.rank) != block
        self._block[ctx.rank] = block
        if migrated or not math.isfinite(ctx.prev_residual):
            return None
        floor = max(ctx.prev_residual, run.config.tolerance)
        if ctx.residual > floor * RESIDUAL_JUMP_FACTOR:
            return (
                f"residual jumped {ctx.prev_residual:.3e} -> "
                f"{ctx.residual:.3e} in one sweep"
            )
        return None

    def after_sweep(self, run: "ChainRun", ctx: "RankContext") -> bool:
        """Screen ``ctx``; True if it was rolled back to a checkpoint."""
        why = self._implausible(run, ctx)
        if why is None:
            return False
        injector = run.injector
        now = run.sim.now
        self.events.append(
            {
                "rank": ctx.rank,
                "time": now,
                "iteration": ctx.iteration,
                "residual": ctx.residual,
                "why": why,
            }
        )
        injector.note_corruption_detected(ctx.rank, f"plausibility screen: {why}")
        run.restore_checkpoint(ctx)
        injector.note_corruption_recovered(
            ctx.rank, f"plausibility rollback ({why})"
        )
        return True
