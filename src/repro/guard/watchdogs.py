"""Liveness watchdogs: stall detection and divergence rollback.

Both watchdogs are owned by :class:`repro.guard.InvariantMonitor`; this
module keeps their mechanics (report assembly, blow-up bookkeeping)
separate from the invariant catalogue.

Stall watchdog
--------------
A periodic virtual-time event (period = ``GuardConfig.stall_horizon``)
compares every rank's sweep counter against the previous tick.  If *no*
rank completed a sweep for a full horizon while the run is still live,
global residual progress has stalled; :func:`build_stall_report`
assembles a :class:`StallReport` naming the suspect rank and channel
from solver, transport and load-balancer state.

Divergence watchdog
-------------------
Newton-type inner solvers can blow up (singular Jacobians, overshoot
into NaN territory); asynchronously, one poisoned halo then propagates
NaNs chain-wide and the run spins until ``max_time``.
:class:`DivergenceGuard` watches each rank's post-sweep residual: a
non-finite value rolls the rank back to its checkpoint immediately, a
residual above ``max(best_so_far, tolerance) *`` :data:`DIVERGENCE_FACTOR`
does so after :data:`DIVERGENCE_PATIENCE` consecutive offences.  The
baseline resets whenever load balancing changes the rank's block (a
different subproblem has a different residual scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.solver import ChainRun, RankContext

__all__ = [
    "DIVERGENCE_FACTOR",
    "DIVERGENCE_PATIENCE",
    "ROLLBACK_REFRESH",
    "StallReport",
    "DivergenceGuard",
    "build_stall_report",
]

#: A rank's residual exceeding ``max(best_so_far, tolerance) *
#: DIVERGENCE_FACTOR`` counts as a blow-up step (NaN/inf always does).
DIVERGENCE_FACTOR = 1e4
#: Consecutive blow-up sweeps tolerated before rolling the rank back to
#: its checkpoint; non-finite residuals roll back at once.
DIVERGENCE_PATIENCE = 3
#: On unfaulted runs (no injector, so no periodic checkpoints) the guard
#: refreshes each rank's rollback point every this many improving sweeps.
ROLLBACK_REFRESH = 25


@dataclass(frozen=True, slots=True)
class StallReport:
    """No rank made sweep progress for a full watchdog horizon."""

    time: float
    horizon: float
    #: The most likely culprit: a dead rank, else a rank stuck in the
    #: migration protocol, else the least-advanced rank.
    suspect_rank: int
    #: The channel most plausibly starving the suspect (the halo side
    #: with the largest iteration lag), or ``None`` when the suspect's
    #: own liveness is the problem.
    suspect_channel: str | None
    why: str
    #: Per-rank snapshot: iteration, residual, alive, stop_requested,
    #: busy (migration protocol), halo lags.
    ranks: tuple[dict[str, Any], ...]

    def format(self) -> str:
        lines = [
            f"stall: no sweep progress in [{self.time - self.horizon:.6g}, "
            f"{self.time:.6g}] (horizon {self.horizon:g})",
            f"  suspect: rank {self.suspect_rank}"
            + (f" channel {self.suspect_channel}" if self.suspect_channel else "")
            + f" — {self.why}",
        ]
        for info in self.ranks:
            lines.append(
                "  rank {rank}: iter={iteration} residual={residual:.3e} "
                "alive={alive} busy={busy} lag(left={lag_left}, "
                "right={lag_right})".format(**info)
            )
        return "\n".join(lines)


def _halo_lag(run: "ChainRun", ctx: "RankContext", side: str) -> int | None:
    """How far ``ctx``'s halo on ``side`` trails the owning neighbour."""
    neighbor = run.neighbor(ctx.rank, side)
    if neighbor is None:
        return None
    halo_iter = ctx.halo_iter_left if side == "left" else ctx.halo_iter_right
    return neighbor.iteration - halo_iter


def build_stall_report(
    run: "ChainRun", horizon: float, prev_iterations: list[int]
) -> StallReport:
    """Assemble the structured report for a detected global stall."""
    ranks: list[dict[str, Any]] = []
    for ctx in run.ranks:
        ranks.append(
            {
                "rank": ctx.rank,
                "iteration": ctx.iteration,
                "residual": ctx.residual,
                "alive": ctx.node.alive,
                "stop_requested": ctx.node.stop_requested,
                "busy": bool(run.rank_busy(ctx.rank)),
                "lag_left": _halo_lag(run, ctx, "left"),
                "lag_right": _halo_lag(run, ctx, "right"),
            }
        )
    # Suspect selection, most-specific evidence first: a dead host
    # explains any stall; next an unfinished migration protocol (its
    # hold_while gate blocks detection and its channel blocks sweeps in
    # the sync models); finally the least-advanced rank.
    dead = [info for info in ranks if not info["alive"]]
    busy = [info for info in ranks if info["busy"]]
    if dead:
        suspect = dead[0]
        why = "host is down (crashed, not yet restarted)"
    elif busy:
        suspect = busy[0]
        why = "migration protocol unfinished (offer/data outstanding)"
    else:
        suspect = min(ranks, key=lambda info: (info["iteration"], info["rank"]))
        why = "least-advanced rank (fewest completed sweeps)"
    # The suspect's starving channel: the halo side with the largest
    # iteration lag, if any side lags at all.
    sides = [
        (side, lag)
        for side, lag in (
            ("left", suspect["lag_left"]),
            ("right", suspect["lag_right"]),
        )
        if lag is not None and lag > 0
    ]
    channel = None
    if sides:
        side = max(sides, key=lambda pair: pair[1])[0]
        channel = f"halo_from_{'left' if side == 'left' else 'right'}"
    return StallReport(
        time=run.sim.now,
        horizon=horizon,
        suspect_rank=suspect["rank"],
        suspect_channel=channel,
        why=why,
        ranks=tuple(ranks),
    )


@dataclass(slots=True)
class DivergenceGuard:
    """Per-rank residual blow-up tracking + checkpoint rollback."""

    events: list[dict[str, Any]] = field(default_factory=list)
    _best: dict[int, float] = field(default_factory=dict)
    _streak: dict[int, int] = field(default_factory=dict)
    _improvements: dict[int, int] = field(default_factory=dict)
    _block: dict[int, tuple[int, int]] = field(default_factory=dict)

    def after_sweep(self, run: "ChainRun", ctx: "RankContext") -> bool:
        """Inspect ``ctx``'s fresh residual; True if rolled back."""
        residual = ctx.residual
        rank = ctx.rank
        # A migration changes the rank's block: its residual series now
        # measures a different subproblem, so the old best is not a
        # valid divergence baseline (a near-empty block's residual can
        # sit at machine epsilon — 12 orders below the block's residual
        # after regrowth, which is progress, not a blow-up).
        block = (ctx.lo, ctx.hi)
        if self._block.get(rank) != block:
            self._block[rank] = block
            self._best.pop(rank, None)
            self._streak.pop(rank, None)
        best = self._best.get(rank)
        if math.isfinite(residual) and (best is None or residual < best):
            self._best[rank] = residual
            self._streak[rank] = 0
            # On unfaulted runs nothing else refreshes checkpoints;
            # keep the rollback point near the best known state so a
            # later rollback does not rewind to t=0.
            if run.checkpoint_every == 0:
                count = self._improvements.get(rank, 0) + 1
                self._improvements[rank] = count
                if count % ROLLBACK_REFRESH == 0:
                    run.checkpoint(ctx)
            return False
        # The blow-up reference is floored at the solver tolerance:
        # once a rank's best is *below* tolerance it has locally
        # converged, and a later excursion back above tolerance (fresh
        # boundary data re-activating the block — routine under
        # asynchronism) is re-activation, not divergence.
        blowup = (
            not math.isfinite(residual)
            or (
                best is not None
                and residual
                > max(best, run.config.tolerance) * DIVERGENCE_FACTOR
            )
        )
        if not blowup:
            return False
        streak = self._streak.get(rank, 0) + 1
        self._streak[rank] = streak
        if math.isfinite(residual) and streak < DIVERGENCE_PATIENCE:
            return False
        self.events.append(
            {
                "rank": rank,
                "time": run.sim.now,
                "iteration": ctx.iteration,
                "residual": residual,
                "best": best,
                "streak": streak,
            }
        )
        run.tracer.fault(
            kind="divergence-rollback",
            time=run.sim.now,
            t_end=run.sim.now,
            rank=rank,
            detail=f"residual {residual:.3e} (best {best})",
        )
        run.restore_checkpoint(ctx)
        self._streak[rank] = 0
        return True
