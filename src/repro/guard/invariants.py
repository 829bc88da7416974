"""The invariant monitor: continuous safety checks on a live run.

Attach pattern
--------------
:meth:`InvariantMonitor.attach` registers the monitor on a
:class:`~repro.core.solver.ChainRun` *before* the rank processes are
spawned.  Two hooks connect it to the run:

* the DES dispatch loop, via :meth:`Simulator.attach_monitor` — the
  monitor occupies the profiler slot (chaining to any profiler already
  there), sees every dispatched event, and sweeps the invariant
  catalogue every ``check_every`` events;
* the solver sweep, via ``run.guard`` — a single pointer test per
  sweep lets the divergence watchdog inspect each fresh residual and
  roll a blowing-up rank back to its checkpoint.

With no monitor attached the dispatch loop and the sweep each pay one
``is not None`` test, so the unguarded path is bit-identical
(fingerprint-pinned in the test suite).

Invariant catalogue (see ``docs/robustness.md``)
------------------------------------------------
1. **Component conservation** — every component index is owned by
   exactly one live rank, or exactly one in-flight migration record,
   or (for a crashed rank) its checkpointed record; the live block
   bounds, the :class:`~repro.core.partition.PartitionRegistry` and the
   actual state-vector lengths must all tell the same story.
2. **Sequence monotonicity** — per-channel send/receive sequence
   numbers never decrease, and no rank has received a sequence number
   its peer has not yet issued.
3. **Checkpoint–ownership consistency** — a rank's checkpoint always
   snapshots exactly its live block (the crash-recovery invariant:
   restores never roll back partition bookkeeping).
4. **No premature termination** — at halt time,
   :meth:`InvariantMonitor.verify_halt` assembles the global state,
   recomputes every rank's residual against its neighbours' *true*
   boundary values, and fails loudly if convergence was declared while
   the true global residual exceeds ``tolerance * HALT_SLACK``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.partition import PartitionRegistry, tiling_error
from repro.guard.plausibility import PlausibilityGuard
from repro.guard.watchdogs import (
    DivergenceGuard,
    StallReport,
    build_stall_report,
)
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.solver import ChainRun, RankContext

__all__ = ["HALT_SLACK", "GuardConfig", "InvariantMonitor", "InvariantViolation"]

#: The halt oracle tolerates a true global residual up to ``tolerance *
#: HALT_SLACK``: one extra sweep against true halos legitimately moves
#: the residual of a genuinely converged state by a small factor, and the
#: oracle must flag *wrong answers*, not detection latency.  Under fault
#: injection the bound widens by ``1 + max_halo_staleness`` (see
#: :meth:`InvariantMonitor.verify_halt`) to cover the drift the detection
#: freshness gate deliberately admits.
HALT_SLACK = 10.0


class InvariantViolation(RuntimeError):
    """A runtime safety invariant was broken (see ``docs/robustness.md``)."""


@dataclass(frozen=True, slots=True)
class GuardConfig:
    """Tuning knobs for :class:`InvariantMonitor`.

    The fixed thresholds are module constants: :data:`HALT_SLACK` here,
    the divergence watchdog's in :mod:`repro.guard.watchdogs`.

    Parameters
    ----------
    check_every:
        Sweep the invariant catalogue every N dispatched DES events.
        Checks are read-only and O(ranks); the default keeps guard
        overhead in the noise for the test-scale problems.
    stall_horizon:
        Virtual-time window of the stall watchdog; ``None`` disables
        it.  If no rank completes a sweep for a full horizon while the
        run is live, a :class:`StallReport` is recorded (the watchdog's
        periodic event can overshoot the halt by at most one horizon —
        reported convergence times are unaffected).
    on_stall:
        ``"record"`` appends the report to ``stall_reports`` and the
        tracer's fault channel; ``"raise"`` escalates to
        :class:`InvariantViolation`.
    """

    check_every: int = 64
    stall_horizon: float | None = None
    on_stall: str = "record"

    def __post_init__(self) -> None:
        check_positive("check_every", self.check_every)
        if self.stall_horizon is not None:
            check_positive("stall_horizon", self.stall_horizon)
        if self.on_stall not in ("record", "raise"):
            raise ValueError(
                f"on_stall must be 'record' or 'raise', got {self.on_stall!r}"
            )


def conservation_error(
    live: Sequence[tuple[int, int]],
    n_state: Sequence[int],
    registry: PartitionRegistry,
    n_components: int,
) -> str | None:
    """Invariant 1: why components are lost or duplicated, else ``None``.

    Per rank, the live block ``live[rank]``, the registry's block and
    the state-vector length ``n_state[rank]`` must tell the same story;
    live blocks plus the registry's in-flight migration runs must then
    tile ``[0, n_components)``.
    """
    intervals: list[tuple[int, int, str]] = []
    for rank, (lo, hi) in enumerate(live):
        reg_lo, reg_hi = registry.block(rank)
        if (lo, hi) != (reg_lo, reg_hi):
            return (
                f"rank {rank} live block [{lo}, {hi}) disagrees with "
                f"registry [{reg_lo}, {reg_hi})"
            )
        if n_state[rank] != hi - lo:
            return (
                f"rank {rank} holds {n_state[rank]} components in state "
                f"but owns [{lo}, {hi})"
            )
        if lo < hi:
            intervals.append((lo, hi, f"rank {rank}"))
    for lo, hi, src, dst in registry.in_flight_runs():
        intervals.append((lo, hi, f"in-flight {src}->{dst}"))
    return tiling_error(intervals, n_components)


def judge_halt(
    declared: bool, residual: float, tolerance: float, slack: float
) -> tuple[dict[str, Any], str | None]:
    """Invariant 4: the halt verdict, and why it is premature (or ``None``).

    A declared convergence is wrong when the true global residual is
    not within ``tolerance * slack`` (a NaN residual is never within).
    """
    verdict = {
        "declared_converged": bool(declared),
        "true_residual": residual,
        "tolerance": tolerance,
        "halt_slack": slack,
    }
    if declared and not residual <= tolerance * slack:
        return verdict, (
            f"premature termination: convergence was declared but the "
            f"true global residual is {residual:.6e} "
            f"(tolerance {tolerance:.1e}, slack x{slack:g})"
        )
    return verdict, None


class InvariantMonitor:
    """Continuously checks the safety invariants of one chain run."""

    def __init__(self, config: GuardConfig | None = None) -> None:
        self.config = config if config is not None else GuardConfig()
        self._check_every = self.config.check_every
        self.run: "ChainRun | None" = None
        #: Next observer in the profiler slot (set by ``attach_monitor``).
        self.chain: Any = None
        self.events_seen = 0
        self.checks_run = 0
        self.stall_reports: list[StallReport] = []
        self.halt_verdict: dict[str, Any] | None = None
        self._divergence = DivergenceGuard()
        self._plausibility = PlausibilityGuard()
        self._prev_transport: dict[int, dict[str, dict]] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, run: "ChainRun") -> "InvariantMonitor":
        """Hook into ``run``'s dispatch loop and sweep path."""
        if self.run is not None:
            raise RuntimeError("InvariantMonitor is already attached to a run")
        self.run = run
        run.guard = self
        run.sim.attach_monitor(self)
        # Seed rollback points so the divergence watchdog can restore
        # even on the lossless fast path (an injector, attached before
        # or after, re-seeds its own — both snapshot the same bounds).
        for ctx in run.ranks:
            if ctx.checkpoint is None:
                run.checkpoint(ctx)
        if self.config.stall_horizon is not None:
            self._stall_iterations = [ctx.iteration for ctx in run.ranks]
            run.sim.at(
                run.sim.now + self.config.stall_horizon, self._stall_check
            )
        return self

    # ------------------------------------------------------------------
    # Dispatch-loop hook (the profiler-slot contract)
    # ------------------------------------------------------------------
    def record(self, event: Any) -> None:
        chain = self.chain
        if chain is not None:
            chain.record(event)
        self.events_seen = seen = self.events_seen + 1
        if seen % self._check_every == 0:
            self.check_invariants()

    # ------------------------------------------------------------------
    # Sweep hook (divergence watchdog; called from the rank loop's _end)
    # ------------------------------------------------------------------
    def after_sweep(self, run: "ChainRun", ctx: "RankContext") -> bool:
        """Inspect a fresh residual; True if the rank was rolled back.

        The divergence watchdog always runs.  The stricter plausibility
        screen engages only when the run's fault injector has its
        detection layer armed (a corruption fault is scheduled and
        ``integrity_checks`` is on) — every other run, including all
        pre-existing fault scenarios, keeps its exact behaviour.
        """
        if self._divergence.after_sweep(run, ctx):
            return True
        injector = run.injector
        if injector is not None and injector.detection_active:
            return self._plausibility.after_sweep(run, ctx)
        return False

    @property
    def divergence_events(self) -> list[dict[str, Any]]:
        """Rollbacks performed by the divergence watchdog."""
        return self._divergence.events

    @property
    def plausibility_events(self) -> list[dict[str, Any]]:
        """Rollbacks performed by the plausibility screen."""
        return self._plausibility.events

    # ------------------------------------------------------------------
    # The invariant catalogue
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Sweep invariants 1–3; raises :class:`InvariantViolation`."""
        run = self.run
        assert run is not None
        self.checks_run += 1
        self._check_conservation(run)
        self._check_checkpoint_ownership(run)
        self._check_sequence_monotonicity(run)

    def _fail(self, message: str) -> None:
        run = self.run
        at = f" at t={run.sim.now:.6g}" if run is not None else ""
        raise InvariantViolation(f"invariant violated{at}: {message}")

    def _check_conservation(self, run: "ChainRun") -> None:
        """Invariant 1: components tile [0, n) with no loss or overlap."""
        problem = run.problem
        error = conservation_error(
            [(ctx.lo, ctx.hi) for ctx in run.ranks],
            [problem.n_local(ctx.state) for ctx in run.ranks],
            run.partition,
            problem.n_components,
        )
        if error is not None:
            self._fail(error)

    def _check_checkpoint_ownership(self, run: "ChainRun") -> None:
        """Invariant 3 (+ the crashed-rank half of invariant 1)."""
        for ctx in run.ranks:
            snap = ctx.checkpoint
            if snap is not None and (snap["lo"], snap["hi"]) != (ctx.lo, ctx.hi):
                self._fail(
                    f"rank {ctx.rank} checkpoint snapshots "
                    f"[{snap['lo']}, {snap['hi']}) but the live block is "
                    f"[{ctx.lo}, {ctx.hi})"
                )
            if not ctx.node.alive and snap is None:
                self._fail(
                    f"rank {ctx.rank} is crashed with no checkpointed "
                    "record backing its components"
                )

    def _check_sequence_monotonicity(self, run: "ChainRun") -> None:
        """Invariant 2: per-channel sequence numbers only move forward."""
        current = {
            ctx.rank: ctx.node.transport_snapshot() for ctx in run.ranks
        }
        for rank, snapshot in current.items():
            previous = self._prev_transport.get(rank)
            if previous is not None:
                for table in ("send_seq", "recv_latest"):
                    for channel, seq in previous[table].items():
                        now_seq = snapshot[table].get(channel)
                        if now_seq is None or now_seq < seq:
                            self._fail(
                                f"rank {rank} {table} for channel "
                                f"{channel} went backwards: {seq} -> "
                                f"{now_seq}"
                            )
            # Nothing can be received before its peer issued it.
            for table in ("recv_latest", "recv_seen_max"):
                for (kind, src), seq in snapshot[table].items():
                    issued = current.get(src, {}).get("send_seq", {}).get(
                        (kind, rank), 0
                    )
                    if seq >= issued:
                        self._fail(
                            f"rank {rank} saw seq {seq} on channel "
                            f"({kind!r}, from {src}) but rank {src} has "
                            f"only issued {issued} sends"
                        )
        self._prev_transport = current

    # ------------------------------------------------------------------
    # Invariant 4: the no-premature-termination oracle
    # ------------------------------------------------------------------
    def true_global_residual(self) -> float:
        """Recompute the global residual from assembled state.

        Deep-copies every rank's block, rebuilds each block's halos
        from its neighbours' *actual current* boundary values (domain
        edges use the problem's boundary conditions, exactly as the
        solver does), runs one extra iteration per block, and returns
        the maximum local residual: 0.0 at least, NaN if any block's is
        (``max`` would drop it).  Pure: live state is not touched.
        """
        run = self.run
        assert run is not None
        problem = run.problem
        blocks = sorted(run.ranks, key=lambda c: c.lo)

        def halo_for(index: int, side: str) -> Any:
            step = -1 if side == "left" else 1
            j = index + step
            while 0 <= j < len(blocks):
                if blocks[j].hi > blocks[j].lo:
                    # The nearest non-empty block on that side owns the
                    # adjacent component; take its true boundary value.
                    return problem.halo_out(
                        blocks[j].state, "right" if side == "left" else "left"
                    )
                j += step
            ctx = blocks[index]
            edge = ctx.lo - 1 if side == "left" else ctx.hi
            return problem.initial_halo(edge)

        worst = 0.0
        for i, ctx in enumerate(blocks):
            if ctx.lo == ctx.hi:
                continue
            state = copy.deepcopy(ctx.state)
            result = problem.iterate(
                state, halo_for(i, "left"), halo_for(i, "right")
            )
            local = result.local_residual
            if local > worst or local != local:  # NaN wins, as in np.maximum
                worst = local
        return worst

    def verify_halt(self) -> dict[str, Any]:
        """The no-premature-termination oracle; call after ``run()``.

        Re-checks invariants 1–3 on the final state, then recomputes
        the true global residual.  If *any* detector (the supervisor
        oracle or the token ring) declared convergence while the true
        residual exceeds the accepted bound, the declared halt was
        wrong — raise :class:`InvariantViolation`.

        The accepted bound is ``tolerance * HALT_SLACK`` on fault-free
        runs.  Under fault injection it widens by the staleness window:
        the detection freshness gate deliberately counts sweeps whose
        halos are up to ``max_halo_staleness`` iterations old, so at
        halt every interface may legally carry that many sweeps of
        drift and the assembled residual can sit an ``O(staleness)``
        factor above the per-rank threshold without any vote having
        been wrong.  Genuinely premature halts (a rank that never
        converged, a detector protocol bug) overshoot the widened bound
        by orders of magnitude, so the oracle still fails loudly.
        """
        run = self.run
        assert run is not None
        self.check_invariants()
        declared = run.monitor.converged or (
            run.detector is not None and run.detector.converged
        )
        residual = self.true_global_residual()
        tolerance = run.config.tolerance
        slack = HALT_SLACK
        if run.injector is not None:
            slack *= 1 + run.injector.resilience.max_halo_staleness
        self.halt_verdict, error = judge_halt(
            declared, residual, tolerance, slack
        )
        if error is not None:
            self._fail(error)
        return self.halt_verdict

    # ------------------------------------------------------------------
    # Stall watchdog (periodic virtual-time event)
    # ------------------------------------------------------------------
    def _run_stopped(self) -> bool:
        run = self.run
        assert run is not None
        if run.aborted_reason is not None:
            return True
        if run.monitor.converged:
            return True
        if run.detector is not None and run.detector.converged:
            return True
        return all(ctx.node.stop_requested for ctx in run.ranks)

    def _stall_check(self) -> None:
        run = self.run
        assert run is not None
        if self._run_stopped():
            return  # do not re-arm: let the queue drain
        horizon = self.config.stall_horizon
        assert horizon is not None
        current = [ctx.iteration for ctx in run.ranks]
        if all(
            cur <= prev
            for prev, cur in zip(self._stall_iterations, current)
        ):
            report = build_stall_report(run, horizon, self._stall_iterations)
            self.stall_reports.append(report)
            # Surface the stall on the tracer's fault channel (Gantt ✖).
            run.tracer.fault(
                kind="stall",
                time=report.time,
                t_end=report.time,
                rank=report.suspect_rank,
                detail=report.why,
            )
            if self.config.on_stall == "raise":
                raise InvariantViolation(report.format())
        self._stall_iterations = current
        run.sim.at(run.sim.now + horizon, self._stall_check)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Deterministic summary for soak reports and tests."""
        return {
            "events_seen": self.events_seen,
            "checks_run": self.checks_run,
            "stalls": len(self.stall_reports),
            "divergence_rollbacks": len(self.divergence_events),
            "plausibility_rollbacks": len(self.plausibility_events),
            "halt_verdict": self.halt_verdict,
        }
