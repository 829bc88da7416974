"""Rank-batched lockstep replay of the SISC execution model.

:func:`run_sisc_batched` produces results *bit-identical* to
:func:`repro.models.sisc.run_sisc` on the fault-free oracle-detection
path, but replaces the per-rank DES processes with one vectorised
"round" per global iteration: SISC is globally synchronous, so every
rank starts iteration ``k`` at the same barrier-open time ``T_k`` and
the whole round — sweep timings, halo arrivals, barrier release, idle
spans, convergence votes — is a closed-form function of the per-rank
sweep durations.  One ``numpy`` pass per round replaces thousands of
event dispatches, which is what lets the simulator reach 10k ranks
(see ``benchmarks/bench_scale.py``).

Equivalence is enforced, not assumed:

* the problem must opt in through :meth:`~repro.problems.base.Problem.
  batched_chain_sweeper`, whose :class:`~repro.problems.base.
  ChainSweeper` runs the problem's own ``iterate`` over the whole chain
  ``[0, N)``: bit-identical to the per-rank calls when ``iterate`` is
  Jacobi in space (differential tests pin fingerprints);
* event ordering — including ``(time, seq)`` ties — is replayed through
  collapsed dispatch keys that are order-isomorphic to the reference
  scheduler's sequence numbers, so record lists, trigger ranks and the
  dispatched-event count match the reference exactly;
* anything the replay cannot express (token-ring detection, the guard's
  stall watchdog or a divergence rollback, problems without a batched
  sweeper) falls back to the reference implementation — *observably*:
  the reason is logged and exported as the ``lockstep.fallback_reason``
  metric (see :func:`run_sisc_batched`).

All three bundled problems batch: the synthetic contraction, the
Brusselator (its adaptive skip included) and the linear heat relaxation
each return a :class:`~repro.problems.base.ChainSweeper`, whose per-rank
reductions are :class:`repro.numerics.ragged.ChainSegments`'.

The engine is memory-lean by construction: no per-rank GridNode /
Process / generator objects — per-rank state is a handful of numpy
arrays plus the sweeper's one whole-chain state.
"""

from __future__ import annotations

import copy
import logging
import math
from typing import Any, NamedTuple

import numpy as np

from repro.core.config import HEADER_BYTES, OVERLAP_SPLIT, SolverConfig
from repro.core.partition import PartitionRegistry
from repro.core.records import RunResult
from repro.grid.platform import Platform
from repro.grid.traces import ConstantTrace
from repro.problems.base import Problem
from repro.runtime.tracer import (
    TRANSPORT_COUNTERS,
    IdleSpan,
    IterationSpan,
    MessageRecord,
    ResidualRecord,
    Tracer,
)

__all__ = ["run_sisc_batched"]

logger = logging.getLogger(__name__)

#: FIFO spacing used by :meth:`repro.grid.network.Network.arrival_time`.
_FIFO_EPSILON = 1e-9

#: Root ancestor for collapsed dispatch keys: compares below every real
#: event key (virtual times are >= 0), standing in for "pushed before
#: anything else this round".
_D_ROOT = (-1.0, ())

#: ``_D_ROOT``'s counterpart: a push-tree position above every real one,
#: so ``(h, _D_TOP)`` is the key everything dispatched at ``t <= h``
#: sorts below.
_D_TOP = ((math.inf,),)


def _repeat_add(acc: float, x: float, count: int) -> float:
    """``count`` sequential ``acc += x`` steps, matching IEEE order.

    When ``x`` and ``acc`` are integer-valued and the result stays below
    2**53 every intermediate sum is exact, so multiplication gives the
    same float; otherwise fall back to the literal loop (repeated
    addition and multiplication differ in general).
    """
    if count <= 0:
        return acc
    total = acc + x * count
    if float(x).is_integer() and float(acc).is_integer() and abs(total) <= 2**53:
        return total
    for _ in range(count):
        acc += x
    return acc


def _constant_rate(host: Any) -> float | None:
    """Effective work rate if the host's availability is constant."""
    if isinstance(host.trace, ConstantTrace):
        return host.speed * host.trace.value(0.0)
    return None


def _constant_transfer(link: Any, nbytes: float) -> float | None:
    """Per-message transfer time if the link's traces are constant."""
    if isinstance(link.latency_trace, ConstantTrace) and isinstance(
        link.bandwidth_trace, ConstantTrace
    ):
        return link.transfer_time(nbytes, 0.0)
    return None


def _fall_back(
    reason: str,
    metrics: Any,
    problem: Problem,
    platform: Platform,
    config: SolverConfig,
    host_order: list[int],
    guard: Any,
) -> RunResult:
    """Run the reference engine, making the degradation observable.

    The fallback is 10-50x slower than the replay at scale, so it must
    never be silent: the reason is logged and, when the caller passes a
    :class:`repro.obs.MetricsRegistry`, counted under
    ``lockstep.fallback_reason``.  Only side channels are touched — the
    returned :class:`~repro.core.records.RunResult` (meta included) is
    exactly what ``run_sisc`` produces, so fingerprints are unaffected.
    """
    logger.info(
        "lockstep replay unavailable for problem %r (%s); "
        "falling back to the event-driven engine",
        problem.name,
        reason,
    )
    if metrics is not None:
        metrics.counter(
            "lockstep.fallback_reason", reason=reason, problem=problem.name
        ).inc()
    from repro.models.sisc import run_sisc

    return run_sisc(
        problem, platform, config, host_order=host_order, guard=guard
    )


def run_sisc_batched(
    problem: Problem,
    platform: Platform,
    config: SolverConfig | None = None,
    *,
    host_order: list[int] | None = None,
    guard: Any = None,
    metrics: Any = None,
) -> RunResult:
    """SISC via lockstep round replay; bit-identical to ``run_sisc``.

    Falls back to the reference event-driven implementation whenever
    the replay's preconditions do not hold (non-oracle detection, the
    guard's stall watchdog, no batched sweeper) or the guard's
    divergence watchdog would have rolled a rank back (the replay has
    no rollback).  Every fallback is observable: the reason is logged
    on the ``repro.models.lockstep`` logger and counted on ``metrics``
    (a :class:`repro.obs.MetricsRegistry`, optional) as
    ``lockstep.fallback_reason{reason=..., problem=...}``.
    ``guard`` accepts a :class:`repro.guard.InvariantMonitor`; its
    conservation checks and halt verification run natively against the
    batched state at the reference cadence.
    """
    config = config if config is not None else SolverConfig()
    n_ranks = len(platform.hosts)
    if host_order is None:
        host_order = list(range(n_ranks))
    if sorted(host_order) != list(range(n_ranks)):
        raise ValueError(
            f"host_order must be a permutation of 0..{n_ranks - 1}, "
            f"got {host_order!r}"
        )
    partition = PartitionRegistry(problem.n_components, n_ranks)
    blocks = [partition.block(rank) for rank in range(n_ranks)]
    reason = None
    if config.detection != "oracle":
        reason = f"detection:{config.detection}"
    elif guard is not None and guard.config.stall_horizon is not None:
        # The stall watchdog schedules its own periodic DES events;
        # the replay cannot express them.
        reason = "guard:stall_horizon"
    elif (sweeper := problem.batched_chain_sweeper(blocks)) is None:
        reason = "no_batched_sweeper"
    if reason is None:
        result = _LockstepEngine(
            problem, platform, config, host_order, partition, blocks, sweeper, guard
        ).run()
        if result is not None:
            return result
        # Divergence rollback would have fired: replay cannot express it.
        reason = "divergence_watchdog"
    return _fall_back(
        reason, metrics, problem, platform, config, host_order, guard
    )


class _Round(NamedTuple):
    """One round's per-rank arrays, and the dispatch keys they imply.

    The reference scheduler orders events by ``(time, push_seq)``.
    Within one round the push tree is known: mids are pushed at round
    start in ``pos0`` order, each end by its mid, each delivery by its
    sender's end (left send first, then right), each wait-resume by
    the delivery that triggered it.  Nested tuples of the form
    ``(time, (parent_key, push_index))`` compare exactly like the
    reference ``(time, seq)`` pairs for any two same-round events, so
    they resolve exact float ties without simulating.
    """

    k: int  # rounds completed before this one
    T: float  # barrier-open time
    residual: np.ndarray
    work: np.ndarray
    t_mid: np.ndarray
    t_se: np.ndarray
    pos0: np.ndarray  # round-start scheduling order
    arr_l: np.ndarray  # FIFO-clamped arrival of r's send to r-1
    arr_r: np.ndarray  # ... and of its send to r+1

    def key_mid(self, r: int) -> tuple:
        return (float(self.t_mid[r]), (_D_ROOT, int(self.pos0[r])))

    def key_end(self, r: int) -> tuple:
        return (float(self.t_se[r]), (self.key_mid(r), 0))

    def key_send(self, r: int, side: str) -> tuple:
        # Push index inside r's end event: the left send is scheduled
        # first, then the right send (rank 0 only sends right).
        arr = self.arr_l[r] if side == "left" else self.arr_r[r]
        idx = 0 if side == "left" or r == 0 else 1
        return (float(arr), (self.key_end(r), idx))


class _LockstepEngine:
    """One SISC run as a sequence of vectorised rounds."""

    def __init__(
        self,
        problem: Problem,
        platform: Platform,
        config: SolverConfig,
        host_order: list[int],
        partition: PartitionRegistry,
        blocks: list[tuple[int, int]],
        sweeper: Any,
        guard: Any,
    ) -> None:
        self.problem = problem
        # Same isolation contract as ChainRun: private platform copy,
        # clean network state.
        self.platform = copy.deepcopy(platform)
        self.platform.network.reset()
        self.config = config
        self.host_order = host_order
        self.partition = partition
        self.blocks = blocks
        self.sweeper = sweeper
        self.guard = guard
        self.n = len(blocks)
        self.hosts = [self.platform.hosts[host_order[r]] for r in range(self.n)]
        self.tracer = Tracer(enabled=config.trace)
        self.nbytes = problem.halo_nbytes() + HEADER_BYTES
        network = self.platform.network
        # Per-directed-channel links and (when constant) transfer times.
        self._links_left = [None] + [
            network.link_for(self.hosts[r], self.hosts[r - 1])
            for r in range(1, self.n)
        ]
        self._links_right = [
            network.link_for(self.hosts[r], self.hosts[r + 1])
            for r in range(self.n - 1)
        ] + [None]
        tl = [
            _constant_transfer(link, self.nbytes) if link else 0.0
            for link in self._links_left
        ]
        tr = [
            _constant_transfer(link, self.nbytes) if link else 0.0
            for link in self._links_right
        ]
        self._const_links = all(t is not None for t in tl + tr)
        self._tl = np.array([t if t is not None else 0.0 for t in tl])
        self._tr = np.array([t if t is not None else 0.0 for t in tr])
        rates = [_constant_rate(h) for h in self.hosts]
        self._const_hosts = all(r is not None for r in rates)
        self._rates = np.array([r if r is not None else 1.0 for r in rates])
        # Mutable run state ------------------------------------------------
        self.T = 0.0
        self.pos0 = np.arange(self.n)  # round-start scheduling order
        self.streak = np.zeros(self.n, dtype=np.int64)
        self.busy = np.zeros(self.n)
        self.idle_acc = np.zeros(self.n)
        self.iter_counts = np.zeros(self.n, dtype=np.int64)
        self.residual_at = np.full(self.n, float("inf"))
        self.last_left = np.full(self.n, -float("inf"))  # FIFO r -> r-1
        self.last_right = np.full(self.n, -float("inf"))  # FIFO r -> r+1
        self.n_dispatched = self.n  # the n spawn steps at t = 0
        self.now = 0.0
        self.converged = False
        self.convergence_time: float | None = None
        self.aborted_reason: str | None = None
        self._msg_counts = {"halo_from_right": 0, "halo_from_left": 0}
        self._msg_bytes = {"halo_from_right": 0.0, "halo_from_left": 0.0}
        # Guard mirror state (divergence watchdog).
        self._g_best = np.full(self.n, float("inf"))
        self._g_streak = np.zeros(self.n, dtype=np.int64)
        self._g_diverged = False

    # ------------------------------------------------------------------
    # Per-round timings
    # ------------------------------------------------------------------
    def _durations(self, work: np.ndarray) -> np.ndarray:
        if self._const_hosts:
            d = work / self._rates
        else:
            d = np.array(
                [
                    self.hosts[r].duration_for_work(float(work[r]), self.T)
                    for r in range(self.n)
                ]
            )
        return np.maximum(d, self.config.min_sweep_duration)

    def _transfers(self, t_se: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Raw (unclamped) transfer times for left/right sends this round."""
        if self._const_links:
            return self._tl, self._tr
        tl = np.zeros(self.n)
        tr = np.zeros(self.n)
        for r in range(1, self.n):
            tl[r] = self._links_left[r].transfer_time(self.nbytes, float(t_se[r]))
        for r in range(self.n - 1):
            tr[r] = self._links_right[r].transfer_time(
                self.nbytes, float(t_se[r])
            )
        return tl, tr

    # ------------------------------------------------------------------
    # Guard hooks (InvariantMonitor compatibility, lockstep-native)
    # ------------------------------------------------------------------
    def _guard_conservation(self) -> None:
        from repro.guard.invariants import conservation_error

        error = conservation_error(
            self.blocks,
            self.sweeper.component_counts(),
            self.partition,
            self.problem.n_components,
        )
        if error is not None:
            self.guard._fail(error, self.now)

    def _guard_events(self, events: int) -> None:
        """Advance the guard's event counter at the reference cadence."""
        if self.guard is not None:
            self.guard.replay_events(events, self._guard_conservation)

    def _guard_divergence(self, residual: np.ndarray, idx: np.ndarray) -> bool:
        """Mirror the divergence watchdog for ranks ``idx`` this round.

        Detection only — the replay has no rollback; on detection the
        caller abandons the replay and reruns the reference engine,
        whose own :class:`~repro.guard.watchdogs.DivergenceGuard`
        performs the actual rollback.
        """
        if self.guard is None:
            return False
        from repro.guard.watchdogs import DIVERGENCE_FACTOR, DIVERGENCE_PATIENCE

        res = residual[idx]
        best = self._g_best[idx]
        finite = np.isfinite(res)
        improved = finite & (res < best)
        floor = np.maximum(best, self.config.tolerance)
        blowup = ~finite | (
            np.isfinite(best) & (res > floor * DIVERGENCE_FACTOR)
        )
        blowup &= ~improved
        self._g_best[idx] = np.where(improved, res, best)
        self._g_streak[idx[improved]] = 0
        self._g_streak[idx[blowup]] += 1
        if np.any(~finite) or np.any(
            self._g_streak[idx] >= DIVERGENCE_PATIENCE
        ):
            self._g_diverged = True
        return self._g_diverged

    def _guard_verify_halt(self) -> dict[str, Any]:
        """Native halt verification; installed as ``guard._lockstep_verify``.

        Same contract as :meth:`repro.guard.InvariantMonitor.
        verify_halt`: re-check conservation on the final batched state,
        recompute the true global residual, raise on a premature halt.
        """
        guard = self.guard
        assert guard is not None
        from repro.guard.invariants import HALT_SLACK, judge_halt

        self._guard_conservation()
        guard.halt_verdict, error = judge_halt(
            self.converged,
            self.sweeper.probe_residual(),
            self.config.tolerance,
            HALT_SLACK,
        )
        if error is not None:
            guard._fail(error, self.now)
        return guard.halt_verdict

    # ------------------------------------------------------------------
    # Convergence / abort scan
    # ------------------------------------------------------------------
    def _stop_scan(
        self, k: int, residual: np.ndarray, order_end: np.ndarray
    ) -> tuple[int | None, int | None, int | None, np.ndarray]:
        """First end-dispatch position at which the run stops, if any.

        The supervisor trips at the first report where every rank is
        satisfied — ranks reporting earlier this round by their *new*
        streak, ranks reporting later by their previous one.  The
        ``max_iterations`` abort fires inside the first end event of
        the round (every rank's check would, but the first one stops
        the simulator).
        """
        cfg = self.config
        n = self.n
        streak_new = np.where(
            residual < cfg.tolerance, self.streak + 1, 0
        ).astype(np.int64)
        new_sat = (streak_new >= cfg.persistence)[order_end]
        old_sat = (self.streak >= cfg.persistence)[order_end]
        pref = np.logical_and.accumulate(new_sat)
        suffix_after = np.empty(n, dtype=bool)
        suffix_after[-1] = True
        suffix_after[:-1] = np.logical_and.accumulate(old_sat[::-1])[::-1][1:]
        cand = pref & suffix_after
        trigger_pos = int(np.argmax(cand)) if bool(cand.any()) else None
        abort_pos = 0 if (k + 1) >= cfg.max_iterations else None
        positions = [p for p in (trigger_pos, abort_pos) if p is not None]
        stop_pos = min(positions) if positions else None
        return stop_pos, trigger_pos, abort_pos, streak_new

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> RunResult | None:
        """Replay the run round by round; ``None`` => fall back."""
        n = self.n
        cfg = self.config
        horizon = None if cfg.max_time is None else float(cfg.max_time)
        neg_inf = -float("inf")
        all_ranks = np.arange(n)
        # The monitor sits in the profiler slot and sees every event,
        # including the n spawn steps at t = 0.
        self._guard_events(n)
        k = 0
        while True:
            T = self.T
            pos0 = self.pos0
            residual, work = self.sweeper.sweep()
            residual = np.asarray(residual, dtype=float)
            work = np.asarray(work, dtype=float)
            d = self._durations(work)
            first = d * OVERLAP_SPLIT
            t_mid = T + first
            t_se = t_mid + (d - first)
            # Dispatch order of mid / end events.  Both lexsorts are
            # exact: mids are pushed at T in pos0 order (equal t_mid
            # resolves by push sequence = pos0), and each end is pushed
            # by its own mid (equal t_se resolves by mid dispatch
            # order).
            order_mid = np.lexsort((pos0, t_mid))
            mid_pos = np.empty(n, dtype=np.int64)
            mid_pos[order_mid] = np.arange(n)
            order_end = np.lexsort((mid_pos, t_se))

            # Raw arrival times of this round's 2(n-1) halo sends
            # (FIFO-clamped against the previous round's arrivals).
            tl, tr = self._transfers(t_se)
            arr_l = np.full(n, neg_inf)  # r's send to r-1
            arr_r = np.full(n, neg_inf)  # r's send to r+1
            arr_l[1:] = np.maximum(
                t_se[1:] + tl[1:], self.last_left[1:] + _FIFO_EPSILON
            )
            arr_r[:-1] = np.maximum(
                t_se[:-1] + tr[:-1], self.last_right[:-1] + _FIFO_EPSILON
            )
            rnd = _Round(k, T, residual, work, t_mid, t_se, pos0, arr_l, arr_r)

            stop_pos, trigger_pos, abort_pos, streak_new = self._stop_scan(
                k, residual, order_end
            )
            if stop_pos is not None:
                stop_rank = int(order_end[stop_pos])
                t_stop = float(t_se[stop_rank])
                if horizon is None or t_stop <= horizon:
                    # The supervisor (or the abort) stops the sim inside
                    # the stopping rank's end event, which is therefore
                    # the last dispatched event: ends up to it complete
                    # their accounting, the ones before it also send
                    # their halos (the stop rank breaks before sending),
                    # and everything else in the queue — later ends,
                    # undelivered halos, pending mids — is abandoned.
                    if stop_pos == trigger_pos:
                        self.converged = True
                        self.convergence_time = t_stop
                    if stop_pos == abort_pos:
                        self.aborted_reason = (
                            f"rank {stop_rank} exceeded "
                            f"max_iterations={cfg.max_iterations}"
                        )
                    return self._finish(
                        rnd,
                        order_end[: stop_pos + 1],
                        order_end[:stop_pos],
                        rnd.key_end(stop_rank),
                        t_stop,
                    )

            # Inbound arrivals per receiver, and "late" = the delivery
            # dispatches after the receiver's end event (the receiver
            # must block for it).
            in_l = np.full(n, neg_inf)
            in_r = np.full(n, neg_inf)
            in_l[1:] = arr_r[:-1]
            in_r[:-1] = arr_l[1:]
            late_l = in_l > t_se
            late_r = in_r > t_se
            # An exact arrival/end tie resolves by dispatch key.  With
            # the times equal, ``key_send(s, ...) > key_end(r)``
            # collapses to comparing the sender's end key against the
            # receiver's mid key, which is decided by their times —
            # and on *that* tie the sender's end wins, because its key
            # nests one level deeper than the receiver's mid
            # (``key_mid``'s parent is ``_D_ROOT``, which loses to any
            # real event key).  Hence: late iff t_se[s] >= t_mid[r].
            late_l[1:] |= (in_l[1:] == t_se[1:]) & (t_se[:-1] >= t_mid[1:])
            late_r[:-1] |= (in_r[:-1] == t_se[:-1]) & (t_se[1:] >= t_mid[:-1])
            A = np.maximum(
                t_se,
                np.maximum(
                    np.where(late_l, in_l, neg_inf),
                    np.where(late_r, in_r, neg_inf),
                ),
            )
            T_next = float(A.max())
            if horizon is not None and T_next > horizon:
                # ``max_time`` is a pure time cutoff: events at
                # ``t <= max_time`` dispatch, the rest stay queued and
                # the clock is advanced to exactly the horizon.  The
                # barrier never opens (its release time is past the
                # horizon), so no idle spans are recorded.
                done = order_end[t_se[order_end] <= horizon]
                return self._finish(rnd, done, done, (horizon, _D_TOP), horizon)

            # ---- commit this complete round --------------------------
            if not self._account(rnd, order_end, order_end):
                return None
            self.streak = streak_new

            # Barrier arrival order (= dispatch order of each rank's
            # arrival event: its own end, or its final wait-resume).
            # The nested dispatch keys flatten to fixed-width rows of
            # scalars that one ``np.lexsort`` orders exactly like the
            # tuple comparison would — hot at scale, where a
            # homogeneous cluster ties every rank every round:
            #
            #   no late halo:  (t_se, t_mid,  -1.0,    -1.0,    pos0,    0)
            #     = key_end(r) flattened; note A == t_se here.
            #   late halo:     (A,    arr*, t_se[s*], t_mid[s*], pos0[s*], idx*)
            #     = (A[r], (d_star, 0)) flattened, s*/arr*/idx* the
            #       governing delivery's sender, arrival and push index.
            #
            # Cross-shape comparisons always resolve by column 2
            # (-1.0 < any real t_se), exactly as ``_D_ROOT`` loses to
            # any real event key inside the nested form; trailing pads
            # are reached only against another no-late row, where they
            # are equal and pos0 (a permutation) decides.
            sL = np.maximum(all_ranks - 1, 0)  # sender of r's left-in halo
            sR = np.minimum(all_ranks + 1, n - 1)  # sender of right-in halo
            Lf2, Lf3, Li0 = t_se[sL], t_mid[sL], pos0[sL]
            Rf2, Rf3, Ri0 = t_se[sR], t_mid[sR], pos0[sR]
            Li1 = (sL != 0).astype(np.int64)  # right send: idx 1 unless rank 0
            Ri1 = np.zeros(n, dtype=np.int64)  # left send is pushed first
            # Both halos late: the governing delivery is the later one
            # — or, at the same arrival instant, the *earlier-keyed*
            # one (its resume dispatches after both halos are in).
            # Senders r-1 and r+1 are distinct ranks, so pos0 breaks
            # any remaining tie before the push index could matter.
            L_lt_R = (
                (Lf2 < Rf2)
                | ((Lf2 == Rf2) & (Lf3 < Rf3))
                | ((Lf2 == Rf2) & (Lf3 == Rf3) & (Li0 < Ri0))
            )
            use_L = np.where(in_l == in_r, L_lt_R, in_l > in_r)
            use_L = np.where(late_l & late_r, use_L, late_l)
            has_late = late_l | late_r
            f1 = np.where(has_late, np.where(use_L, in_l, in_r), t_mid)
            f2 = np.where(has_late, np.where(use_L, Lf2, Rf2), -1.0)
            f3 = np.where(has_late, np.where(use_L, Lf3, Rf3), -1.0)
            i0 = np.where(has_late, np.where(use_L, Li0, Ri0), pos0)
            i1 = np.where(has_late, np.where(use_L, Li1, Ri1), 0)
            order_arr = np.lexsort((i1, i0, f3, f2, f1, A))
            releaser = int(order_arr[-1])

            # Dispatched-event count for the round: n mids + n ends +
            # 2(n-1) deliveries + wait-resumes + (n-1) barrier resumes.
            n_late = late_l.astype(np.int64) + late_r.astype(np.int64)
            both_same = late_l & late_r & (in_l == in_r)
            wait_resumes = int(
                np.where(
                    n_late == 0, 0, np.where((n_late == 1) | both_same, 1, 2)
                ).sum()
            )
            events = 2 * n + 2 * (n - 1) + wait_resumes + (n - 1)
            self.n_dispatched += events
            self._guard_events(events)

            strict = T_next > t_se
            self.idle_acc[strict] = (self.idle_acc[strict] + T_next) - t_se[
                strict
            ]
            if self.tracer.enabled:
                # The releaser records its span first, then the waiters
                # as they resume, in arrival order.
                for x in np.roll(order_arr, 1).tolist():
                    if T_next > t_se[x]:
                        self.tracer.idles.append(
                            IdleSpan(
                                rank=x,
                                t0=float(t_se[x]),
                                t1=T_next,
                                reason="sisc-sync",
                            )
                        )

            # Next round: the releaser restarts inline, the waiters
            # resume in arrival order — that is the push order of the
            # next round's mid events.
            new_pos0 = np.empty(n, dtype=np.int64)
            new_pos0[releaser] = 0
            new_pos0[order_arr[:-1]] = np.arange(1, n)
            self.pos0 = new_pos0
            self.T = T_next
            self.now = T_next
            k += 1

    # ------------------------------------------------------------------
    # Booking a round, and ending a run
    # ------------------------------------------------------------------
    def _account(
        self, rnd: _Round, done: np.ndarray, senders: np.ndarray
    ) -> bool:
        """Book round ``rnd`` for the ranks whose end event dispatched.

        ``done`` lists them in end-dispatch order; ``senders`` is the
        prefix of ``done`` that went on to send its halos (every rank
        of a complete round; all but the stopping rank of a stopped
        one).  ``False`` => the divergence watchdog would have rolled a
        rank back, and nothing was booked.
        """
        k, T, residual, work, _, t_se, _, arr_l, arr_r = rnd
        if self._guard_divergence(residual, done):
            return False
        n = self.n
        # NB: the tracer accumulates ``busy + t1 - t0`` left to
        # right; replicate that association bitwise.
        self.busy[done] = (self.busy[done] + t_se[done]) - T
        self.iter_counts[done] += 1
        self.residual_at[done] = residual[done]
        # Rank 0 sends nothing left and rank n-1 nothing right: those
        # slots hold -inf in ``arr_*`` as in ``last_*``.
        self.last_left[senders] = arr_l[senders]
        self.last_right[senders] = arr_r[senders]
        # Every send adds the same ``nbytes``, so the sends of a round
        # are one counted add on each of the three byte accumulators.
        sent = {
            "halo_from_right": int(np.count_nonzero(senders > 0)),
            "halo_from_left": int(np.count_nonzero(senders < n - 1)),
        }
        for kind, count in sent.items():
            self._msg_counts[kind] += count
            self._msg_bytes[kind] = _repeat_add(
                self._msg_bytes[kind], self.nbytes, count
            )
        net = self.platform.network
        total = sum(sent.values())
        net.messages_sent += total
        net.bytes_sent = _repeat_add(net.bytes_sent, self.nbytes, total)
        if self.tracer.enabled:
            tr_ = self.tracer
            for pos, r in enumerate(done.tolist()):
                t1 = float(t_se[r])
                tr_.iterations.append(
                    IterationSpan(
                        rank=r,
                        iteration=k + 1,
                        t0=T,
                        t1=t1,
                        work=float(work[r]),
                    )
                )
                tr_.residuals.append(
                    ResidualRecord(
                        rank=r,
                        iteration=k + 1,
                        time=t1,
                        residual=float(residual[r]),
                        n_local=self.blocks[r][1] - self.blocks[r][0],
                    )
                )
                if pos >= len(senders):
                    continue
                if r > 0:
                    tr_.messages.append(
                        MessageRecord(
                            kind="halo_from_right",
                            src_rank=r,
                            dst_rank=r - 1,
                            size_bytes=self.nbytes,
                            send_time=t1,
                            arrival_time=float(arr_l[r]),
                        )
                    )
                if r < n - 1:
                    tr_.messages.append(
                        MessageRecord(
                            kind="halo_from_left",
                            src_rank=r,
                            dst_rank=r + 1,
                            size_bytes=self.nbytes,
                            send_time=t1,
                            arrival_time=float(arr_r[r]),
                        )
                    )
        return True

    def _finish(
        self,
        rnd: _Round,
        done: np.ndarray,
        senders: np.ndarray,
        cut: tuple,
        now: float,
    ) -> RunResult | None:
        """The run's last, truncated round: what keys below ``cut`` ran.

        ``cut`` is the dispatch key the run ends at — the stopping
        rank's end key (itself the last dispatched event), or
        ``(max_time, _D_TOP)`` — and ``now`` the clock it ends on.
        """
        if not self._account(rnd, done, senders):
            return None
        self.now = now
        n = self.n
        # Mids at ``t <= cut[0]`` all dispatch (a mid's key always
        # sorts below an end key at the same instant: its parent is the
        # round-start root), and so did the ``done`` ends.
        events = int((rnd.t_mid <= cut[0]).sum()) + len(done)
        inbound: dict[int, list[tuple]] = {}
        senders = senders.tolist()
        for s in senders:
            if s > 0:
                inbound.setdefault(s - 1, []).append(rnd.key_send(s, "left"))
            if s < n - 1:
                inbound.setdefault(s + 1, []).append(rnd.key_send(s, "right"))
        events += sum(key < cut for keys in inbound.values() for key in keys)
        # Wait-resume chains: only a rank that sent entered the halo
        # wait, and it blocks on each inbound delivery that dispatches
        # after its own end — resuming once per late delivery, except
        # that two arriving at the same instant trigger a single resume
        # (pushed by the earlier-keyed one, dispatched after both).
        for w in senders:
            end_key = rnd.key_end(w)
            lates = sorted(key for key in inbound.get(w, ()) if key > end_key)
            if len(lates) == 2 and lates[0][0] == lates[1][0]:
                del lates[1]
            for key in lates:
                if (key[0], (key, 0)) >= cut:
                    break
                events += 1
        self.n_dispatched += events
        self._guard_events(events)
        return self._assemble()

    # ------------------------------------------------------------------
    # Result assembly (mirrors ChainRun.result())
    # ------------------------------------------------------------------
    def _assemble(self) -> RunResult:
        n = self.n
        tr_ = self.tracer
        for r in range(n):
            if self.iter_counts[r] > 0:
                tr_._busy[r] = float(self.busy[r])
                tr_._iter_counts[r] = int(self.iter_counts[r])
            if self.idle_acc[r] > 0.0:
                tr_._idle[r] = float(self.idle_acc[r])
        for kind in ("halo_from_right", "halo_from_left"):
            if self._msg_counts[kind]:
                tr_._msg_counts[kind] = self._msg_counts[kind]
                tr_._msg_bytes[kind] = self._msg_bytes[kind]
        if self.guard is not None:
            self.guard._lockstep_verify = self._guard_verify_halt
        time = (
            self.convergence_time
            if self.convergence_time is not None
            else self.now
        )
        net = self.platform.network
        return RunResult(
            model="sisc",
            converged=self.converged,
            time=time,
            iterations=[int(c) for c in self.iter_counts],
            work=[float(b) for b in self.busy],
            solution_blocks=[
                self.sweeper.solution_block(r) for r in range(n)
            ],
            final_partition=list(self.blocks),
            residuals_at_stop=[float(x) for x in self.residual_at],
            tracer=tr_,
            n_migrations=tr_.n_migrations(),
            components_migrated=tr_.components_migrated(),
            meta={
                "aborted_reason": self.aborted_reason,
                "stale_halos_dropped": 0,
                "oracle_detection_time": self.convergence_time,
                "detection_messages": 0,
                "network_bytes": net.bytes_sent,
                "network_messages": net.messages_sent,
                "transport_per_rank": [
                    {"rank": r, **dict.fromkeys(TRANSPORT_COUNTERS, 0)}
                    for r in range(n)
                ],
                "engine": "lockstep",
                "events_dispatched": self.n_dispatched,
            },
        )
