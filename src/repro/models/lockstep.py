"""Rank-batched lockstep replay of the SISC execution model.

:func:`run_sisc_batched` produces results *bit-identical* to
:func:`repro.models.sisc.run_sisc` on the fault-free oracle-detection
path, but replaces the per-rank DES processes with one vectorised
"round" per global iteration: SISC is globally synchronous, so every
rank starts iteration ``k`` at the same barrier-open time ``T_k`` and
the whole round — sweep timings, halo arrivals, barrier release, idle
spans, convergence votes — is a closed-form function of the per-rank
sweep durations.  One call per round, :func:`_round`, whatever the rank
count, replaces thousands of event dispatches, which is what lets the
simulator reach 10k ranks (see ``benchmarks/bench_scale.py``).  It runs
compiled (``lockstep_round`` in ``repro/problems/_sweeps.c``) wherever
the sweeps do; its NumPy body is the reference and the fallback.

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
from repro.grid.network import _FIFO_EPSILON
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
    arr: np.ndarray  # (2, n) FIFO-clamped arrival of r's send to r-1, r+1

    def key_mid(self, r: int) -> tuple:
        return (float(self.t_mid[r]), (_D_ROOT, int(self.pos0[r])))

    def key_end(self, r: int) -> tuple:
        return (float(self.t_se[r]), (self.key_mid(r), 0))

    def key_send(self, r: int, side: str) -> tuple:
        # Push index inside r's end event: the left send is scheduled
        # first, then the right send (rank 0 only sends right).
        arr = self.arr[0 if side == "left" else 1, r]
        idx = 0 if side == "left" or r == 0 else 1
        return (float(arr), (self.key_end(r), idx))


#: Rows of the engine's ``(8, n)`` state and of the round's ``(6, n)``
#: output (see :func:`_round`).
POS0, STREAK, BUSY, IDLE, ITERS, RESIDUAL, LAST = 0, 1, 2, 3, 4, 5, 6
T_MID, T_SE, ARR, ORDER_END, ORDER_ARR = 0, 1, 2, 4, 5
_ROUND_BUFFERS = ("state", "platform", "work", "residual", "out")


def _ends(T, work, rates, min_sweep, split):
    """``(t_mid, t_se)``: each rank's mid and end times in a round that
    opens at ``T``, its duration ``max(work / rate, min_sweep)``."""
    d = np.maximum(work / rates, min_sweep)
    first = d * split
    t_mid = T + first
    return t_mid, t_mid + (d - first)


def _stop_scan(k, streak, residual, order_end, tol, persistence, max_iterations):
    """``(stop, trigger, abort, streak_new)``: the first end-dispatch
    position at which the run stops, if any, and why.

    The supervisor trips at the first report where every rank is
    satisfied — ranks reporting earlier this round by their *new*
    streak, ranks reporting later by their previous one.  The
    ``max_iterations`` abort fires inside the first end event of the
    round (every rank's check would, but the first one stops the
    simulator).
    """
    n = len(order_end)
    streak_new = (streak + 1) * (residual < tol)
    new_sat = (streak_new >= persistence)[order_end]
    old_sat = (streak >= persistence)[order_end]
    head = n if new_sat.all() else int(np.argmin(new_sat))
    tail = 0 if old_sat.all() else n - int(np.argmin(old_sat[::-1]))
    trigger_pos = max(tail - 1, 0) if max(tail - 1, 0) < head else None
    abort_pos = 0 if (k + 1) >= max_iterations else None
    stop_pos = trigger_pos if abort_pos is None else abort_pos
    return stop_pos, trigger_pos, abort_pos, streak_new


def _round(kernel, state, platform, work, residual, out, T, k, *run):
    """One round of ``n = len(work)`` ranks opening at ``T`` after ``k``
    rounds: ``(T_next, events)``, the round booked in ``state``, or None,
    ``state`` untouched, when the run ends inside it (a stop, or a
    barrier past the horizon).  ``kernel``: the compiled module, or None
    for this NumPy body, its reference.

    Rows (C-contiguous float64, else this raises before a write):
    ``state`` ``POS0`` (round-start scheduling order), ``STREAK``,
    ``BUSY``, ``IDLE``, ``ITERS``, ``RESIDUAL`` and from ``LAST`` the
    FIFO clamps r -> r-1, r -> r+1; ``platform`` the rates and the raw
    transfer times of those sends (-inf where no channel); ``out`` gets
    ``T_MID``, ``T_SE``, from ``ARR`` the clamped arrivals, ``ORDER_END``
    and, booked, ``ORDER_ARR``.  ``run``: ``(split, eps, min_sweep, tol,
    persistence, max_iterations, horizon)``, the horizon NaN for none.
    """
    if kernel is not None:
        return kernel.lockstep_round(state, platform, work, residual, out, T, k, *run)
    split, eps, min_sweep, tol, persistence, max_iterations, horizon = run
    arrays = (state, platform, work, residual, out)
    sizes = []
    for name, array, writable in zip(_ROUND_BUFFERS, arrays, (1, 0, 0, 0, 1)):
        view = memoryview(array)
        if not view.c_contiguous or (writable and view.readonly):
            raise ValueError(f"{name} must be a C-contiguous buffer")
        if view.format != "d":
            raise TypeError(f"{name} must be float64, got format {view.format!r}")
        sizes.append(view.nbytes // 8)
    n = sizes[2]
    if n < 1 or sizes != [8 * n, 3 * n, n, n, 6 * n]:
        raise ValueError("lockstep_round(): buffer lengths do not match the rank count")
    state, platform, work, residual, out = map(np.asarray, arrays)
    state, platform = state.reshape(8, n), platform.reshape(3, n)
    out = out.reshape(6, n)
    work, residual = work.reshape(n), residual.reshape(n)
    pos0, streak = state[POS0], state[STREAK]
    t_mid, t_se, arr = out[T_MID], out[T_SE], out[ARR:ORDER_END]
    t_mid[:], t_se[:] = _ends(T, work, platform[0], min_sweep, split)
    # Dispatch order of mid / end events.  Both lexsorts are exact: mids
    # are pushed at T in pos0 order (equal t_mid resolves by push
    # sequence = pos0), and each end is pushed by its own mid (equal
    # t_se resolves by mid dispatch order).
    ranks = np.arange(n)
    pos = np.empty(n)
    pos[np.lexsort((pos0, t_mid))] = ranks
    order_end = np.lexsort((pos, t_se))
    out[ORDER_END] = order_end
    # Raw arrival times of this round's 2(n-1) halo sends, FIFO-clamped
    # against the previous round's.
    arr[:] = np.maximum(t_se + platform[1:], state[LAST:] + eps)
    stop, _, _, streak_new = _stop_scan(
        k, streak, residual, order_end, tol, persistence, max_iterations
    )
    if stop is not None and (horizon != horizon or t_se[order_end[stop]] <= horizon):
        return None
    # Inbound halos per receiver (r-1's send right, r+1's send left; the
    # chain's ends get a -inf slot, never late), and "late" = the
    # delivery dispatches after the receiver's end event (the receiver
    # must block for it).  An exact arrival/end tie resolves by dispatch
    # key.  With the times equal, ``key_send(s, ...) > key_end(r)``
    # collapses to comparing the sender's end key against the
    # receiver's mid key, which is decided by their times — and on
    # *that* tie the sender's end wins, because its key nests one level
    # deeper than the receiver's mid (``key_mid``'s parent is
    # ``_D_ROOT``, which loses to any real event key).  Hence: late iff
    # t_se[s] >= t_mid[r].
    left, right = np.maximum(ranks - 1, 0), np.minimum(ranks + 1, n - 1)
    after = (ranks + 1) % n
    in_l, in_r = arr[1, ranks - 1], arr[0, after]
    late_l = (in_l > t_se) | ((in_l == t_se) & (t_se[left] >= t_mid))
    late_r = (in_r > t_se) | ((in_r == t_se) & (t_se[right] >= t_mid))
    A = np.maximum(np.where(late_l, in_l, t_se), np.where(late_r, in_r, t_se))
    T_next = float(A.max())
    if T_next > horizon:
        # ``max_time`` is a pure time cutoff: the barrier never opens.
        return None
    # Barrier arrival order (= dispatch order of each rank's arrival
    # event: its own end, or its final wait-resume).  One stable
    # ``np.lexsort`` on three columns orders the nested dispatch keys:
    #
    #   no late halo:  (t_se, t_mid, pos0)
    #     = key_end(r); note A == t_se here.
    #   late halo:     (A,    A,     n + end_pos[s*])
    #     = (A[r], (d_star, 0)), s* the governing delivery's sender;
    #       its arrival is A.
    #
    # ``end_pos`` is each end's dispatch position: two ends' keys
    # compare as their positions do, because ``order_end`` sorts on
    # exactly the leading fields of ``key_end`` and pos0 is a
    # permutation.  Across shapes, column 2 puts a no-late row first
    # (pos0 < n), as ``_D_ROOT`` under ``key_mid`` loses to a real end
    # key.  Two rows left tied have one sender s: they are s-1 and s+1,
    # served by its left send (push index 0) and right send (index 1),
    # so the stable sort's rank order is push order.  With both halos
    # late the governing delivery is the later one — or, at the same
    # instant, the *earlier-keyed* one (its resume dispatches after
    # both halos are in).
    pos[order_end] = ranks
    e_l, e_r = pos[left], pos[right]
    same, both = in_l == in_r, late_l & late_r
    use_l = np.where(both, np.where(same, e_l < e_r, in_l > in_r), late_l)
    has_late = late_l | late_r
    key2 = np.where(has_late, np.where(use_l, e_l, e_r) + n, pos0)
    order_arr = np.lexsort((key2, np.where(has_late, A, t_mid), A))
    out[ORDER_ARR] = order_arr
    # n mids + n ends + 2(n-1) deliveries + (n-1) barrier resumes, and
    # one resume per late delivery, except that two late ones arriving
    # at the same instant trigger a single resume.
    events = 5 * n - 3 + int(late_l.sum() + late_r.sum() - (both & same).sum())
    # The tracer accumulates ``busy + t1 - t0`` left to right.
    state[BUSY] += t_se
    state[BUSY] -= T
    state[ITERS] += 1
    state[RESIDUAL] = residual
    state[LAST:] = arr
    streak[:] = streak_new
    state[IDLE] = np.where(T_next > t_se, (state[IDLE] + T_next) - t_se, state[IDLE])
    # Next round: the releaser restarts inline, the waiters resume in
    # arrival order — that is the push order of the next round's mids.
    pos0[order_arr] = after
    return T_next, events


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
        # Per-directed-channel links and (when constant) transfer times;
        # the two channels that do not exist (rank 0 to its left, rank
        # n-1 to its right) take -inf, so their arrivals stay -inf.
        self._links_left = [None] + [
            network.link_for(self.hosts[r], self.hosts[r - 1])
            for r in range(1, self.n)
        ]
        self._links_right = [
            network.link_for(self.hosts[r], self.hosts[r + 1])
            for r in range(self.n - 1)
        ] + [None]
        times = [
            _constant_transfer(link, self.nbytes) if link else -math.inf
            for link in self._links_left + self._links_right
        ]
        self._const_links = all(t is not None for t in times)
        rates = [_constant_rate(h) for h in self.hosts]
        self._const_hosts = all(r is not None for r in rates)
        # The round's platform rows: the rates (1.0 where availability
        # varies: ``_durations`` then hands the round durations, not work)
        # and the transfer times (``_transfers`` rewrites varying links').
        self._platform = np.empty((3, self.n))
        self._platform[0] = rates if self._const_hosts else 1.0
        self._platform[1:] = np.reshape([t or 0.0 for t in times], (2, -1))
        # Mutable run state: the rows of one array (see ``_round``) ----
        self.T = 0.0
        self.state = np.zeros((8, self.n))
        self.state[POS0] = np.arange(self.n)  # round-start scheduling order
        self.state[RESIDUAL] = math.inf
        self.state[LAST:] = -math.inf  # FIFO r -> r-1, r -> r+1
        self.pos0, self.streak, self.busy, self.idle_acc = self.state[:ITERS]
        self.iter_counts, self.residual_at = self.state[ITERS:LAST]
        self.last = self.state[LAST:]
        self._out = np.empty((6, self.n))
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
    # Per-round timings where a host's or a link's trace varies
    # ------------------------------------------------------------------
    def _durations(self, work: np.ndarray) -> np.ndarray:
        pairs = zip(self.hosts, work)
        return np.array([h.duration_for_work(float(w), self.T) for h, w in pairs])

    def _transfers(self, t_se: np.ndarray) -> None:
        """The raw transfer times of the sends at ``t_se``, into ``_platform``."""
        for side, links in enumerate((self._links_left, self._links_right)):
            for r, link in enumerate(links):
                if link is not None:
                    self._platform[1 + side, r] = link.transfer_time(
                        self.nbytes, float(t_se[r])
                    )

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
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> RunResult | None:
        """Replay the run round by round; ``None`` => fall back."""
        n, cfg, guard = self.n, self.config, self.guard
        horizon = None if cfg.max_time is None else float(cfg.max_time)
        run = (
            OVERLAP_SPLIT, _FIFO_EPSILON, cfg.min_sweep_duration, cfg.tolerance,
            cfg.persistence, cfg.max_iterations,
            math.nan if horizon is None else horizon,
        )
        from repro.problems import _compiled

        kernel = _compiled.lockstep_round  # resolved at the first round
        state, platform, out = self.state, self._platform, self._out
        ranks = np.arange(n)
        # The monitor sits in the profiler slot and sees every event,
        # including the n spawn steps at t = 0.
        self._guard_events(n)
        k = 0
        while True:
            T = self.T
            residual, work = self.sweeper.sweep()
            residual = np.asarray(residual, dtype=float)
            work = np.asarray(work, dtype=float)
            # Where availability varies, the round takes durations at rate 1.
            d = work if self._const_hosts else self._durations(work)
            if not self._const_links:
                self._transfers(_ends(T, d, platform[0], run[2], OVERLAP_SPLIT)[1])
            booked = _round(kernel, state, platform, d, residual, out, T, k, *run)
            if booked is not None:
                T_next, events = booked
                if guard is not None:
                    if self._guard_divergence(residual, ranks):
                        return None
                    guard.replay_events(events, self._guard_conservation)
                self.n_dispatched += events
                if self.tracer.enabled:
                    self._record_round(k, T, T_next, residual, work)
                self.T = self.now = T_next
                k += 1
                continue
            # The run ends inside this round, which ``_round`` left
            # unbooked: book what dispatched before the stop or horizon.
            order_end = out[ORDER_END].astype(np.intp)
            t_se = out[T_SE]
            rnd = _Round(
                k, T, residual, work, out[T_MID], t_se, self.pos0, out[ARR:ORDER_END]
            )
            stop_pos, trigger_pos, abort_pos, _ = _stop_scan(
                k, self.streak, residual, order_end,
                cfg.tolerance, cfg.persistence, cfg.max_iterations,
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
                        rnd, order_end[: stop_pos + 1], order_end[:stop_pos],
                        rnd.key_end(stop_rank), t_stop,
                    )
            # ``max_time`` is a pure time cutoff: events at ``t <=
            # max_time`` dispatch, the rest stay queued and the clock is
            # advanced to exactly the horizon.  The barrier never opens
            # (its release time is past the horizon), so no idle spans
            # are recorded.
            done = order_end[t_se[order_end] <= horizon]
            return self._finish(rnd, done, done, (horizon, _D_TOP), horizon)

    # ------------------------------------------------------------------
    # Booking the last round, tracing, and ending a run
    # ------------------------------------------------------------------
    def _account(
        self, rnd: _Round, done: np.ndarray, senders: np.ndarray
    ) -> bool:
        """Book the run's last round ``rnd`` for the ranks whose end
        event dispatched, and every send of the run.

        ``done`` lists them in end-dispatch order; ``senders`` is the
        prefix of ``done`` that went on to send its halos (all but the
        stopping rank of a stopped round).  ``False`` => the divergence
        watchdog would have rolled a rank back, and nothing was booked.
        """
        k, T, residual, work, _, t_se, _, arr = rnd
        if self._guard_divergence(residual, done):
            return False
        n = self.n
        # NB: the tracer accumulates ``busy + t1 - t0`` left to right.
        self.busy[done] = (self.busy[done] + t_se[done]) - T
        self.iter_counts[done] += 1
        self.residual_at[done] = residual[done]
        # Rank 0 sends nothing left and rank n-1 nothing right: those
        # slots hold -inf in ``arr`` as in ``last``.
        self.last[:, senders] = arr[:, senders]
        # Each of the k booked rounds sent n-1 halos either way.  Every
        # send adds the same ``nbytes``, so the run's sends are one
        # counted add on each of the three byte accumulators.
        sent = {
            "halo_from_right": k * (n - 1) + int(np.count_nonzero(senders > 0)),
            "halo_from_left": k * (n - 1) + int(np.count_nonzero(senders < n - 1)),
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
            self._record(rnd, done, len(senders))
        return True

    def _record_round(
        self, k: int, T: float, T_next: float, residual: np.ndarray, work: np.ndarray
    ) -> None:
        """Trace booked round ``k``: ``_round``'s orders are in ``_out``."""
        out = self._out
        t_se = out[T_SE]
        rnd = _Round(k, T, residual, work, out[T_MID], t_se, None, out[ARR:ORDER_END])
        self._record(rnd, out[ORDER_END].astype(np.intp), self.n)
        # The releaser records its span first, then the waiters as they
        # resume, in arrival order.
        for x in np.roll(out[ORDER_ARR], 1).astype(np.intp).tolist():
            if T_next > t_se[x]:
                self.tracer.idles.append(
                    IdleSpan(rank=x, t0=float(t_se[x]), t1=T_next, reason="sisc-sync")
                )

    def _record(self, rnd: _Round, done: np.ndarray, n_senders: int) -> None:
        """Trace the ``done`` ends of ``rnd``, in dispatch order, and the
        halos the first ``n_senders`` of them sent."""
        k, T, residual, work, _, t_se, _, arr = rnd
        n = self.n
        tr_ = self.tracer
        arr_l, arr_r = arr
        for pos, r in enumerate(done.tolist()):
            t1 = float(t_se[r])
            tr_.iterations.append(
                IterationSpan(rank=r, iteration=k + 1, t0=T, t1=t1, work=float(work[r]))
            )
            tr_.residuals.append(
                ResidualRecord(
                    rank=r, iteration=k + 1, time=t1, residual=float(residual[r]),
                    n_local=self.blocks[r][1] - self.blocks[r][0],
                )
            )
            if pos >= n_senders:
                continue
            for kind, dst, arrival in (
                ("halo_from_right", r - 1, arr_l), ("halo_from_left", r + 1, arr_r)
            ):
                if 0 <= dst < n:
                    tr_.messages.append(
                        MessageRecord(
                            kind=kind, src_rank=r, dst_rank=dst, size_bytes=self.nbytes,
                            send_time=t1, arrival_time=float(arrival[r]),
                        )
                    )

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
