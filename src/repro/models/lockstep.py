"""Rank-batched lockstep replay of the SISC execution model.

:func:`run_sisc_batched` produces results *bit-identical* to
:func:`repro.models.sisc.run_sisc` on the fault-free oracle-detection
path, but replaces the per-rank DES processes with one vectorised
"round" per global iteration: SISC is globally synchronous, so every
rank starts iteration ``k`` at the same barrier-open time ``T_k`` and
the whole round — sweep timings, halo arrivals, barrier release, idle
spans, convergence votes — is a closed-form function of the per-rank
sweep durations.  One compiled call per round, ``lockstep_round`` in
``repro/problems/_sweeps.c``, whatever the rank count, replaces
thousands of event dispatches, which is what lets the simulator reach
10k ranks (``docs/performance.md``, "Scaling to 1024 ranks").

Equivalence is enforced, not assumed:

* every problem's :meth:`~repro.problems.base.Problem.
  batched_chain_sweeper` is a :class:`~repro.problems.base.
  ChainSweeper` that runs the problem's own ``iterate`` over the whole
  chain ``[0, N)``: bit-identical to the per-rank calls because
  ``iterate`` is Jacobi in space (differential tests pin fingerprints);
* event ordering — including ``(time, seq)`` ties — is replayed from
  the round's push tree (mids pushed at the round's start, each end by
  its mid, each delivery by its sender's end, each wait-resume by its
  delivery): every order the round needs is a sort on times, then on
  the dispatch positions of the parents, so record lists, trigger
  ranks and the dispatched-event count match the reference exactly —
  for a complete round and for the one a stop or the horizon cuts;
* anything the replay cannot express (token-ring detection) or run
  (no compiled round) falls back to the reference implementation —
  *observably*: the reason is logged and exported as the
  ``lockstep.fallback_reason`` metric (see :func:`run_sisc_batched`).

The replay runs no invariant monitor: a monitored SISC run is
:func:`repro.models.sisc.run_sisc`'s, the engine whose watchdogs can
roll a rank back.

Every problem batches, the Brusselator's adaptive skip included: the
:class:`~repro.problems.base.ChainSweeper`'s per-rank reductions are
:class:`repro.numerics.ragged.ChainSegments`'.

The engine is memory-lean by construction: no per-rank GridNode /
Process / generator objects — per-rank state is a handful of numpy
arrays plus the sweeper's one whole-chain state.
"""

from __future__ import annotations

import copy
import logging
import math
from typing import Any

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

    return run_sisc(problem, platform, config, host_order=host_order)


def run_sisc_batched(
    problem: Problem,
    platform: Platform,
    config: SolverConfig | None = None,
    *,
    host_order: list[int] | None = None,
    metrics: Any = None,
) -> RunResult:
    """SISC via lockstep round replay; bit-identical to ``run_sisc``.

    Falls back to the reference event-driven implementation whenever
    the replay's preconditions do not hold (non-oracle detection, no
    compiled round).  Every fallback is observable: the reason is logged
    on the ``repro.models.lockstep`` logger and counted on ``metrics``
    (a :class:`repro.obs.MetricsRegistry`, optional) as
    ``lockstep.fallback_reason{reason=..., problem=...}``.  The replay
    runs no invariant monitor; a monitored SISC run is ``run_sisc``'s.
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
    from repro.problems import _compiled

    reason = None
    if config.detection != "oracle":
        reason = f"detection:{config.detection}"
    elif _compiled.lockstep_round is None:  # no cc, or a failed probe
        reason = "no_compiled_round"
    if reason is not None:
        return _fall_back(reason, metrics, problem, platform, config, host_order)
    sweeper = problem.batched_chain_sweeper(blocks)
    return _LockstepEngine(
        problem, platform, config, host_order, partition, blocks, sweeper
    ).run(_compiled.lockstep_round)


#: Rows of the engine's ``(8, n)`` state and of the round's ``(6, n)``
#: output (see ``lockstep_round`` in ``repro/problems/_sweeps.c``).
POS0, STREAK, BUSY, IDLE, ITERS, RESIDUAL, LAST = 0, 1, 2, 3, 4, 5, 6
T_MID, T_SE, ARR, ORDER_END, ORDER_ARR = 0, 1, 2, 4, 5


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
        # Mutable run state: the rows of one array (see ``POS0``) ----
        self.T = 0.0
        self.state = np.zeros((8, self.n))
        self.state[POS0] = np.arange(self.n)  # round-start scheduling order
        self.state[RESIDUAL] = math.inf
        self.state[LAST:] = -math.inf  # FIFO r -> r-1, r -> r+1
        self.streak, self.busy, self.idle_acc = self.state[STREAK:ITERS]
        self.iter_counts, self.residual_at = self.state[ITERS:LAST]
        self._out = np.empty((6, self.n))
        self.n_dispatched = self.n  # the n spawn steps at t = 0
        self.now = 0.0
        self.converged = False
        self.convergence_time: float | None = None
        self.aborted_reason: str | None = None
        self._msg_counts = {"halo_from_right": 0, "halo_from_left": 0}
        self._msg_bytes = {"halo_from_right": 0.0, "halo_from_left": 0.0}

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
    # Main loop
    # ------------------------------------------------------------------
    def run(self, kernel: Any) -> RunResult:
        """Replay the run round by round."""
        n, cfg = self.n, self.config
        horizon = None if cfg.max_time is None else float(cfg.max_time)
        run = (
            OVERLAP_SPLIT, _FIFO_EPSILON, cfg.min_sweep_duration, cfg.tolerance,
            cfg.persistence, cfg.max_iterations,
            math.nan if horizon is None else horizon,
        )
        state, platform, out = self.state, self._platform, self._out
        lockstep_round = kernel.lockstep_round
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
            booked = lockstep_round(state, platform, d, residual, out, T, k, *run)
            if booked is None:
                return self._finish(k, T, residual, work, horizon)
            T_next, events = booked
            self.n_dispatched += events
            if self.tracer.enabled:
                done = out[ORDER_END].astype(np.intp)
                self._record(k, T, residual, work, done, n, T_next)
            self.T = self.now = T_next
            k += 1

    # ------------------------------------------------------------------
    # Tracing, and booking the round a run ends in
    # ------------------------------------------------------------------
    def _record(
        self,
        k: int,
        T: float,
        residual: np.ndarray,
        work: np.ndarray,
        done: np.ndarray,
        n_senders: int,
        T_next: float | None = None,
    ) -> None:
        """Trace round ``k`` from the round's arrays in ``_out``: the
        ``done`` ends, in dispatch order, the halos the first
        ``n_senders`` of them sent and, given the barrier's ``T_next``,
        the idle spans up to it."""
        out, n, tr_ = self._out, self.n, self.tracer
        t_se = out[T_SE]
        arr_l, arr_r = out[ARR:ORDER_END]
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
        if T_next is None:
            return
        # The releaser records its span first, then the waiters as they
        # resume, in arrival order.
        for x in np.roll(out[ORDER_ARR], 1).astype(np.intp).tolist():
            if T_next > t_se[x]:
                tr_.idles.append(
                    IdleSpan(rank=x, t0=float(t_se[x]), t1=T_next, reason="sisc-sync")
                )

    def _finish(
        self,
        k: int,
        T: float,
        residual: np.ndarray,
        work: np.ndarray,
        horizon: float | None,
    ) -> RunResult:
        """End the run in round ``k``, which the round left unbooked in
        ``_out``: book the ranks whose end dispatched before the stop or
        the horizon, their sends and the events dispatched by then."""
        n, cfg, out = self.n, self.config, self._out
        t_mid, t_se, arr = out[T_MID], out[T_SE], out[ARR:ORDER_END]
        order_end = out[ORDER_END].astype(np.intp)
        stop, trigger, abort, _ = _stop_scan(
            k, self.streak, residual, order_end,
            cfg.tolerance, cfg.persistence, cfg.max_iterations,
        )
        if stop is not None and (horizon is None or t_se[order_end[stop]] <= horizon):
            # The supervisor (or the abort) stops the sim inside rank z's
            # end, the last event to dispatch: the ends before it also
            # sent their halos (z breaks before sending), and everything
            # else in the queue is abandoned.
            z = int(order_end[stop])
            now = float(t_se[z])
            done, senders = order_end[: stop + 1], order_end[:stop]
            if stop == trigger:
                self.converged = True
                self.convergence_time = now
            if stop == abort:
                self.aborted_reason = (
                    f"rank {z} exceeded max_iterations={cfg.max_iterations}"
                )
            # At z's end instant a delivery dispatches before the end iff
            # its parent, the sender's end, came before z's mid; a resume
            # never does (its parent, a delivery then, follows z's mid).
            by = np.less
            landed = (arr < now) | ((arr == now) & (t_se < t_mid[z]))
        else:
            # ``max_time`` is a pure time cutoff: events at ``t <=
            # max_time`` dispatch, the rest stay queued, the clock stops
            # on the horizon and the barrier never opens.
            now = horizon
            done = senders = order_end[t_se[order_end] <= horizon]
            by = np.less_equal
            landed = arr <= now
        # NB: the tracer accumulates ``busy + t1 - t0`` left to right.
        self.busy[done] = (self.busy[done] + t_se[done]) - T
        self.iter_counts[done] += 1
        self.residual_at[done] = residual[done]
        sent = np.zeros(n, dtype=bool)
        sent[senders] = True
        # Each of the k booked rounds sent n-1 halos either way.  Every
        # send adds the same ``nbytes``, so the run's sends are one
        # counted add on each of the three byte accumulators.
        counts = {
            "halo_from_right": k * (n - 1) + int(sent[1:].sum()),
            "halo_from_left": k * (n - 1) + int(sent[:-1].sum()),
        }
        for kind, count in counts.items():
            self._msg_counts[kind] += count
            self._msg_bytes[kind] = _repeat_add(
                self._msg_bytes[kind], self.nbytes, count
            )
        net = self.platform.network
        total = sum(counts.values())
        net.messages_sent += total
        net.bytes_sent = _repeat_add(net.bytes_sent, self.nbytes, total)
        if self.tracer.enabled:
            self._record(k, T, residual, work, done, len(senders))
        # The mids by then (a mid precedes any end at its instant), the
        # done ends, the senders' deliveries that landed (the -inf slots
        # are the channels that do not exist) and, as the round counts
        # them, the wait-resumes of senders on late halos from senders.
        ranks = np.arange(n)
        left, right = np.maximum(ranks - 1, 0), np.minimum(ranks + 1, n - 1)
        in_l, in_r = arr[1, ranks - 1], arr[0, (ranks + 1) % n]
        late_l = (in_l > t_se) | ((in_l == t_se) & (t_se[left] >= t_mid))
        late_r = (in_r > t_se) | ((in_r == t_se) & (t_se[right] >= t_mid))
        late_l &= sent & sent[left] & by(in_l, now)
        late_r &= sent & sent[right] & by(in_r, now)
        events = (
            int((t_mid <= now).sum()) + len(done)
            + int((landed & sent & (arr > -math.inf)).sum())
            + int(late_l.sum() + late_r.sum() - (late_l & late_r & (in_l == in_r)).sum())
        )
        self.now = now
        self.n_dispatched += events
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
