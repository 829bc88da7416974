"""Chain machinery and the one rank loop of every execution model.

One *rank* per host, organised in a logical linear chain (the paper maps
the spatial components over linearly organised processors).  Each rank
runs one simulated process, :class:`_RankLoop` (Algorithm 1):

1. perform one relaxation sweep on its block (the numerics run for real;
   the counted work is converted to virtual time by the host);
2. part-way through the sweep, asynchronously send the updated *left*
   boundary component to the left neighbour (Algorithm 1 sends it "if
   j = StartC + 2", i.e. as soon as it is updated);
3. at the end of the sweep, send the *right* boundary component;
4. repeat until the convergence monitor raises the stop flag.

The four models of the paper's Figures 1–4 differ only in when a rank
waits: AIAC never does; SIAC waits for both neighbours' data of the
sweep it just finished; SISC sends both boundaries after the sweep,
waits for that data, then passes a global barrier.  AIAC+LB adds a
load-balancing trial before each sweep (:mod:`repro.core.lb`).

Boundary messages carry the component's **global position** and the
sender's residual/estimate (Algorithm 4); receive handlers drop data
whose position no longer matches the expected halo index — exactly the
paper's Algorithm 7 guard against messages crossing a repartition.

With ``config.exclusive_sends`` (default) an AIAC boundary send is
suppressed while the previous one on that channel is still in flight —
the mutual exclusion that "generates less communications" (Figure 4);
``False`` gives the eager AIAC of Figure 3.  The synchronous models
always send.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import partial
from heapq import heappush
from math import inf
from typing import Any, Callable

import numpy as np

from repro.core.config import HEADER_BYTES, OVERLAP_SPLIT, SolverConfig
from repro.core.convergence import SupervisorMonitor, TokenRingDetector
from repro.core.estimators import LoadEstimator, ResidualEstimator
from repro.core.partition import PartitionRegistry
from repro.core.records import RunResult
from repro.des import Signal, Simulator
from repro.des.process import Process, invalid_hold
from repro.grid.platform import Platform
from repro.problems.base import Problem
from repro.integrity import checkpoint_crc
from repro.runtime.message import Message
from repro.runtime.node import GridNode
from repro.runtime.tracer import Tracer

__all__ = ["ChainRun", "RankContext", "run_aiac", "build_chain", "run_chain"]


def _copy_halo(halo: Any) -> Any:
    """A private copy of a halo: arrays directly, anything else deeply."""
    return halo.copy() if type(halo) is np.ndarray else copy.deepcopy(halo)


@dataclass(slots=True)
class RankContext:
    """Everything one rank of the chain knows and mutates.

    Shared (PM2-style) between the rank's main process and its receive
    handlers, which is safe because DES handlers are atomic.
    """

    rank: int
    node: GridNode
    state: Any
    lo: int
    hi: int
    halo_left: Any
    halo_right: Any
    #: Iteration number stamped on the freshest halo from each side
    #: (used by the synchronous models to wait for the right data).
    halo_iter_left: int = -1
    halo_iter_right: int = -1
    #: Fired whenever a halo arrives (synchronous models wait on it).
    halo_signal: Signal = field(default_factory=lambda: Signal("halo"))
    #: Freshest known neighbour load estimates (piggybacked).
    neighbor_estimate: dict[str, float] = field(
        default_factory=lambda: {"left": float("inf"), "right": float("inf")}
    )
    estimator: LoadEstimator = field(default_factory=ResidualEstimator)
    iteration: int = 0
    residual: float = float("inf")
    #: Residual of the previous sweep (piggybacked on mid-sweep sends,
    #: as in Algorithm 4's "residual of previous iteration").
    prev_residual: float = float("inf")
    #: Count of halo payloads dropped by the position guard.
    stale_halos_dropped: int = 0
    #: Last durable snapshot of the rank's block (fault injection only;
    #: None on the lossless fast path).
    checkpoint: Any = None
    #: The snapshot superseded by the latest one.  Kept so that a
    #: checkpoint whose CRC verification fails (poisoned at rest) can
    #: fall back to the last *verified* snapshot instead of
    #: resurrecting bad state.
    checkpoint_prev: Any = None
    #: ``node.crash_count`` value the current in-memory state descends
    #: from; a mismatch means a crash wiped the state and the last
    #: checkpoint must be restored.
    restored_epoch: int = 0

    @property
    def n_local(self) -> int:
        return self.hi - self.lo


class ChainRun:
    """A configured chain of ranks over a platform, ready to run."""

    def __init__(
        self,
        problem: Problem,
        platform: Platform,
        config: SolverConfig,
        *,
        model: str,
        host_order: list[int] | None = None,
    ) -> None:
        self.problem = problem
        # Each run gets a private copy of the platform: network FIFO
        # state and lazily-generated load traces are mutable, and runs
        # compared against each other must see identical conditions (the
        # copy replays the same seeded traces from t = 0).
        self.platform = copy.deepcopy(platform)
        platform = self.platform
        # The deep copy inherits whatever FIFO clamps / traffic counters
        # the caller's platform accumulated; start this run from a clean
        # network regardless.
        platform.network.reset()
        self.config = config
        self.model = model
        n_ranks = len(platform.hosts)
        if host_order is None:
            host_order = list(range(n_ranks))
        if sorted(host_order) != list(range(n_ranks)):
            raise ValueError(
                f"host_order must be a permutation of 0..{n_ranks - 1}, "
                f"got {host_order!r}"
            )
        self.host_order = host_order
        self.sim = Simulator()
        self.tracer = Tracer(enabled=config.trace)
        self.partition = PartitionRegistry(problem.n_components, n_ranks)
        #: Overridden by the load-balanced driver: True while ``rank``
        #: has unfinished migration-protocol state (offer out, accepted
        #: incoming, data in flight) — detection must not conclude then.
        self.rank_busy: Callable[[int], bool] = lambda rank: False
        in_flight = lambda: self.partition.n_in_flight > 0  # noqa: E731
        self.detector: TokenRingDetector | None = None
        if config.detection == "token_ring":
            # The oracle keeps *recording* (so the protocol's detection
            # overhead is measurable) but no longer stops the run.
            self.monitor = SupervisorMonitor(
                n_ranks,
                config.tolerance,
                config.persistence,
                lambda: None,
                hold_while=in_flight,
            )
            self.detector = TokenRingDetector(
                n_ranks, config.tolerance, config.persistence
            )
            self.detection_stop_time: float | None = None
        else:
            self.monitor = SupervisorMonitor(
                n_ranks,
                config.tolerance,
                config.persistence,
                self._on_converged,
                hold_while=in_flight,
            )
            self.detection_stop_time = None
        self.ranks: list[RankContext] = []
        self.aborted_reason: str | None = None
        #: Fault injector attached via :meth:`attach_injector`; None on
        #: the lossless fast path.
        self.injector: Any = None
        #: Invariant/watchdog monitor attached via
        #: :meth:`repro.guard.InvariantMonitor.attach`; None on the
        #: unguarded fast path (a single pointer test per sweep).
        self.guard: Any = None
        #: Load-balancing runtime (:class:`repro.core.lb._BalancedRun`)
        #: when this run is balanced; None otherwise.  Introspected by
        #: the guard's stall watchdog to name suspect channels.
        self.lb_runtime: Any = None
        #: Sweeps between periodic checkpoints (0 = checkpointing off).
        self.checkpoint_every = 0
        for rank in range(n_ranks):
            host = platform.hosts[host_order[rank]]
            node = GridNode(self.sim, rank, host, platform.network, self.tracer)
            lo, hi = self.partition.block(rank)
            ctx = RankContext(
                rank=rank,
                node=node,
                state=problem.initial_state(lo, hi),
                lo=lo,
                hi=hi,
                halo_left=problem.initial_halo(lo - 1),
                halo_right=problem.initial_halo(hi),
            )
            self.ranks.append(ctx)
        # The chain is fixed for the run: who sits on each side of a rank
        # (``rank - 1`` and ``rank + 1``, none past either end) and what a
        # halo message weighs are resolved once, here.
        self._neighbors: list[dict[str, RankContext | None]] = [
            {
                "left": self.ranks[rank - 1] if rank > 0 else None,
                "right": self.ranks[rank + 1] if rank < n_ranks - 1 else None,
            }
            for rank in range(n_ranks)
        ]
        self._halo_bytes = problem.halo_nbytes() + HEADER_BYTES
        for ctx in self.ranks:
            self._register_halo_handlers(ctx)
            if self.detector is not None:
                ctx.node.register_handler(
                    "detect_token",
                    lambda msg, c=ctx: self._on_detect_token(c, msg),
                )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return len(self.ranks)

    def neighbor(self, rank: int, side: str) -> RankContext | None:
        return self._neighbors[rank][side]

    def _on_converged(self) -> None:
        for ctx in self.ranks:
            ctx.node.stop_requested = True
        self.sim.stop()

    def abort(self, reason: str) -> None:
        """Abort the run (budget exhausted, solver failure)."""
        if self.aborted_reason is None:
            self.aborted_reason = reason
        for ctx in self.ranks:
            ctx.node.stop_requested = True
        self.sim.stop()

    # ------------------------------------------------------------------
    # Fault injection: checkpoints and crash-restart recovery
    # ------------------------------------------------------------------
    def attach_injector(self, injector: Any) -> None:
        """Switch this run onto the resilient transport.

        Called by :meth:`repro.faults.injector.FaultInjector.install`:
        wires the injector into every node and seeds an initial
        checkpoint per rank so a crash at any time has a restore point.
        """
        if self.injector is not None:
            raise RuntimeError("an injector is already attached to this run")
        self.injector = injector
        self.checkpoint_every = injector.resilience.checkpoint_every
        for ctx in self.ranks:
            ctx.node.injector = injector
            self.checkpoint(ctx)

    def checkpoint(self, ctx: RankContext) -> None:
        """Snapshot everything a crashed rank needs to rejoin.

        Taken periodically (every ``checkpoint_every`` sweeps) and at
        *every* migration event, so the snapshot's block bounds always
        equal the live ones — a restore never rolls back the partition
        bookkeeping, only the numerical state.

        When the attached injector's detection layer is armed the
        snapshot is CRC-stamped (:func:`repro.integrity.checkpoint_crc`)
        and the superseded snapshot is retained as the fall-back restore
        point — rollback must land on *verified* state.
        """
        snapshot = {
            "iteration": ctx.iteration,
            "state": self.problem.copy_state(ctx.state),
            "lo": ctx.lo,
            "hi": ctx.hi,
            "halo_left": _copy_halo(ctx.halo_left),
            "halo_right": _copy_halo(ctx.halo_right),
            "halo_iter_left": ctx.halo_iter_left,
            "halo_iter_right": ctx.halo_iter_right,
            "estimator": copy.copy(ctx.estimator),
        }
        if self.injector is not None and self.injector.detection_active:
            snapshot["crc"] = self._checkpoint_crc(snapshot)
            ctx.checkpoint_prev = ctx.checkpoint
        ctx.checkpoint = snapshot

    def _checkpoint_crc(self, snapshot: dict) -> int:
        """CRC of a snapshot, state values included via the problem view."""
        return checkpoint_crc(
            snapshot, self.problem.state_array(snapshot["state"])
        )

    def _verified_snapshot(self, ctx: RankContext) -> dict:
        """The freshest checkpoint that passes CRC verification.

        Unstamped snapshots (detection off, or taken by the divergence
        guard on an unfaulted run) are trusted as-is.  A stamped
        snapshot that fails its CRC was poisoned at rest: it is
        discarded — counted as a detected corruption — in favour of the
        retained previous verified snapshot.  With no verified snapshot
        left, the block is *re-initialized* from the problem's initial
        data: a fixed-point iteration converges from any start, so a
        cold block restart is sound recovery — corrupted state is never
        silently restored.
        """
        injector = self.injector
        snap = ctx.checkpoint
        if (
            injector is None
            or not injector.detection_active
            or snap is None
            or snap.get("crc") is None
            or self._checkpoint_crc(snap) == snap["crc"]
        ):
            return snap
        injector.note_corruption_detected(ctx.rank, "checkpoint CRC mismatch")
        prev = ctx.checkpoint_prev
        if (
            prev is not None
            and (prev["lo"], prev["hi"]) == (snap["lo"], snap["hi"])
            and (
                prev.get("crc") is None
                or self._checkpoint_crc(prev) == prev["crc"]
            )
        ):
            ctx.checkpoint = prev
            ctx.checkpoint_prev = None
            injector.note_corruption_recovered(
                ctx.rank, "fell back to last verified checkpoint"
            )
            return prev
        fresh = dict(snap)
        fresh["iteration"] = 0
        fresh["state"] = self.problem.initial_state(snap["lo"], snap["hi"])
        fresh["halo_left"] = self.problem.initial_halo(snap["lo"] - 1)
        fresh["halo_right"] = self.problem.initial_halo(snap["hi"])
        fresh["halo_iter_left"] = -1
        fresh["halo_iter_right"] = -1
        fresh["crc"] = self._checkpoint_crc(fresh)  # the stale stamp is not read
        ctx.checkpoint = fresh
        ctx.checkpoint_prev = None
        injector.note_corruption_recovered(
            ctx.rank, "re-initialized block from problem initial data"
        )
        return fresh

    def restore_checkpoint(self, ctx: RankContext) -> None:
        """Rejoin after a crash: reload the last *verified* checkpoint."""
        snap = ctx.checkpoint
        if snap is None:
            raise RuntimeError(
                f"rank {ctx.rank} crashed but has no checkpoint; "
                "was the injector attached via attach_injector()?"
            )
        snap = self._verified_snapshot(ctx)
        if (ctx.lo, ctx.hi) != (snap["lo"], snap["hi"]):
            # Checkpoints are refreshed at every migration, so the live
            # and snapshotted bounds can never diverge; a mismatch means
            # the recovery invariant broke.
            raise RuntimeError(
                f"rank {ctx.rank}: checkpoint block "
                f"[{snap['lo']}, {snap['hi']}) does not match live block "
                f"[{ctx.lo}, {ctx.hi})"
            )
        ctx.restored_epoch = ctx.node.crash_count
        ctx.iteration = snap["iteration"]
        ctx.state = self.problem.copy_state(snap["state"])
        ctx.halo_left = _copy_halo(snap["halo_left"])
        ctx.halo_right = _copy_halo(snap["halo_right"])
        ctx.halo_iter_left = snap["halo_iter_left"]
        ctx.halo_iter_right = snap["halo_iter_right"]
        ctx.estimator = copy.copy(snap["estimator"])
        ctx.residual = float("inf")
        ctx.prev_residual = float("inf")
        # The rank is about to re-iterate from older state: its previous
        # convergence votes are void.
        self.monitor.reset_rank(ctx.rank)
        if self.detector is not None:
            self.detector.reset_rank(ctx.rank)

    def corrupt_block(self, fault: Any, rng: Any) -> str | None:
        """Apply a :class:`~repro.faults.models.StateCorruption` event.

        Called by the injector's compiled DES event.  ``target="state"``
        poisons the live block values in place (resident-memory upset);
        ``target="checkpoint"`` poisons the saved snapshot *without*
        refreshing its CRC, so a later restore sees the mismatch.
        Returns a damage description, or None when there is nothing to
        poison (dead host; no checkpoint yet).
        """
        from repro.integrity import corrupt_array_inplace

        ctx = self.ranks[fault.rank]
        if fault.target == "checkpoint":
            snap = ctx.checkpoint
            if snap is None:
                return None
            target = self.problem.state_array(snap["state"])
        else:
            if not ctx.node.alive:
                return None
            target = self.problem.state_array(ctx.state)
        return corrupt_array_inplace(target, fault.mode, fault.amplitude, rng)

    def _register_halo_handlers(self, ctx: RankContext) -> None:
        # Halo payloads are idempotent state transfer: under the
        # resilient transport a reordered older transmission must lose to
        # a fresher one already delivered (AIAC newest-wins semantics).
        # The flag is inert on the lossless fast path.
        for side in ("left", "right"):
            ctx.node.register_handler(
                f"halo_from_{side}",
                partial(self._on_halo, ctx, side),
                newest_wins=True,
            )

    def _on_halo(self, ctx: RankContext, side: str, msg: Message) -> None:
        """Receive handler (Algorithms 2/3/7): position-checked halo update."""
        payload = msg.payload
        expected = ctx.lo - 1 if side == "left" else ctx.hi
        # The sender's estimate is taken even when the data is stale
        # (Algorithm 7 receives the residual unconditionally).
        ctx.neighbor_estimate[side] = payload["estimate"]
        if payload["position"] != expected:
            ctx.stale_halos_dropped += 1
            return
        if side == "left":
            ctx.halo_left = payload["data"]
            ctx.halo_iter_left = payload["iteration"]
        else:
            ctx.halo_right = payload["data"]
            ctx.halo_iter_right = payload["iteration"]
        # Only a waiting SIAC / SISC rank needs the wake-up; an AIAC rank
        # never waits, so nothing is triggered for it.
        signal = ctx.halo_signal
        if signal._waiters:
            signal.trigger(self.sim)

    # ------------------------------------------------------------------
    # Halo recovery of the synchronous models (fault injection only)
    # ------------------------------------------------------------------
    def _arm_halo_recovery(self) -> None:
        """Wire the two recoveries a synchronous model needs under faults.

        SIAC and SISC cannot make progress without every halo of the
        current iteration — unlike AIAC, whose next sweep supersedes a
        lost message anyway.  A halo transfer that exhausts its
        retransmission budget is sent again (:meth:`_resend_halo`), and a
        rank restored from its checkpoint pulls both neighbours' halos
        (:meth:`_request_halos`).
        """
        for ctx in self.ranks:
            for side in ("left", "right"):
                ctx.node.register_failure_handler(
                    f"halo_from_{side}", partial(self._resend_halo, ctx)
                )
            ctx.node.register_handler(
                "halo_request", partial(self._on_halo_request, ctx)
            )

    def _resend_halo(
        self, ctx: RankContext, message: Message, delivered: bool
    ) -> None:
        """Failure handler: send an undelivered halo again.

        A payload superseded by a newer send on the same channel is *not*
        re-sent: delivering old state under a fresh sequence number would
        defeat the newest-wins stale rejection.
        """
        node = ctx.node
        if delivered or node.stop_requested or not node.alive:
            return
        if node.is_latest_send(message):
            node.send(
                self.ranks[message.dst_rank].node,
                message.kind,
                message.payload,
                message.size_bytes,
            )

    def _request_halos(self, ctx: RankContext) -> None:
        """Ask both neighbours to re-send their boundary facing ``ctx``.

        Called right after a crash-restore: the restored halos may
        predate deliveries the transport already acknowledged, and the
        neighbours, blocked waiting for this rank, will not send again on
        their own.  Their handlers answer at once (:meth:`_on_halo_request`
        runs atomically while their main loops are blocked, like a PM2
        handler thread).  The re-request doubles as the refetch half of
        reject-and-refetch when a corrupted halo was discarded by the
        receive-side checksum.
        """
        for neighbor in self._neighbors[ctx.rank].values():
            if neighbor is not None:
                ctx.node.send(neighbor.node, "halo_request", None, HEADER_BYTES)

    def _on_halo_request(self, ctx: RankContext, msg: Message) -> None:
        side = "right" if msg.src_rank > ctx.rank else "left"
        self.send_halo(ctx, side, estimate=ctx.estimator.value(), exclusive=False)

    # ------------------------------------------------------------------
    # Decentralized detection (token ring; SolverConfig.detection)
    # ------------------------------------------------------------------
    def _send_token(self, ctx: RankContext, token: dict, direction: int) -> None:
        neighbor = self.neighbor(ctx.rank, "right" if direction > 0 else "left")
        assert neighbor is not None, "token routed off the chain"
        ctx.node.send(neighbor.node, "detect_token", token, HEADER_BYTES)

    def _on_detect_token(self, ctx: RankContext, msg: Message) -> None:
        assert self.detector is not None
        if self.rank_busy(ctx.rank):
            # Unfinished migration protocol: this rank cannot vouch for
            # its residual yet — treat it as unconverged (cancels the
            # round).
            self.detector.reset_rank(ctx.rank)
        forward, direction = self.detector.on_token(ctx.rank, msg.payload)
        if self.detector.converged:
            ctx.node.stop_requested = True
            self.detection_stop_time = self.sim.now
        if forward is not None:
            self._send_token(ctx, forward, direction)

    def _detection_after_sweep(self, ctx: RankContext) -> None:
        assert self.detector is not None
        self.detector.report(ctx.rank, ctx.residual)
        if self.rank_busy(ctx.rank):
            self.detector.reset_rank(ctx.rank)
            return
        if self.detector.converged and self.detector.n_ranks == 1:
            ctx.node.stop_requested = True
            self.detection_stop_time = self.sim.now
            return
        token = self.detector.should_launch(ctx.rank)
        if token is not None:
            self._send_token(ctx, token, +1)
        elif self.detector.converged and ctx.rank == 0:
            ctx.node.stop_requested = True
            self.detection_stop_time = self.sim.now

    # ------------------------------------------------------------------
    # Sending boundaries
    # ------------------------------------------------------------------
    def send_halo(
        self,
        ctx: RankContext,
        side: str,
        *,
        estimate: float,
        exclusive: bool,
        iteration: int | None = None,
    ) -> bool:
        """Send the boundary component on ``side`` to that neighbour.

        ``iteration`` stamps the payload (defaults to the rank's current
        sweep count); mid-sweep sends stamp the sweep in progress so the
        synchronous models can wait for exactly their neighbours'
        previous-iteration data.
        """
        neighbor = self._neighbors[ctx.rank][side]
        if neighbor is None:
            return False
        if side == "left":
            kind, position = "halo_from_right", ctx.lo
        else:
            kind, position = "halo_from_left", ctx.hi - 1
        payload = {
            "data": self.problem.halo_out(ctx.state, side),
            "position": position,
            "estimate": estimate,
            "iteration": ctx.iteration if iteration is None else iteration,
        }
        return ctx.node.send(
            neighbor.node, kind, payload, self._halo_bytes, exclusive=exclusive
        )

    def _halo_is_stale(self, ctx: RankContext) -> bool:
        """Convergence-detection freshness gate (fault injection only).

        A residual computed against a badly stale halo is meaningless
        for global convergence: a drop-starved rank quiesces against
        its frozen boundary and its local residual collapses even
        though the global solution is wrong.  While either halo input
        lags the owning neighbour's progress by more than the
        configured staleness bound, the sweep is *not reported* to the
        oracle — it carries no evidence either way, so the rank's
        persistence streak pauses rather than resetting (resetting
        would defer detection almost indefinitely under sustained
        loss).  The oracle is omniscient by design, so peeking at the
        neighbour's true iteration count is fair game here.  The
        fault-free fast path never calls this.
        """
        bound = self.injector.resilience.max_halo_staleness
        neighbors = self._neighbors[ctx.rank]
        left, right = neighbors["left"], neighbors["right"]
        return (
            left is not None and left.iteration - ctx.halo_iter_left > bound
        ) or (
            right is not None and right.iteration - ctx.halo_iter_right > bound
        )

    # ------------------------------------------------------------------
    # Running / result assembly
    # ------------------------------------------------------------------
    def run(self) -> None:
        self.sim.run(until=self.config.max_time)

    def result(self) -> RunResult:
        blocks = sorted(self.ranks, key=lambda c: c.lo)
        if self.detector is not None:
            converged = self.detector.converged
            time = (
                self.detection_stop_time
                if self.detection_stop_time is not None
                else self.sim.now
            )
        else:
            converged = self.monitor.converged
            time = (
                self.monitor.convergence_time
                if self.monitor.convergence_time is not None
                else self.sim.now
            )
        return RunResult(
            model=self.model,
            converged=converged,
            time=time,
            iterations=[c.iteration for c in self.ranks],
            # busy_time_of reads the tracer's always-on aggregates, so
            # untraced sweep runs now report real per-rank work too.
            work=[self.tracer.busy_time_of(c.rank) for c in self.ranks],
            solution_blocks=[self.problem.solution(c.state) for c in blocks],
            final_partition=[(c.lo, c.hi) for c in self.ranks],
            residuals_at_stop=[c.residual for c in self.ranks],
            tracer=self.tracer,
            n_migrations=self.tracer.n_migrations(),
            components_migrated=self.tracer.components_migrated(),
            meta={
                "aborted_reason": self.aborted_reason,
                "stale_halos_dropped": sum(
                    c.stale_halos_dropped for c in self.ranks
                ),
                # With token-ring detection the oracle keeps recording,
                # so the protocol's overhead is (time - oracle time).
                "oracle_detection_time": self.monitor.convergence_time,
                "detection_messages": (
                    self.detector.messages_used if self.detector else 0
                ),
                # Network totals (this run's private platform copy).
                "network_bytes": self.platform.network.bytes_sent,
                "network_messages": self.platform.network.messages_sent,
                # Per-rank transport counters (all zeros on the lossless
                # fast path; populated under the resilient transport).
                "transport_per_rank": [
                    {"rank": c.rank, **c.node.transport_counters()}
                    for c in self.ranks
                ],
            },
        )


def build_chain(
    problem: Problem,
    platform: Platform,
    config: SolverConfig | None = None,
    *,
    model: str = "aiac",
    host_order: list[int] | None = None,
) -> ChainRun:
    """Construct a chain run without starting it (:func:`run_chain` runs it)."""
    return ChainRun(
        problem,
        platform,
        config if config is not None else SolverConfig(),
        model=model,
        host_order=host_order,
    )


class _IterationBarrier:
    """SISC's global barrier: iteration ``k`` is passed once every rank
    has completed it at least once.

    It keeps the *highest* iteration each rank arrived with, which a
    rank rolled back to its checkpoint cannot lower when it re-executes
    and arrives again (a counting barrier would lose count for good).
    ``level``, the lowest of them, is kept in O(1) amortised per
    arrival.  A fault-free run wakes the waiters once per level, when
    the last rank arrives (the event stream the lockstep replay
    reproduces); under an injector every arrival wakes them.
    """

    def __init__(self, n_ranks: int, *, every_arrival: bool) -> None:
        self.done = [0] * n_ranks
        self.level = 0
        self._at_level = n_ranks
        self.every_arrival = every_arrival
        self.signal = Signal("sisc-barrier")

    def arrive(self, rank: int, iteration: int, sim: Simulator) -> None:
        done = self.done
        previous = done[rank]
        rose = False
        if iteration > previous:
            done[rank] = iteration
            if previous == self.level:
                self._at_level -= 1
                if not self._at_level:
                    self.level = level = min(done)
                    self._at_level = done.count(level)
                    rose = True
        if rose or self.every_arrival:
            self.signal.trigger(sim)

    def passed(self, iteration: int) -> bool:
        return self.level >= iteration


class _RankLoop(Process):
    """One rank's main loop, the same for every execution model.

    Algorithm 1 as four event callbacks, each pushed into the event
    queue exactly where a generator would yield its ``Hold`` or
    ``Wait`` (so the event stream is the generator's, seq for seq):

    * :meth:`_start` — the loop's top: the crash-recovery prologue, the
      ``trial`` (AIAC+LB), the sweep's numerics, and its first hold,
      which ends at the overlap point;
    * :meth:`_mid` — the mid-sweep left send, then the second hold;
    * :meth:`_end` — the sweep's accounting, the boundary sends, the
      waits, then :meth:`_start` again in the same event;
    * :meth:`_await_halos` / :meth:`_await_barrier` — a wait's
      continuation, run when its signal fires.

    ``waits`` (SIAC, SISC): after each sweep, block until both
    neighbours' halos of that sweep arrived.  ``barrier`` (SISC only):
    send both boundaries after the sweep instead of the left one during
    it, then pass the global barrier.  The crash-recovery prologue is a
    no-op on the lossless fast path (``alive`` is always True and
    ``crash_count == restored_epoch == 0`` without a fault injector): a
    crashed rank parks on its restart signal, then rejoins from its
    last checkpoint.  A crash during a sweep voids it: no iteration, no
    estimator update, no convergence vote.
    """

    __slots__ = (
        "run", "ctx", "node", "trial", "waits", "barrier", "exclusive",
        "_heap", "_seqs", "_mid_phase", "_end_phase",
        # The sweep in progress.
        "_result", "_t0", "_duration", "_first", "_pre_estimate", "_epoch",
        # The wait in progress.
        "_wait_start", "_waited_for", "_interrupted",
    )  # fmt: skip

    def __init__(
        self,
        run: ChainRun,
        ctx: RankContext,
        waits: bool,
        barrier: _IterationBarrier | None,
        trial: Callable[[RankContext], None] | None,
    ) -> None:
        super().__init__(run.sim, f"{run.model}-rank-{ctx.rank}", None)
        self.run, self.ctx, self.node = run, ctx, ctx.node
        self.trial, self.waits, self.barrier = trial, waits, barrier
        self.exclusive = run.config.exclusive_sends and not waits
        queue = run.sim._queue
        self._heap, self._seqs = queue._heap, queue._seqs
        self._mid_phase, self._end_phase = self._mid, self._end
        self._resume = self._start

    def _start(self, _: Any = None) -> None:
        """The loop's top, up to the sweep's first hold."""
        node, ctx, run = self.node, self.ctx, self.run
        while not node.stop_requested:
            if not node.alive:
                self._resume = self._start  # re-check everything on waking
                node.restart_signal._add_waiter(self)
                return
            if node.crash_count != ctx.restored_epoch:
                run.restore_checkpoint(ctx)
                if self.waits:
                    if self.barrier is not None:
                        # The restored state attests every iteration up
                        # to the checkpoint.  Arrive for it again: a
                        # crash between the checkpointed sweep and its
                        # arrival would otherwise leave the others at
                        # ``passed(checkpoint iteration)`` forever,
                        # since re-execution resumes past it.
                        self.barrier.arrive(ctx.rank, ctx.iteration, self.sim)
                    run._request_halos(ctx)
                continue
            if self.trial is not None:
                self.trial(ctx)
            # The numerics run eagerly (their results are deterministic);
            # the virtual time they cost is paid by two holds, so that the
            # left boundary send fires *during* the sweep, OVERLAP_SPLIT
            # of the way through.
            config = run.config
            self._pre_estimate = ctx.estimator.value()
            self._epoch = node.crash_count
            result = run.problem.iterate(ctx.state, ctx.halo_left, ctx.halo_right)
            self._result = result
            self._t0 = t0 = self.sim._now
            duration = node.host.duration_for_work(result.total_work, t0)
            # Polling throttle for near-free (fully skipped) sweeps.
            self._duration = duration = max(duration, config.min_sweep_duration)
            self._first = first = duration * OVERLAP_SPLIT
            if not 0 <= first < inf:
                raise invalid_hold(first)
            event = self._event
            event.time = time = t0 + first
            event.callback = self._mid_phase
            heappush(self._heap, (time, next(self._seqs), event))
            return
        self._finish(None)

    def _mid(self, _: Any = None) -> None:
        """The overlap point: the left send, then the rest of the sweep."""
        ctx = self.ctx
        if self.barrier is None and self.node.alive:
            # Mid-sweep left send carries the *previous* sweep's estimate
            # (this sweep's residual is not known yet in the real code)
            # but the data and iteration stamp of the sweep in progress.
            self.run.send_halo(
                ctx,
                "left",
                estimate=self._pre_estimate,
                exclusive=self.exclusive,
                iteration=ctx.iteration + 1,
            )
        second = self._duration - self._first
        if not 0 <= second < inf:
            raise invalid_hold(second)
        event = self._event
        event.time = time = self.sim._now + second
        event.callback = self._end_phase
        heappush(self._heap, (time, next(self._seqs), event))

    def _end(self, _: Any = None) -> None:
        """The sweep's end: accounting, boundary sends, then the waits."""
        node, ctx, run = self.node, self.ctx, self.run
        # A crash during the sweep (possibly crash *and* restart within
        # one hold) loses its results: none of its accounting happens,
        # and the prologue restores the last checkpoint before iterating
        # again.
        if node.alive and node.crash_count == self._epoch:
            result, rank = self._result, ctx.rank
            ctx.iteration = iteration = ctx.iteration + 1
            ctx.prev_residual = ctx.residual
            ctx.residual = residual = result.local_residual
            # The divergence watchdog may roll this rank back to its last
            # checkpoint: the sweep's results are then void, like a
            # crashed one's.  (A guard that returns False has written
            # neither ``ctx.iteration`` nor ``ctx.residual``.)
            if run.guard is None or not run.guard.after_sweep(run, ctx):
                now = self.sim._now
                n_local = ctx.hi - ctx.lo
                residuals = result.residuals
                # What np.linalg.norm evaluates for a 1-D float array,
                # without its dispatch (pinned bitwise in
                # tests/test_solver_internals.py).
                residual_l2 = math.sqrt(float(residuals.dot(residuals)))
                ctx.estimator.update(residual, residual_l2, self._duration, n_local)
                tracer = run.tracer
                tracer.iteration(rank, iteration, self._t0, now, result.total_work)
                if tracer.enabled:  # the record a disabled tracer drops
                    tracer.residual(rank, iteration, now, residual, n_local)
                if run.injector is None or not run._halo_is_stale(ctx):
                    run.monitor.report(rank, residual, now)
                if run.detector is not None and not node.stop_requested:
                    run._detection_after_sweep(ctx)
                if (
                    ctx.checkpoint is not None
                    and run.checkpoint_every
                    and iteration % run.checkpoint_every == 0
                ):
                    run.checkpoint(ctx)
                if iteration >= run.config.max_iterations:
                    run.abort(
                        f"rank {rank} exceeded "
                        f"max_iterations={run.config.max_iterations}"
                    )
        if node.stop_requested:
            self._finish(None)
            return
        if not node.alive or node.crash_count != ctx.restored_epoch:
            self._start()  # the sweep was lost to a crash
            return
        estimate = ctx.estimator.value()
        if self.barrier is not None:
            run.send_halo(ctx, "left", estimate=estimate, exclusive=False)
        run.send_halo(ctx, "right", estimate=estimate, exclusive=self.exclusive)
        if not self.waits:
            self._start()
            return
        self._wait_start, self._waited_for = self.sim._now, ctx.iteration
        self._interrupted = False
        self._await_halos()

    def _interrupted_by_crash(self) -> bool:
        node = self.node
        return not node.alive or node.crash_count != self.ctx.restored_epoch

    def _await_halos(self, _: Any = None) -> None:
        """SIAC / SISC: wait for both neighbours' halos of this sweep."""
        ctx, k = self.ctx, self._waited_for
        if not self.node.stop_requested:
            if self._interrupted_by_crash():
                self._interrupted = True
            elif (ctx.rank > 0 and ctx.halo_iter_left < k) or (
                ctx.rank < self.run.n_ranks - 1 and ctx.halo_iter_right < k
            ):
                self._resume = self._await_halos
                ctx.halo_signal._add_waiter(self)
                return
        barrier = self.barrier
        if barrier is None:
            self._waited()
        elif self._interrupted or self.node.stop_requested:
            self._start()
        else:
            # Nobody starts iteration k+1 before everyone finished k.
            barrier.arrive(ctx.rank, k, self.sim)
            self._await_barrier()

    def _await_barrier(self, _: Any = None) -> None:
        """SISC: wait until every rank finished this iteration."""
        barrier = self.barrier
        if not self.node.stop_requested and not barrier.passed(self._waited_for):
            if self._interrupted_by_crash():
                self._interrupted = True
            else:
                self._resume = self._await_barrier
                barrier.signal._add_waiter(self)
                return
        self._waited()

    def _waited(self) -> None:
        """Trace the wait just over as idle time, then loop."""
        now = self.sim._now
        if not self._interrupted and now > self._wait_start:
            self.run.tracer.idle(
                rank=self.ctx.rank,
                t0=self._wait_start,
                t1=now,
                reason="siac-wait" if self.barrier is None else "sisc-sync",
            )
        self._start()


#: The models that wait for their neighbours after each sweep; the
#: others (``"aiac"``, ``"aiac+lb"``) never wait.
_SYNCHRONOUS = ("siac", "sisc")


def run_chain(
    run: ChainRun,
    *,
    injector: Any = None,
    profiler: Any = None,
    guard: Any = None,
    trial: Callable[[RankContext], None] | None = None,
) -> RunResult:
    """Run ``run`` to the end with one :class:`_RankLoop` per rank.

    ``run.model`` picks the waiting discipline.  ``injector`` optionally
    arms a :class:`~repro.faults.injector.FaultInjector` (resilient
    transport + fault schedule; the synchronous models also re-send
    halos on permanent transfer failure and pull them after a restore);
    ``profiler`` attaches a :class:`~repro.obs.profile.SimProfiler` to
    the DES kernel (the event trace is bit-identical with or without
    it); ``guard`` attaches a :class:`~repro.guard.InvariantMonitor`
    (runtime safety invariants + watchdogs, see ``docs/robustness.md``),
    after the profiler, whose slot it chains; ``trial`` runs before
    every sweep.  Returns the :class:`RunResult`.
    """
    waits = run.model in _SYNCHRONOUS
    if injector is not None:
        if waits:
            run._arm_halo_recovery()
        injector.install(run)
    if profiler is not None:
        run.sim.attach_profiler(profiler)
    if guard is not None:
        guard.attach(run)
    barrier = None
    if run.model == "sisc":
        barrier = _IterationBarrier(run.n_ranks, every_arrival=injector is not None)
    for ctx in run.ranks:
        run.sim.start(_RankLoop(run, ctx, waits, barrier, trial))
    run.run()
    return run.result()


def run_aiac(
    problem: Problem,
    platform: Platform,
    config: SolverConfig | None = None,
    *,
    host_order: list[int] | None = None,
    injector: Any = None,
    profiler: Any = None,
    guard: Any = None,
) -> RunResult:
    """Solve ``problem`` with the unbalanced AIAC algorithm (Algorithm 1).

    Every processor iterates on whatever halo data is available — no
    waiting, no synchronisation.  The hooks are :func:`run_chain`'s.
    """
    run = build_chain(
        problem, platform, config, model="aiac", host_order=host_order
    )
    return run_chain(run, injector=injector, profiler=profiler, guard=guard)
