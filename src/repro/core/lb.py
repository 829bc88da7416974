"""The load-balanced AIAC solver (paper Algorithms 4–7).

Each rank periodically (every ``LBConfig.period`` sweeps — the
``OkToTryLB`` counter) tests whether to ship components to a neighbour:
left first, then right (the paper's trial order, which also prevents a
node from balancing with both neighbours at once).  The decision is the
Bertsekas–Tsitsiklis *lightest-loaded-neighbour* rule with the load
measured by the configured estimator (the paper's residual by default):
ship when ``my_estimate / neighbour_estimate > threshold_ratio``, and
never shrink below ``min_components`` (the famine guard).

Migration protocol
------------------
The paper sends migration data directly.  On a chain this admits a rare
but fatal race: if two adjacent ranks simultaneously decide to ship
components to *each other* (possible with stale estimates), the blocks
interleave and the contiguous partition is destroyed.  We therefore make
migrations a three-step handshake, each step a normal asynchronous
message:

1. **offer** — tiny message announcing the intent and amount;
2. **reply** — the receiver accepts unless it is already involved in a
   conflicting migration on that edge; crossing offers are broken
   deterministically (the lower rank's offer wins);
3. **data** — the components (plus the receiver's fresh halo and the
   shipped global positions), sent only after an accept; the sender
   splits its state at this moment, so the amount is re-validated
   against the famine guard and the transfer is cancelled (a zero-count
   data message) if it no longer fits.

The handshake costs one extra round-trip of latency per migration —
negligible against the data transfer — and makes the partition
invariants of :class:`repro.core.partition.PartitionRegistry` hold
under any asynchronous schedule (property-tested).

Boundary messages carry global positions; receive handlers drop stale
halo data exactly as the unbalanced solver does (Algorithm 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.core.config import HEADER_BYTES, LBConfig, SolverConfig
from repro.core.estimators import make_estimator, surplus_fraction
from repro.core.records import RunResult
from repro.core.solver import ChainRun, RankContext, build_chain, run_chain
from repro.grid.platform import Platform
from repro.problems.base import Problem
from repro.runtime.message import Message

__all__ = ["run_balanced_aiac", "LBRankState"]


@dataclass(slots=True)
class LBRankState:
    """Per-rank load-balancing protocol state."""

    #: Sweeps remaining until the next trial (``OkToTryLB``).
    ok_to_try: int
    #: Current trial period (adapted per rank when ``LBConfig.adaptive``).
    current_period: int = 0
    #: Outstanding outgoing offer per side: None or the offered count.
    outgoing: dict[str, int | None] = field(
        default_factory=lambda: {"left": None, "right": None}
    )
    #: We accepted an offer from this side and await its data.
    incoming_expected: dict[str, bool] = field(
        default_factory=lambda: {"left": False, "right": False}
    )
    offers_sent: int = 0
    offers_rejected: int = 0
    migrations_out: int = 0
    #: Consecutive genuinely-fruitless trials (adaptive mode backs off
    #: only after several in a row, tolerating estimator noise).
    fruitless_streak: int = 0
    #: Monotonic per-side counters matching protocol timeouts to the
    #: offer/accept they guard (fault injection only): a timer whose
    #: epoch no longer matches is stale and must not fire.
    offer_epoch: dict[str, int] = field(
        default_factory=lambda: {"left": 0, "right": 0}
    )
    incoming_epoch: dict[str, int] = field(
        default_factory=lambda: {"left": 0, "right": 0}
    )
    #: Offers abandoned because no reply survived the fault schedule.
    offers_timed_out: int = 0
    #: Migration payloads re-absorbed after their transfer failed.
    reabsorbed: int = 0


#: ``try_lb`` outcomes that mean there is genuinely nothing to ship.
_FRUITLESS = frozenset({"balanced", "converged", "famine", "edge"})


#: The (offer, reply, data) kinds a rank sends *toward* each side.  A
#: kind is named after the side its receiver sees it from — the opposite
#: one — so the kinds toward "left" are the handlers' "..._from_right".
_KINDS_TOWARD = {
    "left": ("lb_offer_from_right", "lb_reply_from_right", "lb_data_from_right"),
    "right": ("lb_offer_from_left", "lb_reply_from_left", "lb_data_from_left"),
}


def _adapt_period(state: LBRankState, cfg: LBConfig, *, productive: bool) -> None:
    """MIMD adaptation of the trial period (the paper's future work).

    Halve after a productive event (a migration went out — imbalance is
    present, look again soon); double after a fruitless one (nothing to
    ship, or the neighbour refused).
    """
    if not cfg.adaptive:
        return
    if productive:
        state.current_period = max(cfg.period_min, state.current_period // 2)
    else:
        state.current_period = min(cfg.period_max, state.current_period * 2)


class _BalancedRun:
    """Glue object wiring the LB handlers and the trial each rank runs
    before its sweeps."""

    def __init__(self, run: ChainRun, lb_config: LBConfig) -> None:
        self.run = run
        run.lb_runtime = self  # guard introspection (stall suspects)
        self.cfg = lb_config
        self.lb: list[LBRankState] = [
            LBRankState(
                ok_to_try=lb_config.period, current_period=lb_config.period
            )
            for _ in run.ranks
        ]
        run.rank_busy = self._rank_busy
        for ctx in run.ranks:
            ctx.estimator = make_estimator(lb_config.estimator)
            node = ctx.node
            # Kinds sent toward ``out_side`` arrive from ``side`` at the
            # receiver.  The failure hooks (resilient transport only,
            # inert on the lossless fast path) run at the *sender*, whose
            # protocol state is keyed by the side it sent toward.
            for side, out_side in (("left", "right"), ("right", "left")):
                offer, reply, data = _KINDS_TOWARD[out_side]
                node.register_handler(offer, partial(self._on_offer, ctx, side))
                node.register_handler(reply, partial(self._on_reply, ctx, side))
                node.register_handler(data, partial(self._on_data, ctx, side))
                node.register_failure_handler(
                    offer, partial(self._on_offer_failed, ctx, out_side)
                )
                node.register_failure_handler(
                    reply, partial(self._on_reply_failed, ctx, out_side)
                )
                node.register_failure_handler(
                    data, partial(self._on_data_failed, ctx, out_side)
                )

    def _rank_busy(self, rank: int) -> bool:
        """Unfinished migration protocol at ``rank``?

        Used by convergence detection: a rank with an outstanding offer
        or an accepted-but-not-received migration cannot vouch for its
        residual (components may be about to arrive or leave).
        """
        state = self.lb[rank]
        return any(v is not None for v in state.outgoing.values()) or any(
            state.incoming_expected.values()
        )

    # ------------------------------------------------------------------
    # The trial before each sweep (Algorithm 4)
    # ------------------------------------------------------------------
    def trial(self, ctx: RankContext) -> None:
        """Count ``ok_to_try`` down; at zero try left first, then right."""
        state = self.lb[ctx.rank]
        if state.ok_to_try > 0:
            state.ok_to_try -= 1
            return
        left = self.try_lb(ctx, "left")
        right = left if left == "offered" else self.try_lb(ctx, "right")
        # Fixed-period mode (the paper): the counter is reset only when a
        # migration is actually performed (Algorithm 5); otherwise the
        # node retries at the next iteration.  Adaptive mode: back off
        # only when *both* sides are genuinely balanced/converged/
        # famine-blocked — transient obstacles (in-flight data, missing
        # info) retry next sweep.
        if self.cfg.adaptive:
            if left == "offered" or right == "offered":
                # Imbalance detected: look again soon.
                _adapt_period(state, self.cfg, productive=True)
                state.fruitless_streak = 0
            elif left in _FRUITLESS and right in _FRUITLESS:
                state.fruitless_streak += 1
                if state.fruitless_streak >= 3:
                    _adapt_period(state, self.cfg, productive=False)
                    state.ok_to_try = state.current_period
                    state.fruitless_streak = 0

    # ------------------------------------------------------------------
    # Initiation (Algorithm 5, TryLeftLB / TryRightLB)
    # ------------------------------------------------------------------
    def try_lb(self, ctx: RankContext, side: str) -> str:
        """Attempt a migration toward ``side``.

        Returns the outcome: ``"offered"`` when an offer went out;
        transient obstacles (``"edge"``, ``"pending"``, ``"busy"``,
        ``"no_info"``); or genuinely-nothing-to-do outcomes
        (``"converged"``, ``"balanced"``, ``"famine"``) — the adaptive
        frequency controller backs off only on the latter group.
        """
        run, cfg = self.run, self.cfg
        state = self.lb[ctx.rank]
        neighbor = run._neighbors[ctx.rank][side]
        if neighbor is None:
            return "edge"
        # Without an injector every peer is alive (``peer_alive``).
        if run.injector is not None and not ctx.node.peer_alive(neighbor.rank):
            # The neighbour looks dead (nothing heard within the liveness
            # timeout): never shed load toward it — the components would
            # strand in a failed transfer.  Transient: retried next sweep.
            return "dead_peer"
        if state.outgoing[side] is not None or state.incoming_expected[side]:
            return "pending"
        offer_kind, _, data_kind = _KINDS_TOWARD[side]
        if ctx.node.channel_busy(data_kind, neighbor.rank):
            return "busy"  # previous migration data still in flight
        mine = ctx.estimator.value()
        theirs = ctx.neighbor_estimate[side]
        if not math.isfinite(mine):
            return "no_info"  # no sweep completed yet
        if mine <= 0.0 or ctx.residual < run.config.tolerance:
            # This rank is locally converged: its components are no load
            # at all, and ratios between two converged ranks are pure
            # noise (1e-14 / 1e-16 = 100).  Migrating here only churns
            # the network and resets convergence streaks.
            return "converged"
        if not math.isfinite(theirs):
            return "no_info"  # neighbour never reported
        surplus = surplus_fraction(mine, theirs, cfg.threshold_ratio)
        if surplus == 0.0:
            return "balanced"
        n_local = ctx.hi - ctx.lo
        nb = int(cfg.accuracy * n_local * surplus)
        nb = min(
            nb,
            int(cfg.max_fraction * n_local),
            n_local - cfg.min_components,
        )
        if nb < 1:
            return "famine"  # famine guard (ThresholdData)
        ctx.node.send(neighbor.node, offer_kind, {"n": nb}, HEADER_BYTES)
        state.outgoing[side] = nb
        state.offers_sent += 1
        if run.injector is not None:
            # Guard the handshake against permanently lost replies: an
            # offer still unanswered after the protocol timeout is
            # abandoned (the epoch check ignores stale timers).
            state.offer_epoch[side] += 1
            run.sim.at(
                run.sim.now + run.injector.resilience.protocol_timeout,
                self._expire_offer,
                ctx,
                side,
                state.offer_epoch[side],
            )
        return "offered"

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _on_offer(self, ctx: RankContext, side: str, msg: Message) -> None:
        """An adjacent rank offers components arriving on our ``side``."""
        state = self.lb[ctx.rank]
        neighbor = self.run.neighbor(ctx.rank, side)
        assert neighbor is not None
        _, reply_kind, data_kind = _KINDS_TOWARD[side]
        accept = True
        if ctx.node.stop_requested or state.incoming_expected[side]:
            accept = False
        elif ctx.node.channel_busy(data_kind, neighbor.rank):
            # Defensive: our own migration data toward that neighbour is
            # still in flight (cannot occur under FIFO channels, but the
            # invariant is cheap to enforce).
            accept = False
        elif state.outgoing[side] is not None:
            # Crossing offers on this edge: the lower rank's offer wins.
            if ctx.rank < neighbor.rank:
                accept = False
            # Higher rank: accept the incoming one; our own outstanding
            # offer will be rejected by the (lower-ranked) neighbour.
        if accept:
            state.incoming_expected[side] = True
            if self.run.injector is not None:
                # If the promised data never makes it (sender crashed for
                # good, or the transfer failed and was re-absorbed), the
                # expectation must not pin this rank "busy" forever.
                state.incoming_epoch[side] += 1
                self.run.sim.at(
                    self.run.sim.now
                    + self.run.injector.resilience.protocol_timeout,
                    self._expire_incoming,
                    ctx,
                    side,
                    state.incoming_epoch[side],
                )
        ctx.node.send(neighbor.node, reply_kind, {"accept": accept}, HEADER_BYTES)

    def _give_up_offer(self, state: LBRankState, side: str) -> None:
        """The offer toward ``side`` came to nothing (refused, timed out,
        undeliverable): free the edge and wait before trying again."""
        state.outgoing[side] = None
        _adapt_period(state, self.cfg, productive=False)
        state.ok_to_try = (
            state.current_period if self.cfg.adaptive else self.cfg.retry_delay
        )

    def _on_reply(self, ctx: RankContext, side: str, msg: Message) -> None:
        """Our offer toward ``side`` was answered."""
        run, cfg = self.run, self.cfg
        state = self.lb[ctx.rank]
        offered = state.outgoing[side]
        if offered is None:
            return  # defensive: reply without an outstanding offer
        if not msg.payload["accept"]:
            state.offers_rejected += 1
            self._give_up_offer(state, side)
            return
        state.outgoing[side] = None
        neighbor = run.neighbor(ctx.rank, side)
        assert neighbor is not None
        _, _, data_kind = _KINDS_TOWARD[side]
        # Re-validate the amount against the current block (it may have
        # shrunk since the offer); cancel with a zero-count message so
        # the receiver clears its expectation.
        nb = min(offered, ctx.n_local - cfg.min_components)
        if nb < 1:
            ctx.node.send(neighbor.node, data_kind, {"n": 0}, HEADER_BYTES)
            return
        payload = run.problem.split(ctx.state, nb, side)
        lo, hi = run.partition.record_send(ctx.rank, nb, side)
        # The halo the shipped edge had before the split: carried along
        # so a failed transfer can be re-absorbed losslessly.
        if side == "left":
            prev_halo = ctx.halo_left
            ctx.lo = hi
            ctx.halo_left = run.problem.payload_edge_halo(payload, "last")
        else:
            prev_halo = ctx.halo_right
            ctx.hi = lo
            ctx.halo_right = run.problem.payload_edge_halo(payload, "first")
        receiver_halo = run.problem.halo_out(ctx.state, side)
        nbytes = (
            nb * run.problem.component_nbytes()
            + run.problem.halo_nbytes()
            + HEADER_BYTES
        )
        sent = ctx.node.send(
            neighbor.node,
            data_kind,
            {
                "n": nb,
                "lo": lo,
                "hi": hi,
                "components": payload,
                "halo": receiver_halo,
                "prev_halo": prev_halo,
            },
            nbytes,
            exclusive=True,
        )
        assert sent, "data channel was checked idle before offering"
        if ctx.checkpoint is not None:
            # Migration moved the block edge: refresh the checkpoint so a
            # later crash-restore never rolls back the partition bounds.
            run.checkpoint(ctx)
        state.migrations_out += 1
        _adapt_period(state, cfg, productive=True)
        state.ok_to_try = state.current_period  # Algorithm 5: OkToTryLB = 20
        run.monitor.reset_rank(ctx.rank)
        run.monitor.reset_rank(neighbor.rank)
        if run.detector is not None:
            run.detector.reset_rank(ctx.rank)
            run.detector.reset_rank(neighbor.rank)
        run.tracer.migration(
            src_rank=ctx.rank,
            dst_rank=neighbor.rank,
            n_components=nb,
            time=run.sim.now,
            src_residual=ctx.estimator.value(),
            dst_residual=ctx.neighbor_estimate[side],
        )

    def _on_data(self, ctx: RankContext, side: str, msg: Message) -> None:
        """Migrated components arrived from ``side``; merge them."""
        run = self.run
        state = self.lb[ctx.rank]
        payload = msg.payload
        if payload["n"] == 0:
            state.incoming_expected[side] = False
            return
        lo, hi = payload["lo"], payload["hi"]
        # The handshake guarantees adjacency; a violation is a bug.
        if side == "right" and lo != ctx.hi:
            raise RuntimeError(
                f"rank {ctx.rank}: migration [{lo},{hi}) from the right is "
                f"not adjacent to block [{ctx.lo},{ctx.hi})"
            )
        if side == "left" and hi != ctx.lo:
            raise RuntimeError(
                f"rank {ctx.rank}: migration [{lo},{hi}) from the left is "
                f"not adjacent to block [{ctx.lo},{ctx.hi})"
            )
        merge_side = "right" if side == "right" else "left"
        run.problem.merge(ctx.state, payload["components"], merge_side)
        if side == "right":
            ctx.hi = hi
            ctx.halo_right = payload["halo"]
        else:
            ctx.lo = lo
            ctx.halo_left = payload["halo"]
        run.partition.record_receive(ctx.rank, lo, hi)
        state.incoming_expected[side] = False
        if ctx.checkpoint is not None:
            run.checkpoint(ctx)
        run.monitor.reset_rank(ctx.rank)
        if run.detector is not None:
            run.detector.reset_rank(ctx.rank)
        if self.cfg.adaptive:
            # Imbalance just arrived here (it travels as a front of
            # migrations): react at full frequency — this rank may need
            # to pass components onward immediately.
            state.current_period = self.cfg.period_min
            state.ok_to_try = 0
            state.fruitless_streak = 0

    # ------------------------------------------------------------------
    # Fault recovery (resilient transport only)
    # ------------------------------------------------------------------
    def _expire_offer(self, ctx: RankContext, side: str, epoch: int) -> None:
        """Protocol timeout: abandon an offer no reply ever resolved."""
        state = self.lb[ctx.rank]
        if state.offer_epoch[side] != epoch or state.outgoing[side] is None:
            return
        state.offers_timed_out += 1
        self._give_up_offer(state, side)

    def _expire_incoming(self, ctx: RankContext, side: str, epoch: int) -> None:
        """Protocol timeout: stop expecting data that never arrived."""
        state = self.lb[ctx.rank]
        if state.incoming_epoch[side] != epoch:
            return
        state.incoming_expected[side] = False

    def _on_offer_failed(
        self, ctx: RankContext, side: str, msg: Message, delivered: bool
    ) -> None:
        """Our offer toward ``side`` exhausted its retransmissions."""
        state = self.lb[ctx.rank]
        if state.outgoing[side] is None:
            return
        state.offers_timed_out += 1
        self._give_up_offer(state, side)

    def _on_reply_failed(
        self, ctx: RankContext, side: str, msg: Message, delivered: bool
    ) -> None:
        """Our reply toward ``side`` (answering its offer) never made it.

        If we had accepted and the offerer provably never learned it
        (``delivered`` False), it will not ship data: drop the
        expectation now instead of waiting for the protocol timeout.
        """
        if delivered or not msg.payload["accept"]:
            return
        self.lb[ctx.rank].incoming_expected[side] = False

    def _on_data_failed(
        self, ctx: RankContext, side: str, msg: Message, delivered: bool
    ) -> None:
        """Migration data toward ``side`` exhausted its retransmissions.

        ``delivered`` True means the receiver processed the payload and
        only the acknowledgements were lost — the components live there
        now and touching them would double-place them.  Otherwise the
        payload is orphaned: merge it back into our own block (the edge
        stayed frozen while the transfer was unresolved, so it is still
        adjacent) and restore the pre-split halo.
        """
        payload = msg.payload
        if delivered or payload["n"] == 0:
            return
        run = self.run
        lo, hi = payload["lo"], payload["hi"]
        run.partition.record_reabsorb(ctx.rank, lo, hi)
        run.problem.merge(ctx.state, payload["components"], side)
        if side == "left":
            ctx.lo = lo
            ctx.halo_left = payload["prev_halo"]
        else:
            ctx.hi = hi
            ctx.halo_right = payload["prev_halo"]
        state = self.lb[ctx.rank]
        state.reabsorbed += 1
        if ctx.checkpoint is not None:
            run.checkpoint(ctx)
        run.monitor.reset_rank(ctx.rank)
        if run.detector is not None:
            run.detector.reset_rank(ctx.rank)
        run.tracer.fault(
            kind="reabsorb",
            time=run.sim.now,
            t_end=run.sim.now,
            rank=ctx.rank,
            detail=f"{payload['n']} components [{lo}, {hi})",
        )


def run_balanced_aiac(
    problem: Problem,
    platform: Platform,
    config: SolverConfig | None = None,
    lb_config: LBConfig | None = None,
    *,
    host_order: list[int] | None = None,
    injector: Any = None,
    profiler: Any = None,
    guard: Any = None,
) -> RunResult:
    """Solve with AIAC coupled to decentralized dynamic load balancing.

    This is the paper's contribution: the solver of
    :func:`repro.core.solver.run_aiac` plus the residual-driven,
    neighbour-local migration protocol of Algorithms 4–7, whose trial
    (:meth:`_BalancedRun.trial`) runs before each sweep.  The hooks are
    :func:`~repro.core.solver.run_chain`'s; the injector is installed
    after the LB estimators are wired, so the seeded checkpoints
    snapshot the configured estimator.
    """
    run = build_chain(
        problem, platform, config, model="aiac+lb", host_order=host_order
    )
    balanced = _BalancedRun(run, lb_config if lb_config is not None else LBConfig())
    result = run_chain(
        run, injector=injector, profiler=profiler, guard=guard, trial=balanced.trial
    )
    result.meta["offers_sent"] = sum(s.offers_sent for s in balanced.lb)
    result.meta["offers_rejected"] = sum(s.offers_rejected for s in balanced.lb)
    result.meta["offers_timed_out"] = sum(s.offers_timed_out for s in balanced.lb)
    result.meta["reabsorbed"] = sum(s.reabsorbed for s in balanced.lb)
    result.meta["final_sizes"] = run.partition.sizes()
    # Per-rank protocol counters + final load-estimator values, for the
    # metrics sidecar (repro.obs) and post-hoc imbalance analysis.
    result.meta["lb_rank_stats"] = [
        {
            "rank": ctx.rank,
            "offers_sent": s.offers_sent,
            "offers_rejected": s.offers_rejected,
            "offers_timed_out": s.offers_timed_out,
            "migrations_out": s.migrations_out,
            "reabsorbed": s.reabsorbed,
            "final_estimate": ctx.estimator.value(),
        }
        for ctx, s in zip(run.ranks, balanced.lb)
    ]
    return result
