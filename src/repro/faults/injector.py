"""Compile a :class:`~repro.faults.models.FaultSchedule` against a run.

The :class:`FaultInjector` is the single object the runtime consults
when fault injection is active.  It plays three roles:

* **compiler** — :meth:`install` turns the schedule's timed faults
  (crashes, slowdown ramps, latency spikes) into DES events that toggle
  :class:`~repro.grid.host.Host` / :class:`~repro.grid.link.Link` /
  :class:`~repro.runtime.node.GridNode` state, and spawns the heartbeat
  processes that feed peer liveness;
* **message filter** — :meth:`on_transmit` / :meth:`ack_dropped` decide,
  per wire copy, whether a transmission is dropped, duplicated or
  reordered (losses, duplication, reordering, partitions);
* **transport policy** — :meth:`retry_timeout` draws the jittered
  exponential-backoff retransmission timeouts used by
  :class:`~repro.runtime.node.GridNode`.

Every random draw comes from a named :class:`~repro.util.rng.RngTree`
stream under the schedule's seed and happens inside a deterministically
ordered DES event, so runs are byte-reproducible.  Injected fault events
are recorded as :class:`~repro.runtime.tracer.FaultRecord` entries so the
Gantt renderer can overlay them on the execution timeline.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from repro.faults.models import (
    FaultSchedule,
    HostCrash,
    HostSlowdown,
    LatencySpike,
    LinkPartition,
    MessageDuplication,
    MessageLoss,
    MessageReordering,
    PayloadCorruption,
    StateCorruption,
)
from repro.integrity import corrupt_payload
from repro.util.rng import RngTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.solver import ChainRun
    from repro.obs.registry import MetricsRegistry
    from repro.runtime.message import Message
    from repro.runtime.node import GridNode

__all__ = ["FaultInjector"]

#: Counters surfaced in resilience reports, in a fixed order.
_STAT_KEYS = (
    "messages_dropped",
    "acks_dropped",
    "duplicates_injected",
    "reorders_injected",
    "dropped_at_dead_host",
    "retries",
    "sends_failed",
    "crashes",
    "restarts",
    "corruptions_injected",
    "corruptions_detected",
    "corruption_rollbacks",
)

#: Jitter doubles drawn from a rank's retry stream at once: ``random(n)``
#: yields the doubles of ``n`` scalar draws, so no timeout changes.
_RETRY_BLOCK = 64


class FaultInjector:
    """Arms a :class:`FaultSchedule` against a :class:`ChainRun`.

    Construct one injector per run (it keeps per-run RNG streams and
    counters) and attach it with :meth:`install` *before* starting the
    simulation::

        run = build_chain(problem, platform, config, model="aiac")
        FaultInjector(schedule).install(run)
        ...spawn processes, run.run()

    With an empty schedule the injector still switches every node onto
    the resilient transport (acks, retries, sequence numbers,
    heartbeats) — a useful overhead baseline.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.resilience = schedule.resilience
        self._rng = RngTree(schedule.seed).child("faults")
        self._message_rng = self._rng.generator("messages")
        self._ack_rng = self._rng.generator("acks")
        self._crash_rng = self._rng.generator("crash-downtime")
        self.stats: dict[str, int] = {key: 0 for key in _STAT_KEYS}
        # Split the schedule by role once.
        faults = schedule.faults
        self._losses = [f for f in faults if isinstance(f, MessageLoss)]
        self._dups = [f for f in faults if isinstance(f, MessageDuplication)]
        self._reorders = [f for f in faults if isinstance(f, MessageReordering)]
        self._partitions = [f for f in faults if isinstance(f, LinkPartition)]
        #: Acks suffer only the *unfiltered* losses and corruptions (a
        #: kind-restricted fault targets payload kinds, not the ack channel).
        self._ack_losses = [f for f in self._losses if f.kinds is None]
        #: ``rank ->`` the rest of the last block of jitter doubles drawn
        #: from the rank's "retry/<rank>" stream, reversed (``pop`` is next).
        self._retry_jitter: dict[int, list[float]] = {}
        self._timed = [
            f
            for f in faults
            if isinstance(f, (HostCrash, HostSlowdown, LatencySpike, StateCorruption))
        ]
        self._payload_corruptions = [
            f for f in faults if isinstance(f, PayloadCorruption)
        ]
        self._ack_corruptions = [
            f for f in self._payload_corruptions if f.kinds is None
        ]
        has_corruption = bool(self._payload_corruptions) or any(
            isinstance(f, StateCorruption) for f in faults
        )
        #: Corruption stream exists only when a corruption fault is
        #: scheduled: the zero-corruption path makes no extra draws and
        #: stays byte-identical to the pre-integrity codebase.
        self._corrupt_rng = (
            self._rng.generator("corruption") if has_corruption else None
        )
        #: The transport consults these flags on its hot path: whether
        #: :meth:`on_transmit`, :meth:`corrupt_delivery`, :meth:`ack_dropped`
        #: and :meth:`ack_corrupted` have a fault that could apply.
        self.filters_wire = bool(
            self._losses or self._dups or self._reorders or self._partitions
        )
        self.corrupts_payloads = bool(self._payload_corruptions)
        self.drops_acks = bool(self._partitions or self._ack_losses)
        self.corrupts_acks = bool(self._ack_corruptions)
        #: Detection layer armed: checksums stamped/verified, checkpoint
        #: CRCs enforced, plausibility guard live.  Off either because no
        #: corruption fault is scheduled (nothing to detect — zero
        #: behavioural drift) or because the scenario's escaped-corruption
        #: arm disabled it (``ResilienceConfig.integrity_checks=False``).
        self.detection_active = has_corruption and self.resilience.integrity_checks
        self.run: "ChainRun | None" = None
        self.sim = None
        self.tracer = None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def install(self, run: "ChainRun") -> None:
        """Attach to ``run``: wire nodes, compile events, start beacons."""
        if self.run is not None:
            raise RuntimeError("FaultInjector is already installed")
        self.run = run
        self.sim = run.sim
        self.tracer = run.tracer
        run.attach_injector(self)
        self._validate_ranks(run.n_ranks)
        for fault in self._timed:
            self._compile_timed(fault)
        for fault in self._partitions:
            self.tracer.fault(
                kind="partition",
                time=fault.t0,
                t_end=fault.t1,
                rank=None,
                detail=(
                    f"ranks {sorted(fault.ranks_a)} | "
                    f"{sorted(fault.ranks_b)}"
                ),
            )
        period = self.resilience.heartbeat_period
        for ctx in run.ranks:
            peers = [
                n.node
                for n in (
                    run.neighbor(ctx.rank, "left"),
                    run.neighbor(ctx.rank, "right"),
                )
                if n is not None
            ]
            if peers:
                run.sim.spawn(
                    f"heartbeat-{ctx.rank}",
                    ctx.node.heartbeat_process(peers, period),
                )

    def _validate_ranks(self, n_ranks: int) -> None:
        for fault in self.schedule.faults:
            ranks: tuple[int, ...] = ()
            if isinstance(fault, (HostCrash, HostSlowdown, StateCorruption)):
                ranks = (fault.rank,)
            elif isinstance(fault, LinkPartition):
                ranks = fault.ranks_a + fault.ranks_b
            for rank in ranks:
                if not 0 <= rank < n_ranks:
                    raise ValueError(
                        f"{type(fault).__name__} names rank {rank}, but the "
                        f"run has only ranks 0..{n_ranks - 1}"
                    )

    def _compile_timed(
        self, fault: "HostCrash | HostSlowdown | LatencySpike | StateCorruption"
    ) -> None:
        sim = self.sim
        assert sim is not None and self.run is not None
        if isinstance(fault, HostCrash):
            sim.at(fault.at, self._crash, fault)
        elif isinstance(fault, StateCorruption):
            sim.at(fault.at, self._corrupt_state, fault)
        elif isinstance(fault, HostSlowdown):
            host = self.run.ranks[fault.rank].node.host
            base = host.speed
            steps = fault.ramp_steps
            span = fault.t1 - fault.t0
            for k in range(1, steps + 1):
                t = fault.t0 + span * (k - 1) / steps
                factor = 1.0 - (1.0 - fault.factor) * k / steps
                sim.at(t, self._set_speed, host, base * factor)
            sim.at(fault.t1, self._set_speed, host, base)
            self.tracer.fault(
                kind="slowdown",
                time=fault.t0,
                t_end=fault.t1,
                rank=fault.rank,
                detail=f"speed floor x{fault.factor:g} in {steps} step(s)",
            )
        else:  # LatencySpike
            network = self.run.platform.network
            links = []
            if fault.sites is not None:
                link = network.site_link(*fault.sites)
                if link is None:
                    raise ValueError(
                        f"LatencySpike names unknown site pair {fault.sites!r}"
                    )
                links.append(link)
            else:
                links.append(network.default_link)
                links.extend(link for _, link in network.iter_site_links())
            # One link object may back several site pairs; spike each
            # object exactly once.
            unique = list({id(link): link for link in links}.values())
            originals = [link.latency for link in unique]
            sim.at(fault.t0, self._scale_latency, unique, fault.factor)
            sim.at(fault.t1, self._restore_latency, unique, originals)
            where = "all links" if fault.sites is None else "-".join(fault.sites)
            self.tracer.fault(
                kind="latency_spike",
                time=fault.t0,
                t_end=fault.t1,
                rank=None,
                detail=f"{where} latency x{fault.factor:g}",
            )

    # ------------------------------------------------------------------
    # Timed-fault event callbacks
    # ------------------------------------------------------------------
    def _crash(self, fault: HostCrash) -> None:
        assert self.run is not None and self.sim is not None
        node = self.run.ranks[fault.rank].node
        if not node.alive:
            return  # already down; coincident crash is absorbed
        node.alive = False
        node.crash_count += 1
        self.stats["crashes"] += 1
        now = self.sim.now
        downtime = fault.downtime
        if isinstance(downtime, tuple):
            lo, hi = downtime
            downtime = lo + (hi - lo) * float(self._crash_rng.random())
        if downtime is None:
            t_end = math.inf
            detail = "no restart"
        else:
            t_end = now + downtime
            detail = f"restart after {downtime:.6g}s"
            self.sim.at(t_end, self._restart, fault.rank)
        self.tracer.fault(
            kind="crash", time=now, t_end=t_end, rank=fault.rank, detail=detail
        )

    def _restart(self, rank: int) -> None:
        assert self.run is not None and self.sim is not None
        node = self.run.ranks[rank].node
        if node.alive:
            return
        node.alive = True
        self.stats["restarts"] += 1
        # Transfers whose retry timer fired during the downtime were
        # parked (a dead host must not retransmit); re-arm them now.
        node.resume_parked()
        self._mark("restart", rank)
        # Wake the rank's main process; it restores its last checkpoint
        # (GridNode.crash_count != RankContext.restored_epoch) and
        # resumes iterating.
        node.restart_signal.trigger(self.sim)

    def _corrupt_state(self, fault: StateCorruption) -> None:
        """Poison one rank's live block (or checkpoint) at ``fault.at``."""
        assert self.run is not None and self.sim is not None
        assert self._corrupt_rng is not None
        detail = self.run.corrupt_block(fault, self._corrupt_rng)
        if detail is None:
            return  # nothing to poison (dead host, no checkpoint yet)
        self.stats["corruptions_injected"] += 1
        self._mark("state_corruption", fault.rank, f"{fault.target}: {detail}")

    @staticmethod
    def _set_speed(host, speed: float) -> None:
        host.speed = speed

    @staticmethod
    def _scale_latency(links, factor: float) -> None:
        for link in links:
            link.latency *= factor

    @staticmethod
    def _restore_latency(links, originals) -> None:
        for link, latency in zip(links, originals):
            link.latency = latency

    # ------------------------------------------------------------------
    # Message filtering (called by GridNode per transmission attempt)
    # ------------------------------------------------------------------
    def on_transmit(
        self, src: "GridNode", dst: "GridNode", message: "Message"
    ) -> Sequence[float]:
        """Fate of one transmission attempt.

        Returns the wire copies to schedule, as extra arrival delays
        (read-only): empty = dropped, ``[0.0]`` = normal, two zeros =
        duplicated, a positive entry = reordered (delay added *after*
        FIFO clamping, so the copy may overtake later traffic).
        """
        now = self.sim._now
        for fault in self._partitions:
            if fault.severs(src.rank, dst.rank, now):
                self.stats["messages_dropped"] += 1
                return []
        rng = self._message_rng
        kind = message.kind
        for fault in self._losses:
            if fault.matches(kind, now) and float(rng.random()) < fault.rate:
                self.stats["messages_dropped"] += 1
                return []
        copies = [0.0]
        for fault in self._dups:
            if fault.matches(kind, now) and float(rng.random()) < fault.rate:
                copies.append(0.0)
                self.stats["duplicates_injected"] += 1
        for fault in self._reorders:
            if fault.matches(kind, now):
                for i in range(len(copies)):
                    if float(rng.random()) < fault.rate:
                        copies[i] += float(rng.random()) * fault.max_extra_delay
                        self.stats["reorders_injected"] += 1
        return copies

    def ack_dropped(
        self, dst: "GridNode", src: "GridNode", message: "Message"
    ) -> bool:
        """Whether the ack for ``message`` (``dst`` back to ``src``) is lost.

        Acks cross the same partitions and suffer the same *unfiltered*
        losses as data (kind-restricted losses target payload kinds, not
        the ack channel).  A lost ack forces a retransmission that the
        receiver then suppresses as a duplicate.
        """
        now = self.sim._now
        for fault in self._partitions:
            if fault.severs(dst.rank, src.rank, now):
                self.stats["acks_dropped"] += 1
                return True
        rng = self._ack_rng
        for fault in self._ack_losses:
            if fault.t0 <= now <= fault.t1 and float(rng.random()) < fault.rate:
                self.stats["acks_dropped"] += 1
                return True
        return False

    def corrupt_delivery(self, message: "Message") -> "Message":
        """Maybe damage the wire copy about to be handed to the receiver.

        Consulted once per delivery when payload corruption is armed.
        Returns ``message`` unchanged (no fault fired, or the payload
        had nothing corruptible), or a payload-damaged *copy* — the
        transfer's buffered original stays pristine, so a retransmission
        after a checksum reject delivers clean data.  The copy keeps the
        original's checksum: that mismatch is exactly what the receiver
        detects.
        """
        now = self.sim._now
        rng = self._corrupt_rng
        assert rng is not None
        for fault in self._payload_corruptions:
            if fault.matches(message.kind, now) and float(rng.random()) < fault.rate:
                damaged, detail = corrupt_payload(
                    message.payload, fault.mode, fault.amplitude, rng
                )
                if detail is None:
                    return message
                self.stats["corruptions_injected"] += 1
                self._mark(
                    "payload_corruption",
                    message.dst_rank,
                    f"{message.kind} from {message.src_rank}: {detail}",
                )
                return replace(message, payload=damaged)
        return message

    def ack_corrupted(
        self, dst: "GridNode", src: "GridNode", message: "Message"
    ) -> bool:
        """Whether the ack for ``message`` is corrupted in flight.

        Like ack loss, only *unfiltered* payload-corruption faults apply
        (kind-restricted faults target payload kinds).  With detection
        armed the sender discards the mangled ack — indistinguishable
        from a lost one, so the retransmit/dedup machinery recovers and
        the event counts as detected.  With detection off the ack is
        accepted as-is: acks carry no values, so the corruption is
        structurally masked.
        """
        now = self.sim._now
        rng = self._corrupt_rng
        for fault in self._ack_corruptions:
            if fault.t0 <= now <= fault.t1 and float(rng.random()) < fault.rate:
                self.stats["corruptions_injected"] += 1
                if self.detection_active:
                    self.stats["corruptions_detected"] += 1
                    self.stats["acks_dropped"] += 1
                    return True
                return False
        return False

    def note_corruption_detected(self, rank: int, detail: str) -> None:
        """A detection surface caught corruption at ``rank``: a checksum
        rejected a delivery (then treated as loss), a checkpoint failed
        its CRC, or the plausibility screen fired."""
        self.stats["corruptions_detected"] += 1
        self._mark("corruption_detected", rank, detail)

    def note_corruption_recovered(self, rank: int, detail: str) -> None:
        """A detected corruption was repaired by rollback/refetch."""
        self.stats["corruption_rollbacks"] += 1
        self._mark("corruption_rollback", rank, detail)

    def _mark(self, kind: str, rank: int, detail: str = "") -> None:
        """Record an instantaneous fault event at the current time."""
        now = self.sim._now
        self.tracer.fault(kind=kind, time=now, t_end=now, rank=rank, detail=detail)

    # ------------------------------------------------------------------
    # Transport policy
    # ------------------------------------------------------------------
    def retry_timeout(self, rank: int, attempt: int) -> float:
        """Jittered exponential backoff for attempt ``attempt`` of ``rank``."""
        jitter = self._retry_jitter.get(rank)
        if not jitter:  # the next block; the tree has one generator per name
            block = self._rng.generator(f"retry/{rank}").random(_RETRY_BLOCK)
            jitter = self._retry_jitter[rank] = block[::-1].tolist()
        rc = self.resilience
        return rc.base_timeout * rc.backoff**attempt * (1.0 + rc.jitter * jitter.pop())

    def export_metrics(self, registry: "MetricsRegistry", **labels) -> None:
        """Publish the injector's counters into a metrics registry.

        Every key of :data:`_STAT_KEYS` is exported (zeros included) so
        snapshots keep the same shape whether or not faults fired.
        """
        for key in _STAT_KEYS:
            registry.counter(f"faults.{key}", **labels).add(self.stats[key])

    def note_dropped_dead(self, message: "Message") -> None:
        """A wire copy reached a crashed host and evaporated."""
        self.stats["dropped_at_dead_host"] += 1
