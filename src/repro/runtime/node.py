"""Grid nodes: the PM2-style programming surface of one machine.

A :class:`GridNode` couples a logical rank in the solver's chain with a
:class:`~repro.grid.host.Host`.  Solvers register *receive handlers* by
kind (the PM2 pattern of naming the function that will manage an
incoming message) and fire asynchronous sends; the runtime schedules the
delivery event at the network-computed arrival time and runs the handler
there, in zero virtual time, with full access to the node's shared state
— exactly like a PM2 handler thread between scheduler preemption points.

Per-channel mutual exclusion (paper, Section 5.1): ``channel_busy`` /
``mark_busy`` implement the "is there a communication of this kind in
progress" test; the flag clears automatically when the message arrives.

Resilient transport
-------------------
When a :class:`~repro.faults.injector.FaultInjector` is attached
(``node.injector``), every send is routed through a reliable transport
modelled after TCP-with-application-acks:

* each ``(kind, dst)`` channel stamps monotonically increasing sequence
  numbers;
* deliveries are acknowledged; an unacknowledged transfer is
  retransmitted after an exponentially backed-off, jittered timeout,
  up to ``ResilienceConfig.max_attempts`` attempts;
* receivers suppress duplicates, and *newest-wins* kinds (AIAC halo
  state) additionally reject reordered stale transmissions — the AIAC
  semantics that any sufficiently fresh state is acceptable;
* every delivery (including heartbeats) refreshes the receiver's
  passive liveness view (:meth:`GridNode.peer_alive`), which the load
  balancer consults before shedding load toward a peer;
* a transfer that exhausts its attempts fires the kind's registered
  *failure handler* so protocol layers can recover (the LB layer
  re-absorbs orphaned migration payloads).

Without an injector none of this machinery runs: the send path is the
original lossless fast path, bit-identical to the pre-fault codebase.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.des.process import Hold, Signal
from repro.des.simulator import Simulator
from repro.grid.host import Host
from repro.grid.network import Network
from repro.integrity import payload_checksum
from repro.runtime.message import Message
from repro.runtime.tracer import TRANSPORT_COUNTERS, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector

__all__ = ["GridNode", "HEARTBEAT_KIND"]

Handler = Callable[[Message], None]
FailureHandler = Callable[[Message, bool], None]

#: Internal liveness beacon; unreliable (no ack, no retry), no handler.
HEARTBEAT_KIND = "__hb__"


class _Transfer:
    """Sender-side state of one reliable message transfer."""

    __slots__ = (
        "message",
        "dst",
        "channel",
        "exclusive",
        "attempt",
        "acked",
        "in_flight",
        "delivered",
        "timer",
    )

    def __init__(
        self,
        message: Message,
        dst: "GridNode",
        channel: tuple[str, int],
        exclusive: bool,
    ) -> None:
        self.message = message
        self.dst = dst
        self.channel = channel
        self.exclusive = exclusive
        self.attempt = 0
        self.acked = False
        #: Wire copies (data or ack) scheduled but not yet resolved.
        self.in_flight = 0
        #: The receiver has processed the payload (possibly unacked).
        self.delivered = False
        self.timer: Any = None


class _ReceiveWindow:
    """Which sequence numbers an ordinary channel has received (the
    receive-window rule of ``docs/faults.md``): everything below ``floor``,
    plus ``above`` past a gap — as small as the channel's reordering,
    whatever the run's length.  ``highest`` is the maximum the guard reads."""

    __slots__ = ("floor", "above", "highest")

    def __init__(self) -> None:
        self.floor = 0
        self.above: set[int] = set()
        self.highest = -1

    def admit(self, seq: int) -> bool:
        """Record ``seq``; False if it had been recorded before."""
        above = self.above
        if seq < self.floor or seq in above:
            return False
        if seq > self.highest:
            self.highest = seq
        if seq != self.floor:
            above.add(seq)
            return True
        floor = seq + 1
        while floor in above:
            above.remove(floor)
            floor += 1
        self.floor = floor
        return True


class GridNode:
    """One simulated machine participating in a parallel solve.

    Parameters
    ----------
    sim:
        The simulation kernel.
    rank:
        Logical rank in the chain organization (0 .. nbprocs-1).
    host:
        The hardware this rank runs on.
    network:
        Shared network used to time messages.
    tracer:
        Shared trace recorder.
    """

    # Per-rank instances number in the thousands at scale; slots remove
    # the per-instance __dict__ (a few hundred bytes each) and catch
    # typo'd attribute writes from injectors/handlers.
    __slots__ = (
        "sim",
        "rank",
        "host",
        "network",
        "tracer",
        "_handlers",
        "_busy_channels",
        "stop_requested",
        "injector",
        "alive",
        "crash_count",
        "restart_signal",
        "_newest_wins",
        "_failure_handlers",
        "_pending_latest",
        "_send_seq",
        "_recv_latest",
        "_recv_windows",
        "_last_heard",
        "_parked",
        "duplicates_suppressed",
        "stale_rejected",
        "retries",
        "sends_failed",
    )

    def __init__(
        self,
        sim: Simulator,
        rank: int,
        host: Host,
        network: Network,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.rank = rank
        self.host = host
        self.network = network
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self._handlers: dict[str, Handler] = {}
        self._busy_channels: set[tuple[str, int]] = set()
        #: Set by the convergence monitor / driver to stop the main loop.
        self.stop_requested = False
        # -- resilience state (inert unless an injector is attached) ----
        #: Attached fault injector; None = lossless fast path.
        self.injector: "FaultInjector | None" = None
        #: False while the host is crashed (fault injection only).
        self.alive = True
        #: Number of crash events that hit this node so far.
        self.crash_count = 0
        #: Triggered when the host restarts after a crash.
        self.restart_signal = Signal(f"restart-{rank}")
        self._newest_wins: set[str] = set()
        self._failure_handlers: dict[str, FailureHandler] = {}
        #: Latest payload superseding a still-unacked exclusive transfer,
        #: per channel; flushed when the transfer resolves.
        self._pending_latest: dict[tuple[str, int], tuple[Any, Any, float]] = {}
        self._send_seq: dict[tuple[str, int], int] = {}
        self._recv_latest: dict[tuple[str, int], int] = {}
        self._recv_windows: defaultdict[tuple[str, int], _ReceiveWindow] = (
            defaultdict(_ReceiveWindow)
        )
        self._last_heard: dict[int, float] = {}
        #: Transfers whose retry timer fired while this host was crashed;
        #: re-armed by :meth:`resume_parked` at restart.
        self._parked: list[_Transfer] = []
        # Transport counters (surfaced in resilience experiment reports).
        self.duplicates_suppressed = 0
        self.stale_rejected = 0
        self.retries = 0
        self.sends_failed = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GridNode(rank={self.rank}, host={self.host.name})"

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def register_handler(
        self, kind: str, handler: Handler, *, newest_wins: bool = False
    ) -> None:
        """Register the function that manages messages of ``kind``.

        ``newest_wins`` marks the kind as idempotent state transfer
        (AIAC halo semantics): under the resilient transport, a
        transmission older than the freshest already-delivered one on
        the same channel is rejected as stale instead of handled.
        """
        if kind in self._handlers:
            raise ValueError(f"handler for kind {kind!r} already registered")
        self._handlers[kind] = handler
        if newest_wins:
            self._newest_wins.add(kind)

    def register_failure_handler(
        self, kind: str, handler: FailureHandler
    ) -> None:
        """Register the recovery hook run when a reliable send of
        ``kind`` exhausts its attempts.

        The hook receives ``(message, delivered)``; ``delivered`` is True
        when the receiver processed the payload but every acknowledgement
        was lost — the sender must then *not* assume the data vanished.
        """
        if kind in self._failure_handlers:
            raise ValueError(
                f"failure handler for kind {kind!r} already registered"
            )
        self._failure_handlers[kind] = handler

    # ------------------------------------------------------------------
    # Mutual exclusion flags
    # ------------------------------------------------------------------
    def channel_busy(self, kind: str, dst_rank: int) -> bool:
        """Is a send of ``kind`` to ``dst_rank`` still in flight?"""
        return (kind, dst_rank) in self._busy_channels

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def peer_alive(self, rank: int) -> bool:
        """Passive liveness view of a peer rank.

        True while something (halo, protocol message, heartbeat) has been
        heard from ``rank`` within the resilience config's liveness
        timeout.  Always True on the lossless fast path.
        """
        injector = self.injector
        if injector is None:
            return True
        heard = self._last_heard.get(rank, 0.0)
        return self.sim._now - heard <= injector.resilience.liveness_timeout

    def heartbeat_process(
        self, peers: list["GridNode"], period: float
    ) -> Generator[Any, Any, None]:
        """Generator: emit liveness beacons to ``peers`` every ``period``.

        Spawned by the fault injector; beacons are unreliable (a lost
        beacon is simply not retried) and are consumed by the transport
        itself — no user handler is involved.
        """
        injector = self.injector
        nbytes = injector.resilience.heartbeat_bytes if injector else 8.0
        while not self.stop_requested:
            yield Hold(period)
            if self.stop_requested:
                return
            if not self.alive:
                continue
            for peer in peers:
                self.send(peer, HEARTBEAT_KIND, None, nbytes)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def transport_counters(self) -> dict[str, int]:
        """``TRANSPORT_COUNTERS`` of this rank (all zero on the lossless
        fast path)."""
        counts = (
            self.retries, self.sends_failed, self.duplicates_suppressed,
            self.stale_rejected, self.crash_count,
        )
        return dict(zip(TRANSPORT_COUNTERS, counts))

    def is_latest_send(self, message: Message) -> bool:
        """Was ``message`` the most recent send on its channel?

        Lets failure handlers distinguish "this payload is still the
        freshest we produced" (worth re-sending) from "a newer send has
        superseded it" (re-sending would deliver stale state with a
        fresh sequence number).
        """
        channel = (message.kind, message.dst_rank)
        return self._send_seq.get(channel, 0) == message.seq + 1

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        dst: "GridNode",
        kind: str,
        payload: Any,
        size_bytes: float,
        *,
        exclusive: bool = False,
    ) -> bool:
        """Asynchronously send ``payload`` to ``dst``.

        With ``exclusive=True`` the send is suppressed (returns ``False``)
        if a previous exclusive send of the same kind to the same rank has
        not yet arrived — the paper's mutual-exclusion variant, which
        "generates less communications".  Returns ``True`` if the message
        was actually injected.
        """
        if self.injector is not None:
            return self._send_resilient(dst, kind, payload, size_bytes, exclusive)
        channel = None
        if exclusive:
            channel = (kind, dst.rank)
            if channel in self._busy_channels:
                return False
            self._busy_channels.add(channel)

        now = self.sim._now
        arrival = self.network.arrival_time(self.host, dst.host, size_bytes, now)
        # Positional (kind, payload, size_bytes, src_rank, dst_rank,
        # send_time, arrival_time): half the cost of the keyword form,
        # once per message.
        message = Message(kind, payload, size_bytes, self.rank, dst.rank, now, arrival)
        self.sim.at(arrival, self._deliver_lossless, dst, message, channel)
        self.tracer.message(kind, self.rank, dst.rank, size_bytes, now, arrival)
        return True

    def _deliver_lossless(
        self, dst: "GridNode", message: Message, channel: tuple[str, int] | None
    ) -> None:
        """``message`` arrives; ``channel`` is the exclusive one it frees."""
        if channel is not None:
            self._busy_channels.discard(channel)
        handler = dst._handlers.get(message.kind)
        if handler is None:
            raise LookupError(
                f"rank {dst.rank} has no handler for message kind "
                f"{message.kind!r}"
            )
        handler(message)

    # ------------------------------------------------------------------
    # Resilient transport (fault injection active)
    # ------------------------------------------------------------------
    def _send_resilient(
        self,
        dst: "GridNode",
        kind: str,
        payload: Any,
        size_bytes: float,
        exclusive: bool,
    ) -> bool:
        if not self.alive:
            return False  # a crashed host cannot initiate sends
        channel = (kind, dst.rank)
        if exclusive:
            if channel in self._busy_channels:
                # Unlike the fast path, an exclusive transfer here stays
                # in flight for a full ack round trip — or several RTOs
                # when copies are being dropped.  Silently suppressing
                # every send in that window would freeze the channel's
                # state at the pre-drop value (long enough for a small
                # block to quiesce against the frozen halo and fool
                # convergence detection), so instead the *latest* payload
                # is buffered and flushed the moment the channel frees.
                self._pending_latest[channel] = (dst, payload, size_bytes)
                return False
            self._busy_channels.add(channel)
        seq = self._send_seq.get(channel, 0)
        self._send_seq[channel] = seq + 1
        checksum = None
        if self.injector.detection_active and kind != HEARTBEAT_KIND:
            checksum = payload_checksum(payload)
        # Positional, as on the lossless path: (..., send_time,
        # arrival_time, seq, attempt, checksum).
        message = Message(
            kind, payload, size_bytes, self.rank, dst.rank, self.sim._now, 0.0,
            seq, 0, checksum,
        )
        transfer = _Transfer(message, dst, channel, exclusive)
        self._transmit(transfer)
        return True

    def _transmit(self, transfer: _Transfer) -> None:
        """Put one transmission attempt of ``transfer`` on the wire."""
        injector = self.injector
        assert injector is not None
        sim = self.sim
        now = sim._now
        message = transfer.message
        message.attempt = transfer.attempt
        reliable = message.kind != HEARTBEAT_KIND
        copies = (
            injector.on_transmit(self, transfer.dst, message)
            if injector.filters_wire
            else (0.0,)  # no wire fault scheduled: one copy, no extra delay
        )
        for extra_delay in copies:
            arrival = (
                self.network.arrival_time(
                    self.host, transfer.dst.host, message.size_bytes, now
                )
                + extra_delay
            )
            transfer.in_flight += 1
            sim.at(arrival, self._deliver, transfer, arrival)
            self.tracer.message(
                message.kind,
                self.rank,
                transfer.dst.rank,
                message.size_bytes,
                now,
                arrival,
            )
        if reliable:
            rto = injector.retry_timeout(self.rank, transfer.attempt)
            transfer.timer = sim.at(now + rto, self._on_timeout, transfer)

    def _deliver(self, transfer: _Transfer, arrival: float) -> None:
        """One wire copy of ``transfer`` reaches the receiver, at ``arrival``
        (the time this event was scheduled for: the clock reads the same)."""
        injector = self.injector
        assert injector is not None
        transfer.in_flight -= 1
        dst = transfer.dst
        if not dst.alive:
            injector.note_dropped_dead(transfer.message)
            return
        message = transfer.message
        message.arrival_time = arrival
        delivered = message
        if injector.corrupts_payloads and message.kind != HEARTBEAT_KIND:
            delivered = injector.corrupt_delivery(message)
            if delivered.checksum is not None and payload_checksum(
                delivered.payload
            ) != delivered.checksum:
                # Verify-on-receive: the copy was damaged in flight.
                # Discard it exactly as if it had been lost — no
                # handler, no ack — so the sender's retry timer
                # retransmits the pristine buffered original
                # (reject-and-refetch).
                injector.note_corruption_detected(
                    message.dst_rank,
                    f"{message.kind} from {message.src_rank} rejected",
                )
                return
        dst._on_receive(delivered)
        if message.kind == HEARTBEAT_KIND:
            return
        transfer.delivered = True
        if transfer.acked:
            return  # a duplicate copy arriving after completion
        if injector.drops_acks and injector.ack_dropped(dst, self, message):
            return  # the acknowledgement is lost; the sender will retry
        if injector.corrupts_acks and injector.ack_corrupted(dst, self, message):
            return  # the acknowledgement is mangled; ditto
        ack_arrival = self.network.arrival_time(
            dst.host, self.host, injector.resilience.ack_bytes, arrival
        )
        transfer.in_flight += 1
        self.sim.at(ack_arrival, self._on_ack, transfer)

    def _on_ack(self, transfer: _Transfer) -> None:
        transfer.in_flight -= 1
        if transfer.acked:
            return
        transfer.acked = True
        if transfer.timer is not None:
            transfer.timer.cancel()
            transfer.timer = None
        if transfer.exclusive:
            self._busy_channels.discard(transfer.channel)
            if transfer.channel in self._pending_latest:
                self._flush_pending(transfer.channel)

    def _on_timeout(self, transfer: _Transfer) -> None:
        """Retry timer fired: retransmit, wait longer, or give up."""
        injector = self.injector
        assert injector is not None
        transfer.timer = None
        if transfer.acked:
            return
        if not self.alive:
            # Ghost-retransmission guard: a crashed host must not put
            # copies on the wire.  Before this check a retry timer armed
            # pre-crash kept retransmitting from the grave, and every
            # delivery refreshed the *receiver's* ``_last_heard`` — so a
            # peer that crashed before its first heartbeat was never
            # marked dead by ``peer_alive``.  Park the transfer instead;
            # the injector re-arms it at restart (``resume_parked``), so
            # failure-handler semantics survive the downtime.
            self._parked.append(transfer)
            return
        if transfer.in_flight > 0:
            # A copy (or its ack) is still travelling — the omniscient
            # simulator stands in for TCP's conservative RTO here: wait
            # one more timeout instead of spuriously duplicating.
            rto = injector.retry_timeout(self.rank, transfer.attempt)
            transfer.timer = self.sim.at(
                self.sim._now + rto, self._on_timeout, transfer
            )
            return
        if transfer.attempt + 1 < injector.resilience.max_attempts:
            transfer.attempt += 1
            self.retries += 1
            injector.stats["retries"] += 1
            self._transmit(transfer)
            return
        # Out of attempts: the transfer failed.  No copy is on the wire
        # and none will follow, so a receive window must not wait for it.
        self.sends_failed += 1
        injector.stats["sends_failed"] += 1
        message, dst = transfer.message, transfer.dst
        if not transfer.delivered and message.kind not in dst._newest_wins:
            dst._recv_windows[message.kind, self.rank].admit(message.seq)
        if transfer.exclusive:
            self._busy_channels.discard(transfer.channel)
        failure = self._failure_handlers.get(message.kind)
        if failure is not None:
            failure(message, transfer.delivered)
        if transfer.exclusive:
            self._flush_pending(transfer.channel)

    def resume_parked(self) -> int:
        """Re-arm retry timers parked while this host was crashed.

        Called by the injector's restart path.  Each parked transfer
        re-enters :meth:`_on_timeout` after a fresh RTO (rather than
        retransmitting immediately), so a transfer acked during the
        downtime resolves silently and the attempt budget is spent only
        on genuine wire time.  Returns the number of transfers re-armed.
        """
        injector = self.injector
        assert injector is not None
        parked, self._parked = self._parked, []
        rearmed = 0
        for transfer in parked:
            if transfer.acked:
                continue
            rto = injector.retry_timeout(self.rank, transfer.attempt)
            transfer.timer = self.sim.at(
                self.sim._now + rto, self._on_timeout, transfer
            )
            rearmed += 1
        return rearmed

    def transport_snapshot(self) -> dict[str, dict]:
        """Copies of the per-channel sequence counters.

        Consumed by :class:`repro.guard.InvariantMonitor` to check
        sequence monotonicity; returns plain dicts so the guard can
        diff snapshots without holding references into live state.
        """
        return {
            "send_seq": dict(self._send_seq),
            "recv_latest": dict(self._recv_latest),
            "recv_seen_max": {
                channel: window.highest
                for channel, window in self._recv_windows.items()
            },
        }

    def _flush_pending(self, channel: tuple[str, int]) -> None:
        """Send the latest payload buffered while ``channel`` was busy."""
        pending = self._pending_latest.pop(channel, None)
        if pending is None or self.stop_requested or not self.alive:
            return
        dst, payload, size_bytes = pending
        self._send_resilient(dst, channel[0], payload, size_bytes, True)

    def _on_receive(self, message: Message) -> bool:
        """Receiver-side filtering: liveness, dedup, stale rejection."""
        # ``_deliver`` stamped the arrival: the time of the running event.
        self._last_heard[message.src_rank] = message.arrival_time
        kind = message.kind
        if kind == HEARTBEAT_KIND:
            return True
        channel = (kind, message.src_rank)
        if kind in self._newest_wins:
            latest = self._recv_latest.get(channel, -1)
            if message.seq <= latest:
                self.stale_rejected += 1
                return False  # stale or duplicate state: newest wins
            self._recv_latest[channel] = message.seq
        elif not self._recv_windows[channel].admit(message.seq):
            self.duplicates_suppressed += 1
            return False
        handler = self._handlers.get(kind)
        if handler is None:
            raise LookupError(
                f"rank {self.rank} has no handler for message kind {kind!r}"
            )
        handler(message)
        return True
