"""Tests for the resilient transport layer of :mod:`repro.runtime.node`.

Unit-level: two nodes wired to an armed injector, no solver on top.
The out-of-order tests are property tests over fixed schedule seeds —
reordering delays are drawn from the injector's deterministic streams,
so each seed is one reproducible adversarial delivery schedule.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Hold, Simulator
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    MessageDuplication,
    MessageLoss,
    MessageReordering,
    ResilienceConfig,
)
from repro.grid.host import Host
from repro.grid.link import Link
from repro.grid.network import Network
from repro.runtime.message import Message
from repro.runtime.node import GridNode
from repro.runtime.tracer import Tracer


def make_pair(*faults, seed=0, latency=0.01, resilience=None):
    """Two nodes with an armed injector (no ChainRun underneath)."""
    sim = Simulator()
    net = Network(Link(latency=latency, bandwidth=1e6))
    tracer = Tracer()
    a = GridNode(sim, 0, Host("a", 1.0), net, tracer)
    b = GridNode(sim, 1, Host("b", 1.0), net, tracer)
    injector = FaultInjector(
        FaultSchedule(
            faults=faults,
            seed=seed,
            resilience=resilience or ResilienceConfig(base_timeout=0.5),
        )
    )
    # Minimal manual arm: message filtering and retry policy need only
    # the simulator and tracer, not the full ChainRun wiring.
    injector.sim = sim
    injector.tracer = tracer
    a.injector = injector
    b.injector = injector
    return sim, a, b, injector


# ----------------------------------------------------------------------
# channel_busy (paper §5.1 mutual exclusion)
# ----------------------------------------------------------------------
def test_channel_busy_fast_path_clears_on_arrival():
    sim = Simulator()
    net = Network(Link(latency=2.0, bandwidth=1e6))
    a = GridNode(sim, 0, Host("a", 1.0), net)
    b = GridNode(sim, 1, Host("b", 1.0), net)
    b.register_handler("halo", lambda m: None)
    assert not a.channel_busy("halo", 1)
    assert a.send(b, "halo", None, 8.0, exclusive=True)
    assert a.channel_busy("halo", 1)  # in flight
    assert not a.channel_busy("halo", 0)  # per destination
    assert not a.channel_busy("data", 1)  # per kind
    assert not a.send(b, "halo", None, 8.0, exclusive=True)  # suppressed
    sim.run()
    assert not a.channel_busy("halo", 1)  # cleared at arrival


def test_channel_busy_resilient_clears_on_ack():
    sim, a, b, _ = make_pair(latency=1.0)
    b.register_handler("halo", lambda m: None)
    assert a.send(b, "halo", None, 8.0, exclusive=True)
    assert a.channel_busy("halo", 1)
    sim.run()
    # The ack round trip completed: channel free again.
    assert not a.channel_busy("halo", 1)


def test_exclusive_resilient_send_buffers_latest_payload():
    # Three sends while the first transfer is unacked: the middle one
    # must be superseded — the receiver sees the first (in flight when
    # buffering began) and the last (flushed on ack), never the stale
    # intermediate.
    sim, a, b, _ = make_pair(latency=1.0)
    got = []
    b.register_handler("halo", lambda m: got.append(m.payload))

    def sender(sim):
        a.send(b, "halo", "v1", 8.0, exclusive=True)
        yield Hold(0.1)
        assert not a.send(b, "halo", "v2", 8.0, exclusive=True)
        yield Hold(0.1)
        assert not a.send(b, "halo", "v3", 8.0, exclusive=True)

    sim.spawn("s", sender(sim))
    sim.run()
    assert got == ["v1", "v3"]


# ----------------------------------------------------------------------
# Reliability mechanics
# ----------------------------------------------------------------------
def test_lost_message_is_retransmitted():
    # Loss window covers only the first attempt; the retry gets through.
    sim, a, b, injector = make_pair(
        MessageLoss(1.0, t0=0.0, t1=0.1), latency=0.01
    )
    got = []
    b.register_handler("data", lambda m: got.append(m.payload))
    a.send(b, "data", 42, 8.0)
    sim.run()
    assert got == [42]
    assert injector.stats["messages_dropped"] == 1
    assert injector.stats["retries"] == 1


def test_exhausted_retries_fire_failure_handler():
    sim, a, b, injector = make_pair(
        MessageLoss(1.0),  # everything drops, forever
        resilience=ResilienceConfig(base_timeout=0.1, max_attempts=3),
    )
    b.register_handler("data", lambda m: None)
    failures = []
    a.register_failure_handler("data", lambda m, d: failures.append((m.payload, d)))
    a.send(b, "data", "doomed", 8.0)
    sim.run()
    assert failures == [("doomed", False)]  # never delivered
    assert injector.stats["sends_failed"] == 1
    assert injector.stats["retries"] == 2  # attempts 2 and 3


def test_duplicates_are_suppressed():
    sim, a, b, injector = make_pair(MessageDuplication(1.0))
    got = []
    b.register_handler("data", lambda m: got.append(m.payload))
    a.send(b, "data", "once", 8.0)
    sim.run()
    assert got == ["once"]
    assert injector.stats["duplicates_injected"] >= 1
    assert b.duplicates_suppressed >= 1


def test_liveness_follows_heartbeats_and_silence():
    resilience = ResilienceConfig(
        base_timeout=0.5, heartbeat_period=1.0, liveness_timeout=2.5
    )
    sim, a, b, _ = make_pair(resilience=resilience)
    assert a.peer_alive(1)  # nothing heard yet, but t=0 is within timeout

    def beat(sim):
        for _ in range(3):
            yield Hold(1.0)
            b.send(a, "__hb__", None, 8.0)

    def probe(sim):
        yield Hold(3.0)
        alive_while_beating = a.peer_alive(1)
        yield Hold(4.0)  # beacons stopped at t=3
        assert alive_while_beating
        assert not a.peer_alive(1)

    sim.spawn("beat", beat(sim))
    sim.spawn("probe", probe(sim))
    sim.run()
    assert sim.now == 7.0


def test_crash_before_first_heartbeat_is_marked_dead():
    # Regression: a host that crashes with an unacked transfer pending
    # used to keep retransmitting from the grave (its retry timer never
    # checked ``alive``), and every ghost delivery refreshed the
    # receiver's ``_last_heard`` — so a peer that crashed before its
    # first heartbeat was never marked dead by ``peer_alive``.
    resilience = ResilienceConfig(
        base_timeout=1.0, liveness_timeout=2.5, max_attempts=8
    )
    sim, a, b, injector = make_pair(
        MessageLoss(rate=1.0, t0=0.0, t1=0.5), resilience=resilience
    )
    a.register_handler("data", lambda m: None)
    # b starts a reliable transfer whose first copy is lost, then
    # crashes before the retry timer (t = base_timeout) fires.
    assert b.send(a, "data", b"payload", 64.0)
    sim.at(0.2, lambda: setattr(b, "alive", False))
    for t in (1.0, 2.0, 3.0, 4.0):  # keep virtual time advancing
        sim.at(t, lambda: None)
    sim.run(until=4.0)
    # No ghost retransmissions: the transfer parked, a never heard
    # from the dead b, and the liveness view flipped to dead once the
    # timeout elapsed.
    assert b.retries == 0
    assert 1 not in a._last_heard
    assert not a.peer_alive(1)
    # Restart re-arms the parked transfer and it completes normally.
    b.alive = True
    assert b.resume_parked() == 1
    sim.run()
    assert b.retries == 1 and b.sends_failed == 0
    assert a.peer_alive(1)  # the (live) retransmission was heard


def test_resume_parked_skips_transfers_acked_during_downtime():
    # A copy already on the wire at crash time may deliver and ack
    # while the sender is down; the parked entry must then resolve
    # silently at restart instead of retransmitting a completed send.
    resilience = ResilienceConfig(base_timeout=0.5, max_attempts=8)
    sim, a, b, _ = make_pair(latency=1.0, resilience=resilience)
    a.register_handler("data", lambda m: None)
    assert b.send(a, "data", b"payload", 64.0)  # arrival ≈ t=1.0
    # Crash after the copy is in flight; the retry timer fires at
    # t=0.5 with in_flight > 0, re-arms, then fires again at t≈1.0+
    # after the ack — acked, so nothing parks; force the parked path
    # by crashing *before* the first timer instead.
    sim.at(0.1, lambda: setattr(b, "alive", False))
    sim.run(until=2.5)  # copy lands ≈ t=1.0, ack back ≈ t=2.0
    assert b._parked and b._parked[0].acked  # ack raced in while down
    b.alive = True
    assert b.resume_parked() == 0  # nothing to re-arm
    sim.run()
    assert b.retries == 0 and b.sends_failed == 0


# ----------------------------------------------------------------------
# Out-of-order delivery (property over fixed seeds)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_messages=st.integers(min_value=2, max_value=25),
)
def test_property_newest_wins_never_regresses(seed, n_messages):
    """Under random reordering delays, a newest-wins channel delivers a
    subsequence of strictly increasing versions ending at the newest."""
    sim, a, b, _ = make_pair(
        MessageReordering(0.8, max_extra_delay=3.0), seed=seed, latency=0.01
    )
    got = []
    b.register_handler("state", lambda m: got.append(m.payload), newest_wins=True)

    def sender(sim):
        for version in range(n_messages):
            a.send(b, "state", version, 8.0)
            yield Hold(0.05)  # well below max_extra_delay: races guaranteed

    sim.spawn("s", sender(sim))
    sim.run()
    assert got, "nothing delivered (reordering must not lose messages)"
    assert got == sorted(set(got)), f"stale state handled: {got}"
    assert got[-1] == n_messages - 1, "the newest version must win"
    # Every arriving copy is either handled or rejected as stale; with
    # retransmissions there may be more copies than messages.
    assert len(got) + b.stale_rejected >= n_messages


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_ordinary_kinds_deliver_exactly_once(seed):
    """Reordering scrambles arrival order but every distinct message is
    handled exactly once (duplicates from retries are suppressed)."""
    n_messages = 20
    sim, a, b, _ = make_pair(
        MessageReordering(0.8, max_extra_delay=3.0),
        MessageDuplication(0.3),
        seed=seed,
        latency=0.01,
    )
    got = []
    b.register_handler("event", lambda m: got.append(m.payload))

    def sender(sim):
        for i in range(n_messages):
            a.send(b, "event", i, 8.0)
            yield Hold(0.05)

    sim.spawn("s", sender(sim))
    sim.run()
    assert sorted(got) == list(range(n_messages))


def test_two_seeds_give_identical_delivery_schedules():
    def deliveries(seed):
        sim, a, b, _ = make_pair(
            MessageReordering(0.8, max_extra_delay=3.0), seed=seed
        )
        log = []
        b.register_handler("event", lambda m: log.append((sim.now, m.payload)))

        def sender(sim):
            for i in range(15):
                a.send(b, "event", i, 8.0)
                yield Hold(0.05)

        sim.spawn("s", sender(sim))
        sim.run()
        return log

    assert deliveries(7) == deliveries(7)
    assert deliveries(7) != deliveries(8)


def test_pinned_transport_snapshot_under_reordering_and_duplication():
    # What the guard's sequence check reads, mid-run and at the end: the
    # send counters, the newest-wins marks and the highest sequence number
    # seen per ordinary channel.
    sim, a, b, _ = make_pair(
        MessageReordering(0.8, max_extra_delay=3.0),
        MessageDuplication(0.3),
        seed=3,
        latency=0.01,
    )
    got = []
    b.register_handler("event", lambda m: got.append(m.payload))
    b.register_handler("state", lambda m: None, newest_wins=True)

    def sender(sim):
        for i in range(20):
            a.send(b, "event", i, 8.0)
            a.send(b, "state", i, 8.0)
            yield Hold(0.05)

    sim.spawn("s", sender(sim))
    sim.run(until=1.0)
    assert b.transport_snapshot() == {
        "send_seq": {},
        "recv_latest": {("state", 0): 18},
        "recv_seen_max": {("event", 0): 16},
    }
    sim.run()
    assert a.transport_snapshot() == {
        "send_seq": {("event", 1): 20, ("state", 1): 20},
        "recv_latest": {},
        "recv_seen_max": {},
    }
    assert b.transport_snapshot() == {
        "send_seq": {},
        "recv_latest": {("state", 0): 19},
        "recv_seen_max": {("event", 0): 19},
    }
    assert got == [
        2, 4, 12, 0, 1, 16, 11, 13, 6, 9, 8, 18, 19, 3, 5, 10, 14, 7, 17, 15,
    ]
    assert (b.duplicates_suppressed, b.stale_rejected) == (10, 19)


# ----------------------------------------------------------------------
# Receive window of an ordinary channel: exact, and bounded
# ----------------------------------------------------------------------
def _deliveries(node, seqs):
    """Hand ``seqs`` to ``node``'s receive filter; the verdict of each."""
    return [
        node._on_receive(Message("event", seq, 8.0, 0, 1, seq=seq)) for seq in seqs
    ]


def test_receive_window_in_order_stores_nothing():
    _, _, b, _ = make_pair()
    b.register_handler("event", lambda m: None)
    assert all(_deliveries(b, range(10_000)))
    window = b._recv_windows["event", 0]
    assert (window.floor, window.above, window.highest) == (10_000, set(), 9_999)
    assert b.transport_snapshot()["recv_seen_max"] == {("event", 0): 9_999}
    # Every one of them again: all duplicates, still nothing stored.
    assert not any(_deliveries(b, range(10_000)))
    assert b.duplicates_suppressed == 10_000 and window.above == set()


def test_receive_window_matches_a_set_under_reordering_and_duplication():
    # 10 000 deliveries: 7 500 sequence numbers, each arriving up to
    # ``reach`` positions late, a third of them twice.  Verdicts must equal
    # "have I seen it" over the set of everything received, while the
    # window stores only what sits above a gap.
    import random

    reach = 32
    rnd = random.Random(5)
    arrivals = [(seq + rnd.uniform(0, reach), seq) for seq in range(7_500)]
    arrivals += [
        (seq + rnd.uniform(0, reach), seq) for seq in rnd.sample(range(7_500), 2_500)
    ]
    _, _, b, _ = make_pair()
    b.register_handler("event", lambda m: None)
    window = b._recv_windows["event", 0]
    seen, highest, largest = set(), -1, 0
    for _, seq in sorted(arrivals):
        fresh = b._on_receive(Message("event", seq, 8.0, 0, 1, seq=seq))
        assert fresh == (seq not in seen)
        seen.add(seq)
        highest = max(highest, seq)
        largest = max(largest, len(window.above))
        assert window.highest == highest
    assert len(arrivals) == 10_000 and b.duplicates_suppressed == 2_500
    assert 0 < largest < reach
    assert (window.floor, window.above) == (7_500, set())


def test_receive_window_does_not_wait_for_a_send_that_failed():
    # Sequence number 0 is lost on every attempt: the sender gives up, and
    # what follows must not pile up above the gap it left.
    sim, a, b, injector = make_pair(
        MessageLoss(1.0, t0=0.0, t1=5.0),
        resilience=ResilienceConfig(base_timeout=0.1, max_attempts=3),
    )
    got = []
    b.register_handler("event", lambda m: got.append(m.payload))
    a.send(b, "event", "lost", 8.0)
    sim.at(6.0, lambda: [a.send(b, "event", i, 8.0) for i in range(50)])
    sim.run()
    assert injector.stats["sends_failed"] == 1
    window = b._recv_windows["event", 0]
    assert got == list(range(50))
    assert (window.floor, window.above, window.highest) == (51, set(), 50)
