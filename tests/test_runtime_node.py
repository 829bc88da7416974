"""Tests for the PM2-like messaging layer."""

import pytest

from repro.des import Hold, Simulator, SimulationError
from repro.grid.host import Host
from repro.grid.link import Link
from repro.grid.network import Network
from repro.runtime.node import GridNode
from repro.runtime.tracer import Tracer


def make_pair(latency=1.0, bandwidth=1e6):
    sim = Simulator()
    net = Network(Link(latency=latency, bandwidth=bandwidth))
    tracer = Tracer()
    a = GridNode(sim, 0, Host("a", 1.0), net, tracer)
    b = GridNode(sim, 1, Host("b", 1.0), net, tracer)
    return sim, a, b, tracer


def test_send_delivers_to_handler_at_arrival_time():
    sim, a, b, _ = make_pair(latency=2.0)
    received = []
    b.register_handler("data", lambda msg: received.append((sim.now, msg.payload)))

    def sender(sim):
        yield Hold(1.0)
        a.send(b, "data", {"x": 1}, size_bytes=0)

    sim.spawn("s", sender(sim))
    sim.run()
    assert received == [(3.0, {"x": 1})]


def test_handler_sees_message_metadata():
    sim, a, b, _ = make_pair(latency=0.5)
    seen = []
    b.register_handler("data", lambda msg: seen.append(msg))
    a.send(b, "data", None, size_bytes=100)
    sim.run()
    (msg,) = seen
    assert msg.src_rank == 0
    assert msg.dst_rank == 1
    assert msg.send_time == 0.0
    assert msg.arrival_time == pytest.approx(0.5 + 100 / 1e6)


def test_missing_handler_is_an_error():
    sim, a, b, _ = make_pair()
    a.send(b, "unknown", None, size_bytes=0)
    with pytest.raises(SimulationError, match="no handler"):
        sim.run()


def test_duplicate_handler_rejected():
    sim, a, _, _ = make_pair()
    a.register_handler("k", lambda m: None)
    with pytest.raises(ValueError):
        a.register_handler("k", lambda m: None)


def test_exclusive_send_suppressed_while_in_flight():
    sim, a, b, _ = make_pair(latency=10.0)
    received = []
    b.register_handler("halo", lambda msg: received.append(msg.payload))

    def sender(sim):
        assert a.send(b, "halo", 1, size_bytes=0, exclusive=True)
        yield Hold(1.0)
        # Previous send still in flight (arrives at t=10): suppressed.
        assert not a.send(b, "halo", 2, size_bytes=0, exclusive=True)
        assert a.channel_busy("halo", b.rank)
        yield Hold(10.0)  # now t=11, first send arrived at t=10
        assert not a.channel_busy("halo", b.rank)
        assert a.send(b, "halo", 3, size_bytes=0, exclusive=True)

    sim.spawn("s", sender(sim))
    sim.run()
    assert received == [1, 3]


def test_exclusive_channels_are_per_kind_and_destination():
    sim, a, b, _ = make_pair(latency=10.0)
    b.register_handler("left", lambda m: None)
    b.register_handler("right", lambda m: None)
    assert a.send(b, "left", None, 0, exclusive=True)
    # Different kind: independent channel.
    assert a.send(b, "right", None, 0, exclusive=True)
    sim.run()


def test_non_exclusive_sends_never_suppressed():
    sim, a, b, _ = make_pair(latency=10.0)
    received = []
    b.register_handler("data", lambda msg: received.append(msg.payload))
    for i in range(5):
        assert a.send(b, "data", i, size_bytes=0)
    sim.run()
    assert received == [0, 1, 2, 3, 4]


def test_fifo_ordering_preserved_for_growing_sizes():
    # A later small message must not overtake an earlier big one.
    sim, a, b, _ = make_pair(latency=0.0, bandwidth=1.0)
    received = []
    b.register_handler("data", lambda msg: received.append(msg.payload))

    def sender(sim):
        a.send(b, "data", "big", size_bytes=100.0)
        yield Hold(1.0)
        a.send(b, "data", "small", size_bytes=1.0)

    sim.spawn("s", sender(sim))
    sim.run()
    assert received == ["big", "small"]


def test_tracer_records_messages():
    sim, a, b, tracer = make_pair(latency=1.0)
    b.register_handler("data", lambda m: None)
    a.send(b, "data", None, size_bytes=64)
    sim.run()
    (rec,) = tracer.messages
    assert rec.kind == "data"
    assert rec.src_rank == 0 and rec.dst_rank == 1
    assert rec.size_bytes == 64
    assert rec.arrival_time > rec.send_time


def test_handler_can_send_back():
    sim, a, b, _ = make_pair(latency=1.0)
    log = []
    b.register_handler("ping", lambda m: b.send(a, "pong", m.payload + 1, 0))
    a.register_handler("pong", lambda m: log.append((sim.now, m.payload)))
    a.send(b, "ping", 10, 0)
    sim.run()
    assert log == [(2.0, 11)]


def test_exclusive_channel_is_busy_until_exactly_the_delivery_event():
    """The lossless transport frees an exclusive channel inside the
    delivery event itself: an event scheduled at the arrival time but
    *before* the send still sees it busy, the handler and anything
    scheduled after the send see it free."""
    sim, a, b, _ = make_pair(latency=4.0)
    seen = []

    def probe(label):
        seen.append((label, sim.now, a.channel_busy("halo", b.rank),
                     a.send(b, "halo", label, size_bytes=0, exclusive=True)))

    b.register_handler(
        "halo",
        lambda msg: seen.append(
            ("handler", sim.now, a.channel_busy("halo", b.rank), msg.payload)
        ),
    )
    sim.at(4.0, probe, "before-delivery")  # same time, earlier sequence
    assert a.send(b, "halo", "first", size_bytes=0, exclusive=True)
    sim.at(2.0, probe, "in-flight")
    sim.at(4.0, probe, "after-delivery")  # same time, later sequence
    sim.run()
    assert seen == [
        ("in-flight", 2.0, True, False),
        ("before-delivery", 4.0, True, False),
        ("handler", 4.0, False, "first"),
        ("after-delivery", 4.0, False, True),
        ("handler", 8.0, False, "after-delivery"),
    ]
    assert not a.channel_busy("halo", b.rank)


def test_non_exclusive_delivery_leaves_an_exclusive_channel_busy():
    sim, a, b, _ = make_pair(latency=4.0)
    b.register_handler("halo", lambda msg: None)
    assert a.send(b, "halo", "slow", size_bytes=4e6, exclusive=True)  # t=8
    assert a.send(b, "halo", "fast", size_bytes=0)  # arrives t=4
    sim.run(until=5.0)
    assert a.channel_busy("halo", b.rank)
    sim.run()
    assert not a.channel_busy("halo", b.rank)


def test_missing_handler_error_names_rank_and_kind():
    sim, a, b, _ = make_pair()
    b.register_handler("known", lambda msg: None)
    a.send(b, "known", None, size_bytes=0)
    a.send(b, "mystery", None, size_bytes=0, exclusive=True)
    with pytest.raises(SimulationError, match="scheduled callback") as info:
        sim.run()
    cause = info.value.__cause__
    assert isinstance(cause, LookupError)
    assert "rank 1" in str(cause) and "'mystery'" in str(cause)
