"""Tests for links, network routing and FIFO delivery."""

import copy

import pytest

from repro.grid.host import Host
from repro.grid.link import Link
from repro.grid.network import _FIFO_EPSILON, Network
from repro.grid.platform import (
    Platform,
    homogeneous_cluster,
    paper_heterogeneous_grid,
)
from repro.util.rng import RngTree
from tests.oracles import PiecewiseTrace


def make_hosts():
    a = Host("a", speed=1.0, site="s1")
    b = Host("b", speed=1.0, site="s1")
    c = Host("c", speed=1.0, site="s2")
    return a, b, c


def test_link_transfer_time():
    link = Link(latency=0.01, bandwidth=1e6)
    assert link.transfer_time(0, 0.0) == pytest.approx(0.01)
    assert link.transfer_time(1e6, 0.0) == pytest.approx(1.01)


def test_link_fluctuation_slows_transfers():
    bw_trace = PiecewiseTrace([0.0, 10.0], [1.0, 0.5])
    link = Link(latency=0.0, bandwidth=1e6, bandwidth_trace=bw_trace)
    assert link.transfer_time(1e6, 0.0) == pytest.approx(1.0)
    assert link.transfer_time(1e6, 10.0) == pytest.approx(2.0)


def test_link_latency_fluctuation():
    lat_trace = PiecewiseTrace([0.0, 10.0], [1.0, 0.5])
    link = Link(latency=0.01, bandwidth=1e9, latency_trace=lat_trace)
    assert link.transfer_time(0, 20.0) == pytest.approx(0.02)


def test_link_validation():
    with pytest.raises(ValueError):
        Link(latency=-1, bandwidth=1)
    with pytest.raises(ValueError):
        Link(latency=0, bandwidth=0)


def test_network_routing_priority():
    a, b, c = make_hosts()
    default = Link(latency=1.0, bandwidth=1e6, name="default")
    site = Link(latency=2.0, bandwidth=1e6, name="site")
    net = Network(default)
    assert net.link_for(a, b) is default
    net.set_site_link("s1", "s2", site)
    assert net.link_for(a, c) is site
    assert net.link_for(c, a) is site  # registered both ways
    assert net.link_for(a, b) is default  # same site: still the default


def test_fifo_no_overtaking():
    a, b, _ = make_hosts()
    # Bandwidth such that a big message takes 10 s, a small one 1 s.
    net = Network(Link(latency=0.0, bandwidth=1.0))
    t_big = net.arrival_time(a, b, nbytes=10.0, now=0.0)
    t_small = net.arrival_time(a, b, nbytes=1.0, now=0.5)
    assert t_big == pytest.approx(10.0)
    assert t_small > t_big  # clamped behind the big message


def test_fifo_independent_channels():
    a, b, c = make_hosts()
    net = Network(Link(latency=0.0, bandwidth=1.0))
    t_ab = net.arrival_time(a, b, nbytes=10.0, now=0.0)
    t_ac = net.arrival_time(a, c, nbytes=1.0, now=0.0)
    assert t_ac == pytest.approx(1.0)
    assert t_ab == pytest.approx(10.0)
    # Reverse direction is its own channel too.
    t_ba = net.arrival_time(b, a, nbytes=1.0, now=0.0)
    assert t_ba == pytest.approx(1.0)


def test_network_accounting():
    a, b, _ = make_hosts()
    net = Network(Link(latency=0.0, bandwidth=1e3))
    net.arrival_time(a, b, 100.0, 0.0)
    net.arrival_time(a, b, 200.0, 0.0)
    assert net.bytes_sent == 300.0
    assert net.messages_sent == 2


def test_site_link_key_is_symmetric():
    a, b, c = make_hosts()
    net = Network(Link(latency=0.0, bandwidth=1.0))
    fast = Link(latency=0.001, bandwidth=1e9)
    net.set_site_link("s1", "s2", fast)
    # Lookup and registration must agree regardless of argument order.
    assert net.site_link("s2", "s1") is fast
    assert net.site_link("s1", "s2") is fast
    slow = Link(latency=0.5, bandwidth=1.0)
    net.set_site_link("s2", "s1", slow)  # overwrite via the flipped key
    assert net.site_link("s1", "s2") is slow


# ----------------------------------------------------------------------
# reset(): per-run state must not leak across runs
# ----------------------------------------------------------------------
def _arrival_sequence(network, a, b):
    return [network.arrival_time(a, b, 1000.0, t) for t in (0.0, 0.0, 0.5)]


def test_reset_clears_fifo_clamp_and_counters():
    a, b, _ = make_hosts()
    network = Network(Link(latency=0.01, bandwidth=1e6))
    first = _arrival_sequence(network, a, b)
    assert network.messages_sent == 3
    assert network.bytes_sent == pytest.approx(3000.0)
    network.reset()
    assert network.messages_sent == 0
    assert network.bytes_sent == 0.0
    # Back-to-back runs over the same network are identical after reset.
    assert _arrival_sequence(network, a, b) == first


def test_without_reset_fifo_state_leaks_into_next_run():
    """Documents the bug reset() fixes: a reused network clamps the next
    run's arrivals behind the previous run's last delivery."""
    a, b, _ = make_hosts()
    network = Network(Link(latency=0.01, bandwidth=1e6))
    first = _arrival_sequence(network, a, b)
    leaked = _arrival_sequence(network, a, b)
    assert leaked[0] > first[0]


# ----------------------------------------------------------------------
# The resolved route per directed host pair
# ----------------------------------------------------------------------
def _two_site_platform():
    a, b, c = make_hosts()
    wan = Link(
        latency=0.5,
        bandwidth=1e4,
        bandwidth_trace=PiecewiseTrace([0.0, 3.0, 7.0], [1.0, 0.3, 0.8]),
    )
    net = Network(Link(latency=1e-3, bandwidth=1e6))
    net.set_site_link("s1", "s2", wan)
    return Platform(hosts=[a, b, c], network=net)


@pytest.mark.parametrize(
    "build",
    [
        lambda: homogeneous_cluster(3),
        lambda: paper_heterogeneous_grid(RngTree(7)),  # Table 1's three sites
        _two_site_platform,
    ],
    ids=["default-link", "three-site-grid", "two-site"],
)
def test_arrival_times_equal_link_for_plus_the_formula(build):
    """Byte-equal to resolving the link on every message."""
    platform, reference = build(), build()
    hosts = platform.hosts
    pairs = [
        (i, j)
        for i in (0, 1, len(hosts) // 2, len(hosts) - 1)
        for j in (0, 1, len(hosts) - 1)
        if i != j
    ]
    last = {}
    clamped = 0
    for step in range(40):
        # Bursts (two sends at one instant) make the FIFO clamp bind.
        now = 0.37 * (step // 2)
        for i, j in pairs:
            nbytes = 64.0 + 1000.0 * ((step + i + 3 * j) % 5)
            got = platform.network.arrival_time(hosts[i], hosts[j], nbytes, now)
            src, dst = reference.hosts[i], reference.hosts[j]
            link = reference.network.link_for(src, dst)
            want = now + link.transfer_time(nbytes, now)
            previous = last.get((i, j), -float("inf"))
            clamped += previous + _FIFO_EPSILON > want
            want = last[i, j] = max(want, previous + _FIFO_EPSILON)
            assert got == want
    assert clamped  # the probe exercised both branches of the clamp


def test_registering_a_link_after_a_timed_message_reroutes_the_next_one():
    a, b, c = make_hosts()
    net = Network(Link(latency=1.0, bandwidth=1e9))
    assert net.arrival_time(a, c, 0.0, 0.0) == 1.0  # resolved: default link
    net.set_site_link("s2", "s1", Link(latency=2.0, bandwidth=1e9))
    assert net.arrival_time(a, c, 0.0, 10.0) == 12.0
    assert net.arrival_time(c, a, 0.0, 10.0) == 12.0
    net.set_site_link("s1", "s2", Link(latency=3.0, bandwidth=1e9))
    assert net.arrival_time(a, c, 0.0, 20.0) == 23.0
    assert net.arrival_time(c, a, 0.0, 20.0) == 23.0
    assert net.arrival_time(a, b, 0.0, 20.0) == 21.0  # untouched pair: default


def test_in_place_latency_change_is_seen_through_the_resolved_route():
    """What ``LatencySpike`` does: the link object is mutated, not replaced."""
    a, b, _ = make_hosts()
    link = Link(latency=1.0, bandwidth=1e9)
    net = Network(link)
    assert net.arrival_time(a, b, 0.0, 0.0) == 1.0
    link.latency = 4.0
    assert net.arrival_time(a, b, 0.0, 10.0) == 14.0
    link.latency = 1.0
    assert net.arrival_time(a, b, 0.0, 20.0) == 21.0


def test_deep_copied_platform_keeps_its_own_routes_and_fifo_state():
    platform = _two_site_platform()
    a, _, c = platform.hosts
    first = platform.network.arrival_time(a, c, 100.0, 0.0)  # resolves a -> c
    clone = copy.deepcopy(platform)
    ca, _, cc = clone.hosts
    # The copy carries the FIFO clamp it was copied with ...
    assert clone.network.arrival_time(ca, cc, 0.0, 0.0) == first + _FIFO_EPSILON
    # ... its resolved route points at its *own* link objects ...
    clone.network.link_for(ca, cc).latency = 9.0
    assert clone.network.arrival_time(ca, cc, 0.0, 50.0) == 59.0
    assert platform.network.arrival_time(a, c, 0.0, 50.0) == 50.5
    # ... and a reset of one leaves the other's state alone.
    clone.network.reset()
    assert clone.network.messages_sent == 0
    assert platform.network.messages_sent == 2
