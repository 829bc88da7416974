"""Tests for platform builders."""

import pytest

from repro.grid.platform import (
    Platform,
    SiteSpec,
    homogeneous_cluster,
    multi_site_grid,
    paper_heterogeneous_grid,
)
from repro.grid.host import Host
from repro.grid.link import Link
from repro.grid.network import Network
from repro.util.rng import RngTree


def test_homogeneous_cluster_shape():
    p = homogeneous_cluster(8, speed=500.0)
    assert len(p) == 8
    assert all(h.speed == 500.0 for h in p.hosts)
    assert all(h.site == "cluster" for h in p.hosts)
    # Dedicated machines: availability is 1 everywhere.
    assert all(h.speed * h.trace.value(123.0) == 500.0 for h in p.hosts)


def test_homogeneous_cluster_unique_names_and_lookup():
    p = homogeneous_cluster(4)
    names = {h.name for h in p.hosts}
    assert len(names) == 4
    assert p.host("node-02").name == "node-02"
    with pytest.raises(KeyError):
        p.host("nope")


def test_platform_rejects_duplicate_names():
    h = Host("x", 1.0)
    with pytest.raises(ValueError):
        Platform(hosts=[h, Host("x", 2.0)], network=Network(Link(0, 1)))


def test_multi_site_grid_structure():
    tree = RngTree(11)
    sites = [
        SiteSpec("a", 3, speed_range=(100.0, 200.0)),
        SiteSpec("b", 2, speed_range=(300.0, 400.0)),
    ]
    p = multi_site_grid(sites, tree)
    assert len(p) == 5
    assert sorted(p.sites) == ["a", "b"]
    assert len(p.sites["a"]) == 3
    for h in p.sites["a"]:
        assert 100.0 <= h.speed <= 200.0
    for h in p.sites["b"]:
        assert 300.0 <= h.speed <= 400.0


def test_multi_site_grid_intersite_link_is_slower():
    tree = RngTree(11)
    sites = [SiteSpec("a", 1), SiteSpec("b", 1)]
    p = multi_site_grid(sites, tree)
    ha, hb = p.sites["a"][0], p.sites["b"][0]
    wan = p.network.link_for(ha, hb)
    lan = p.network.link_for(ha, ha)
    assert wan.latency > lan.latency
    assert wan.bandwidth < lan.bandwidth


def test_multi_site_grid_deterministic():
    p1 = multi_site_grid([SiteSpec("a", 4)], RngTree(5))
    p2 = multi_site_grid([SiteSpec("a", 4)], RngTree(5))
    assert [h.speed for h in p1.hosts] == [h.speed for h in p2.hosts]
    p3 = multi_site_grid([SiteSpec("a", 4)], RngTree(6))
    assert [h.speed for h in p1.hosts] != [h.speed for h in p3.hosts]


def test_multi_site_grid_requires_sites():
    with pytest.raises(ValueError):
        multi_site_grid([], RngTree(0))


def test_paper_grid_is_15_machines_3_sites():
    p = paper_heterogeneous_grid(RngTree(42))
    assert len(p) == 15
    assert len(p.sites) == 3
    speeds = [h.speed for h in p.hosts]
    # Heterogeneity: the spread should approach the paper's 3.5x.
    assert max(speeds) / min(speeds) > 1.5
    # Multi-user machines: availability varies over time for at least one host.
    h = p.hosts[0]
    values = {h.trace.value(t) for t in range(0, 500, 7)}
    assert len(values) > 1
