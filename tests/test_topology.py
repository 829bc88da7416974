"""Tests for logical chain orderings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.platform import SiteSpec, multi_site_grid
from repro.topology import interleaved_sites_order
from repro.util.rng import RngTree


def test_interleaved_sites_alternate():
    plat = multi_site_grid(
        [SiteSpec("a", 3), SiteSpec("b", 3)], RngTree(1)
    )
    order = interleaved_sites_order(plat)
    assert sorted(order) == list(range(6))
    sites = [plat.hosts[i].site for i in order]
    # Adjacent ranks sit on different sites.
    assert all(s1 != s2 for s1, s2 in zip(sites, sites[1:]))


def test_interleaved_sites_uneven():
    plat = multi_site_grid(
        [SiteSpec("a", 4), SiteSpec("b", 1)], RngTree(1)
    )
    order = interleaved_sites_order(plat)
    assert sorted(order) == list(range(5))


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_property_interleaved_sites_unequal_sizes(sizes):
    """Round-robin stays a permutation and stays fair for *any* mix of
    site sizes (``src/repro/topology/logical.py:40``)."""
    specs = [SiteSpec(f"s{i}", n) for i, n in enumerate(sizes)]
    plat = multi_site_grid(specs, RngTree(7))
    order = interleaved_sites_order(plat)
    total = sum(sizes)
    # A permutation of all hosts...
    assert sorted(order) == list(range(total))
    # ...that preserves each site's internal host order...
    by_site: dict[str, list[int]] = {}
    for host_idx in order:
        by_site.setdefault(plat.hosts[host_idx].site, []).append(host_idx)
    for site, hosts in by_site.items():
        assert hosts == sorted(hosts)
        assert len(hosts) == sizes[int(site[1:])]
    # ...and is fair: within any prefix, no site is ever more than one
    # pick ahead of a site that still has hosts left to place.
    placed = {spec.name: 0 for spec in specs}
    remaining = {spec.name: size for spec, size in zip(specs, sizes)}
    for host_idx in order:
        site = plat.hosts[host_idx].site
        others_behind = [
            s
            for s in placed
            if s != site and remaining[s] > 0 and placed[s] < placed[site]
        ]
        assert not [s for s in others_behind if placed[site] - placed[s] > 1]
        placed[site] += 1
        remaining[site] -= 1
