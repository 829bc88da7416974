"""Property tests for the topology graph layer (ISSUE 8 tentpole)."""

import networkx as nx
import pytest

from repro.topology.graphs import (
    TOPOLOGY_FAMILIES,
    Topology,
    TopologySpec,
    build_topology,
    spec_for_family,
)


def _neighbors(topo):
    """Per-node sorted neighbour tuples, read off ``topo.edges()``."""
    nbrs = [[] for _ in range(topo.n_nodes)]
    for u, v in topo.edges():
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [tuple(sorted(nb)) for nb in nbrs]


def _chain(n):
    return build_topology(TopologySpec("chain", n))


@pytest.mark.parametrize("family", TOPOLOGY_FAMILIES)
@pytest.mark.parametrize("n", [8, 16, 25])
def test_generators_connected_and_well_formed(family, n):
    topo = build_topology(spec_for_family(family, n, seed=2))
    g = nx.Graph()
    g.add_nodes_from(range(topo.n_nodes))
    g.add_edges_from(topo.edges())
    assert nx.is_connected(g)
    # Integer nodes 0..n-1, canonical u < v edges, sorted neighbours.
    for u, v in topo.edges():
        assert 0 <= u < v < topo.n_nodes
    neighbors = _neighbors(topo)
    for u, nbrs in enumerate(neighbors):
        assert list(nbrs) == sorted(set(nbrs))
        assert u not in nbrs
    assert max(len(nbrs) for nbrs in neighbors) < topo.n_nodes


@pytest.mark.parametrize("family", TOPOLOGY_FAMILIES)
def test_generators_seed_deterministic(family):
    spec = spec_for_family(family, 16, seed=7)
    a = build_topology(spec)
    b = build_topology(spec)
    assert a.edges() == b.edges()
    assert a.digest() == b.digest()


@pytest.mark.parametrize("family", ["random_geometric", "expander"])
def test_random_families_vary_with_seed(family):
    a = build_topology(spec_for_family(family, 32, seed=0))
    b = build_topology(spec_for_family(family, 32, seed=1))
    assert a.edges() != b.edges()
    assert a.digest() != b.digest()


def test_digest_covers_edges_not_just_spec():
    spec = spec_for_family("ring", 8)
    topo = build_topology(spec)
    digests = {build_topology(spec).digest() for _ in range(3)}
    assert digests == {topo.digest()}
    # Different families at the same size have different digests.
    assert (
        build_topology(spec_for_family("chain", 8)).digest()
        != topo.digest()
    )


def test_spec_round_trip_and_validation():
    spec = spec_for_family("torus", 16, seed=3)
    again = TopologySpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.digest() == spec.digest()
    with pytest.raises(ValueError):
        TopologySpec(family="moebius", n=8)


@pytest.mark.parametrize(
    "family,expected_degree",
    [("mesh2d", 4), ("torus", 4), ("hypercube", 4), ("mesh3d", 6)],
)
def test_degree_bounds(family, expected_degree):
    topo = build_topology(spec_for_family(family, 16, seed=0))
    assert max(len(nbrs) for nbrs in _neighbors(topo)) <= expected_degree


def test_hypercube_requires_power_of_two():
    with pytest.raises(ValueError):
        build_topology(TopologySpec(family="hypercube", n=12))
    topo = build_topology(TopologySpec(family="hypercube", n=16))
    assert [len(nbrs) for nbrs in _neighbors(topo)] == [4] * 16


def test_hierarchy_link_classes():
    topo = build_topology(spec_for_family("hierarchy", 16, seed=0))
    classes = {topo.link_class(u, v) for u, v in topo.edges()}
    assert classes == {"lan", "wan"}
    assert sum(topo.link_class(u, v) == "wan" for u, v in topo.edges()) > 0
    # Non-hierarchy families are all-LAN.
    flat = build_topology(spec_for_family("torus", 16, seed=0))
    assert {flat.link_class(u, v) for u, v in flat.edges()} == {"lan"}


def test_disconnected_edge_set_rejected():
    spec = TopologySpec(family="chain", n=4)
    with pytest.raises(ValueError):
        Topology(spec, 4, [(0, 1)])


def test_nodes_outside_zero_to_n_rejected():
    spec = TopologySpec(family="chain", n=3)
    with pytest.raises(ValueError, match="nodes 0..2"):
        Topology(spec, 3, [(0, 1), (1, 3)])
    with pytest.raises(ValueError, match="nodes 0..2"):
        Topology(spec, 3, [(-1, 0), (0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Topology(spec, 0, [])


def test_edges_normalised_and_self_loop_rejected():
    spec = TopologySpec(family="chain", n=3)
    # Either orientation, listed twice: stored once as (u, v), u < v.
    topo = Topology(spec, 3, [(1, 0), (0, 1), (2, 1), (1, 2)])
    assert topo.edges() == [(0, 1), (1, 2)]
    assert topo.digest() == _chain(3).digest()
    with pytest.raises(ValueError):
        Topology(spec, 3, [(0, 1), (1, 2), (2, 2)])


def test_single_node_topology():
    topo = _chain(1)
    assert topo.n_nodes == 1
    assert topo.edges() == []
    assert topo.digest() == (
        "08be40d4cbb721f2703f8d0a76df3e6fc39ded0d331779937ea8e2fa1f1a4072"
    )


def test_topology_holds_no_graph():
    topo = build_topology(spec_for_family("ring", 8))
    assert not hasattr(topo, "graph")
    assert "n_nodes" in vars(topo)  # a stored integer, not a property


# Literal values recorded before Topology stopped holding an nx.Graph:
# the representation may change, the built edge sets may not.
PINNED_FAMILY_DIGESTS = {
    "chain": "36204efa72825aaae6b1f9fbf56ede48d8b325396c8e7eb2ee4f3e936c78e21f",
    "ring": "9ab6cb6099ba961d609abb91f942db4ae93ebc5636f0f6918717ea15caba6612",
    "mesh2d": "6132171f6d6f40311bc2d6eaafed0b6d0b28fbbe1e1e8a55948b90fe7c6b7783",
    "mesh3d": "6e382ca938e3286c07ea3a894ebf1c93faebb3055f63ac1b1c24dc59cd24f9e9",
    "torus": "87d455c87bef76d1abb049d11a73376469ce2851da37e913d83eceffbaa9a384",
    "hypercube": "7bfcd3f996872e43516edb90aec3ecf33b3713f2596098255015d264b616431e",
    "random_geometric": "97a29c5b862a6af863bb99585c740d801929a160eab677f6aaf1922289776de5",
    "expander": "19a7dea4c7da9ec7129308c0d6cfe8a3f41391d422888c5d9d546441ba61de67",
    "hierarchy": "b76c5859d1f8ad11fa73c0ae0a25bdc9820bcec5813ee170253607e4c1579984",
}


def test_pinned_family_digests():
    assert set(PINNED_FAMILY_DIGESTS) == set(TOPOLOGY_FAMILIES)
    built = {
        family: build_topology(spec_for_family(family, 16, seed=1)).digest()
        for family in TOPOLOGY_FAMILIES
    }
    assert built == PINNED_FAMILY_DIGESTS


def test_pinned_solver_chain():
    chain = _chain(15)
    assert chain.edges() == [(i, i + 1) for i in range(14)]
    assert chain.digest() == (
        "ac16bc573a5325e679918726750300cfcadfa12e26c53bea84f9aa7de7926cec"
    )
