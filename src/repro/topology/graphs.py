"""Arbitrary communication topologies: generators + the ``Topology`` type.

The paper confines its experiments to a logical *linear chain* of 15
machines.  ROADMAP item 2 asks for the general-graph regimes studied by
Demirel & Sbalzarini ("Balancing indivisible real-valued loads in
arbitrary networks") and Berenbrink et al. ("Dynamic Averaging Load
Balancing on Arbitrary Graphs"): meshes, tori, hypercubes, random
geometric graphs, expanders and multi-site hierarchies.  This module is
the graph layer those regimes run on:

* :class:`TopologySpec` — a frozen, JSON-round-trippable description of
  a topology (family + parameters + seed) whose :meth:`~TopologySpec.digest`
  is stable across processes and construction orders;
* :class:`Topology` — the built artifact, a plain value: the node count
  (nodes are the integers ``0..n-1``), the sorted edge tuple, per-edge
  **link classes** (``"lan"`` vs ``"wan"`` — a hierarchy's inter-site
  links cost more, which the zoo's communication accounting charges
  for), and a content digest covering the exact edge set;
* :func:`build_topology` — the seeded generator dispatch; every family
  is deterministic for a given spec (randomness flows through
  :func:`~repro.util.rng.spawn_generator` named streams, never through
  library-internal RNG) and every built graph is connected.

These are the balancing zoo's types (:mod:`repro.balancing.zoo`,
:mod:`repro.experiments.topology_zoo`).  The PDE solver does not use
them: its chain is ``rank ± 1`` (:mod:`repro.core.solver`,
:mod:`repro.core.partition`), so the paper's experiments never load
this module.

:class:`Topology` is graph-free: it holds no ``networkx`` object, and
neither importing this module nor building a chain imports networkx.
Only :func:`build_topology` does, inside the call, for the eight
non-chain families (their generators are networkx's).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from repro.analysis.perf import stable_digest
from repro.util.rng import spawn_generator

__all__ = [
    "TOPOLOGY_FAMILIES",
    "Topology",
    "TopologySpec",
    "build_topology",
    "spec_for_family",
]

#: Every generator family ``build_topology`` understands.
TOPOLOGY_FAMILIES = (
    "chain",
    "ring",
    "mesh2d",
    "mesh3d",
    "torus",
    "hypercube",
    "random_geometric",
    "expander",
    "hierarchy",
)


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of a topology; the zoo's cache-key unit.

    ``n`` is the *requested* node count; families with structural
    constraints (meshes need a box, hypercubes a power of two) may build
    a slightly different count — :func:`spec_for_family` picks the
    nearest valid parameters, and :attr:`Topology.n_nodes` is the truth.

    Attributes
    ----------
    family:
        One of :data:`TOPOLOGY_FAMILIES`.
    n:
        Node count (``chain``/``ring``/``random_geometric``/``expander``)
        or the product of ``dims`` (meshes/tori), ``2**d`` (hypercube),
        ``sites * site_size`` (hierarchy).
    seed:
        Root seed of the generator's named RNG streams (only the random
        families draw from it).
    dims:
        Mesh/torus box, e.g. ``(4, 4)`` or ``(3, 3, 3)``.
    degree:
        Target degree of the ``expander`` family (cycle + seeded
        matchings, so actual degrees are ``2..degree``).
    radius:
        Connection radius of ``random_geometric`` on the unit square.
    sites, site_size:
        Shape of the ``hierarchy`` family: ``sites`` rings of
        ``site_size`` machines, gateways meshed by WAN links.
    """

    family: str
    n: int = 0
    seed: int = 0
    dims: tuple[int, ...] = ()
    degree: int = 4
    radius: float = 0.35
    sites: int = 3
    site_size: int = 4

    def __post_init__(self) -> None:
        if self.family not in TOPOLOGY_FAMILIES:
            raise ValueError(
                f"unknown topology family {self.family!r}; "
                f"choose from {TOPOLOGY_FAMILIES}"
            )
        # Tolerate JSON round trips (lists) without breaking frozen-ness.
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    def to_dict(self) -> dict:
        data = asdict(self)
        data["dims"] = list(self.dims)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TopologySpec":
        return cls(**{**data, "dims": tuple(data.get("dims", ()))})

    def digest(self) -> str:
        """Stable content address of the spec (canonical-JSON SHA-256)."""
        return stable_digest(self.to_dict())

    def label(self) -> str:
        """Short human-readable tag for report rows."""
        if self.family in ("mesh2d", "mesh3d", "torus") and self.dims:
            shape = "x".join(str(d) for d in self.dims)
            return f"{self.family}[{shape}]"
        if self.family == "hierarchy":
            return f"hierarchy[{self.sites}x{self.site_size}]"
        return f"{self.family}[{self.n}]"


class Topology:
    """A built communication topology: node count, edges, link classes.

    Nodes are always the integers ``0..n-1`` (generators relabel
    structured node names deterministically), so load vectors index
    directly.  Edges carry a *link class* — ``"lan"`` by default,
    ``"wan"`` for a hierarchy's inter-site links — which the zoo's
    communication-cost accounting weights.

    ``edges`` may list an edge in either orientation and more than
    once; it is stored once as ``(u, v)`` with ``u < v``.  The edge set
    must connect all ``n_nodes`` nodes.
    """

    def __init__(
        self,
        spec: TopologySpec,
        n_nodes: int,
        edges: Iterable[tuple[int, int]],
        *,
        link_classes: dict[tuple[int, int], str] | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"topology needs n_nodes >= 1, got {n_nodes}")
        self.spec = spec
        self.n_nodes = n_nodes
        self._edges = tuple(sorted({_edge_key(u, v) for u, v in edges}))
        neighbors: list[list[int]] = [[] for _ in range(n_nodes)]
        for u, v in self._edges:
            if not 0 <= u < v < n_nodes:
                raise ValueError(
                    f"edge ({u}, {v}) does not join two of the nodes "
                    f"0..{n_nodes - 1}"
                )
            neighbors[u].append(v)
            neighbors[v].append(u)
        seen, frontier = {0}, [0]  # connected iff a search from 0 sees all
        while frontier:
            for v in neighbors[frontier.pop()]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) != n_nodes:
            raise ValueError(f"{spec.label()}: generated graph is not connected")
        self._link_classes = {
            _edge_key(u, v): cls for (u, v), cls in (link_classes or {}).items()
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``, sorted."""
        return list(self._edges)

    def link_class(self, u: int, v: int) -> str:
        """The link class of edge ``(u, v)`` (``"lan"`` unless marked)."""
        return self._link_classes.get(_edge_key(u, v), "lan")

    def digest(self) -> str:
        """Content digest: spec + exact edge set + link classes.

        Two processes building the same spec must agree byte-for-byte —
        ``tests/test_topology_graphs.py`` pins each family's digest.
        """
        return stable_digest(
            {
                "spec": self.spec.to_dict(),
                "edges": [list(e) for e in self._edges],
                "links": {
                    f"{u}-{v}": self.link_class(u, v) for u, v in self._edges
                },
            }
        )


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _from_graph(spec: TopologySpec, graph, **kwargs) -> Topology:
    """The :class:`Topology` of a networkx ``graph``, its (possibly
    tuple) node names relabelled to ``0..n-1`` by sorted order."""
    index = {node: i for i, node in enumerate(sorted(graph.nodes()))}
    edges = [(index[u], index[v]) for u, v in graph.edges()]
    return Topology(spec, len(index), edges, **kwargs)


# ---------------------------------------------------------------------------
# Generators (all deterministic; all connected)
# ---------------------------------------------------------------------------


def _gen_chain(spec: TopologySpec) -> Topology:
    return Topology(spec, spec.n, [(i, i + 1) for i in range(spec.n - 1)])


def _gen_ring(spec: TopologySpec) -> Topology:
    if spec.n < 3:
        raise ValueError(f"ring needs n >= 3, got {spec.n}")
    import networkx as nx

    return _from_graph(spec, nx.cycle_graph(spec.n))


def _gen_mesh(spec: TopologySpec, ndim: int, *, periodic: bool) -> Topology:
    dims = spec.dims
    if len(dims) != ndim or any(d < 1 for d in dims):
        raise ValueError(
            f"{spec.family} needs {ndim} positive dims, got {dims!r}"
        )
    if periodic and any(d < 3 for d in dims):
        raise ValueError(f"torus needs every dim >= 3, got {dims!r}")
    import networkx as nx

    graph = nx.grid_graph(dim=list(reversed(dims)), periodic=periodic)
    return _from_graph(spec, graph)


def _gen_hypercube(spec: TopologySpec) -> Topology:
    n = spec.n
    d = max(n.bit_length() - 1, 0)
    if n < 2 or 2**d != n:
        raise ValueError(f"hypercube needs n a power of two >= 2, got {n}")
    import networkx as nx

    return _from_graph(spec, nx.hypercube_graph(d))


def _gen_random_geometric(spec: TopologySpec) -> Topology:
    n, radius = spec.n, spec.radius
    if n < 2:
        raise ValueError(f"random_geometric needs n >= 2, got {n}")
    if not 0 < radius <= math.sqrt(2.0):
        raise ValueError(f"radius must be in (0, sqrt(2)], got {radius}")
    import networkx as nx

    rng = spawn_generator(spec.seed, f"topology/random_geometric/{n}")
    pos = rng.uniform(0.0, 1.0, size=(n, 2))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for u, v in itertools.combinations(range(n), 2):
        if float(np.hypot(*(pos[u] - pos[v]))) <= radius:
            graph.add_edge(u, v)
    # Stitch components together deterministically: repeatedly add the
    # globally shortest inter-component edge, so the graph is connected
    # for every seed while staying geometric in spirit.
    while True:
        comps = sorted(nx.connected_components(graph), key=min)
        if len(comps) == 1:
            break
        best: tuple[float, int, int] | None = None
        base = comps[0]
        rest = set(range(n)) - base
        for u in sorted(base):
            for v in sorted(rest):
                dist = float(np.hypot(*(pos[u] - pos[v])))
                if best is None or (dist, u, v) < best:
                    best = (dist, u, v)
        assert best is not None
        graph.add_edge(best[1], best[2])
    return _from_graph(spec, graph)


def _gen_expander(spec: TopologySpec) -> Topology:
    """Seeded near-regular expander: a cycle plus random matchings.

    The cycle guarantees connectivity; each extra round adds one seeded
    matching (a shuffled pairing), so degrees lie in
    ``[2, degree]`` and the spectral gap grows with ``degree`` — the
    construction used (up to constants) by the dynamic-averaging LB
    literature for its expander test beds.
    """
    n, degree = spec.n, spec.degree
    if n < 4:
        raise ValueError(f"expander needs n >= 4, got {n}")
    if degree < 3:
        raise ValueError(f"expander needs degree >= 3, got {degree}")
    import networkx as nx

    graph = nx.cycle_graph(n)
    rng = spawn_generator(spec.seed, f"topology/expander/{n}/{degree}")
    for round_ in range(degree - 2):
        perm = [int(x) for x in rng.permutation(n)]
        for i in range(0, n - 1, 2):
            u, v = perm[i], perm[i + 1]
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v)
    return _from_graph(spec, graph)


def _gen_hierarchy(spec: TopologySpec) -> Topology:
    """Multi-site hierarchy: site rings bridged by a WAN gateway mesh.

    Site ``i`` owns nodes ``[i*m, (i+1)*m)``; each site is a ring (an
    edge for ``m == 2``), its first node the *gateway*.  Gateways form a
    complete inter-site graph whose edges carry link class ``"wan"`` —
    the slow links the paper's multi-site grid pays for every inter-site
    boundary exchange.
    """
    s, m = spec.sites, spec.site_size
    if s < 2:
        raise ValueError(f"hierarchy needs sites >= 2, got {s}")
    if m < 1:
        raise ValueError(f"hierarchy needs site_size >= 1, got {m}")
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(s * m))
    link_classes: dict[tuple[int, int], str] = {}
    for i in range(s):
        base = i * m
        if m == 2:
            graph.add_edge(base, base + 1)
        elif m >= 3:
            for j in range(m):
                graph.add_edge(base + j, base + (j + 1) % m)
    for i, j in itertools.combinations(range(s), 2):
        u, v = i * m, j * m
        graph.add_edge(u, v)
        link_classes[(u, v)] = "wan"
    return _from_graph(spec, graph, link_classes=link_classes)


_GENERATORS = {
    "chain": _gen_chain,
    "ring": _gen_ring,
    "mesh2d": lambda spec: _gen_mesh(spec, 2, periodic=False),
    "mesh3d": lambda spec: _gen_mesh(spec, 3, periodic=False),
    "torus": lambda spec: _gen_mesh(spec, 2, periodic=True),
    "hypercube": _gen_hypercube,
    "random_geometric": _gen_random_geometric,
    "expander": _gen_expander,
    "hierarchy": _gen_hierarchy,
}


def build_topology(spec: TopologySpec) -> Topology:
    """Build the connected, integer-labelled :class:`Topology` of ``spec``."""
    return _GENERATORS[spec.family](spec)


def spec_for_family(family: str, n: int, *, seed: int = 0) -> TopologySpec:
    """A valid spec of ``family`` with node count as close to ``n`` as
    the family's structure allows (exact for the unconstrained families).

    This is how the zoo sweeps "every family at size ~n" without each
    caller re-deriving mesh boxes and hypercube dimensions.
    """
    if n < 4:
        raise ValueError(f"need n >= 4 to size every family, got {n}")
    if family in ("chain", "ring", "random_geometric", "expander"):
        return TopologySpec(family, n=n, seed=seed)
    if family == "mesh2d" or family == "torus":
        rows = max(3 if family == "torus" else 2, int(math.isqrt(n)))
        cols = max(3 if family == "torus" else 2, n // rows)
        return TopologySpec(family, n=rows * cols, seed=seed, dims=(rows, cols))
    if family == "mesh3d":
        side = max(2, round(n ** (1.0 / 3.0)))
        return TopologySpec(
            family, n=side**3, seed=seed, dims=(side, side, side)
        )
    if family == "hypercube":
        d = max(2, round(math.log2(n)))
        return TopologySpec(family, n=2**d, seed=seed)
    if family == "hierarchy":
        sites = 4 if n >= 12 else 2
        site_size = max(1, n // sites)
        return TopologySpec(
            family, n=sites * site_size, seed=seed, sites=sites,
            site_size=site_size,
        )
    raise ValueError(
        f"unknown topology family {family!r}; choose from {TOPOLOGY_FAMILIES}"
    )
