"""Topology-generic LB zoo: one step rule per algorithm, one loop over it.

Every algorithm family of the paper's Section 3 is a **policy** with one
interface — given the current :class:`ActiveView` (the topology minus
whatever nodes/links a fault window has taken down) and the load vector,
``plan(view, load)`` proposes *edge transfers* — and this module is the
only implementation of each.  :func:`run_zoo` is the round-based driver
that makes them comparable on **arbitrary topologies under faults**: it
advances a deterministic fault timeline (:func:`make_zoo_schedule`:
outages, link flaps, load shocks, lying load sensors), applies the
SPARTA-style **trigger policy** (rebalance every ``check_every`` rounds
*only if* the imbalance ratio exceeds ``threshold`` — SNIPPETS.md,
``fix balance Nevery thresh``), applies the proposed transfers, and
accounts volume and link-class-weighted communication cost (``wan``
edges cost ``wan_cost`` times a ``lan`` edge).  A run is a pure function
of ``(topology, algorithm, params, schedule, seed)`` — byte-reproducible,
cacheable by the sweep engine.

Loads here are *divisible real values* (the Demirel & Sbalzarini
setting), not solver components: the solver-integrated residual balancer
stays :mod:`repro.core.lb`; its decision rule
(:func:`repro.core.estimators.surplus_fraction`) appears here as the
``reactive_residual`` policy so the paper's scheme can be benchmarked
on graphs the solver's 1-D decomposition could never host.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.balancing.accelerated import (
    diffusion_matrix,
    safe_alpha,
    second_eigenvalue,
)
from repro.balancing.centralized import centralized_balance
from repro.balancing.dimension_exchange import edge_colouring
from repro.core.estimators import surplus_fraction
from repro.topology.graphs import Topology
from repro.util.rng import spawn_generator
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = [
    "ZOO_ALGORITHMS",
    "ZOO_SCHEDULES",
    "ActiveView",
    "LinkOutage",
    "LoadShock",
    "NodeOutage",
    "TriggerPolicy",
    "ValueCorruption",
    "ZooFaultSchedule",
    "ZooParams",
    "ZooRunResult",
    "balance",
    "initial_load",
    "make_policy",
    "make_zoo_schedule",
    "run_zoo",
]

#: Named fault timelines ``make_zoo_schedule`` builds.
ZOO_SCHEDULES = (
    "none", "load_shock", "node_outage", "link_flap", "value_corruption",
)


# ---------------------------------------------------------------------------
# Policy + parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriggerPolicy:
    """SPARTA's ``fix balance Nevery thresh`` (SNIPPETS.md snippet 2).

    Every ``check_every`` rounds the driver evaluates the imbalance
    ratio (max/mean over up nodes) and performs one balancing step only
    if it exceeds ``threshold`` — "rebalance ... but only if the current
    imbalance factor exceeds the specified threshold".
    """

    check_every: int = 2
    threshold: float = 1.02

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {self.check_every}")
        if self.threshold < 1.0:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")


@dataclass(frozen=True)
class ZooParams:
    """Zoo driver knobs shared by every policy.

    ``staleness`` is measured in balancing steps: the asynchronous
    policies (``bertsekas``, ``reactive_residual``) act on neighbour
    loads as they were that many steps ago — the stale-view regime the
    Bertsekas–Tsitsiklis model is proved in.
    """

    rounds: int = 240
    trigger: TriggerPolicy = field(default_factory=TriggerPolicy)
    threshold_ratio: float = 1.2
    accuracy: float = 0.5
    max_fraction: float = 0.5
    transfer_fraction: float = 0.5
    staleness: int = 2
    wan_cost: float = 8.0
    sample_every: int = 8

    def __post_init__(self) -> None:
        check_positive("rounds", self.rounds)
        if not self.threshold_ratio > 1.0:
            raise ValueError(
                f"threshold_ratio must be > 1, got {self.threshold_ratio}"
            )
        for name in ("accuracy", "max_fraction", "transfer_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.staleness < 1:
            raise ValueError(f"staleness must be >= 1, got {self.staleness}")
        if self.wan_cost < 1.0:
            raise ValueError(f"wan_cost must be >= 1, got {self.wan_cost}")
        check_positive("sample_every", self.sample_every)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Fault timeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeOutage:
    """Node ``node`` is down for rounds ``[start, end)``: it takes no
    part in balancing and its load is frozen (crash-with-state, the
    grid's transient host loss)."""

    node: int
    start: int
    end: int


@dataclass(frozen=True)
class LinkOutage:
    """Edge ``(u, v)`` is unusable for rounds ``[start, end)``."""

    u: int
    v: int
    start: int
    end: int


@dataclass(frozen=True)
class LoadShock:
    """``amount`` of extra load lands on ``node`` at ``round`` — the
    external-load bursts the paper's grid traces model."""

    node: int
    round: int
    amount: float


@dataclass(frozen=True)
class ValueCorruption:
    """Node ``node``'s *reported* load reads ``factor`` times its true
    load for rounds ``[start, end)`` — a lying load sensor.

    Only the measurement channel is corrupted: every observer (the
    trigger policy and all policies, including the node itself) sees the
    lie, while the true load — what transfers actually move — is
    untouched and stays conserved.  ``factor > 1`` makes the node look
    crushed (spurious triggers, neighbours refuse it load while it
    drains itself); ``factor < 1`` makes it look idle (everyone dumps
    load on it, and real imbalance can hide below the trigger
    threshold)."""

    node: int
    start: int
    end: int
    factor: float


@dataclass(frozen=True)
class ZooFaultSchedule:
    """A named, immutable fault timeline for one zoo run."""

    name: str
    node_outages: tuple[NodeOutage, ...] = ()
    link_outages: tuple[LinkOutage, ...] = ()
    shocks: tuple[LoadShock, ...] = ()
    corruptions: tuple[ValueCorruption, ...] = ()


def make_zoo_schedule(
    name: str, topology: Topology, rounds: int, *, seed: int = 0
) -> ZooFaultSchedule:
    """Build the named fault timeline, seeded against ``topology``.

    All choices (which node crashes, which links flap, where shocks
    land) come from named RNG streams keyed by ``seed`` and the
    topology's digest, so the same (topology, schedule, seed) triple is
    identical in every process.
    """
    n = topology.n_nodes
    if name == "none":
        return ZooFaultSchedule(name)
    rng = spawn_generator(seed, f"zoo/schedule/{name}/{topology.digest()}")
    if name == "load_shock":
        # Two bursts, each half the system's initial load, on distinct
        # seeded nodes at 1/3 and 2/3 of the horizon.
        nodes = rng.choice(n, size=min(2, n), replace=False)
        amount = 4.0 * n
        shocks = tuple(
            LoadShock(int(node), round_, float(amount))
            for node, round_ in zip(nodes, (rounds // 3, (2 * rounds) // 3))
        )
        return ZooFaultSchedule(name, shocks=shocks)
    if name == "node_outage":
        node = int(rng.integers(n))
        return ZooFaultSchedule(
            name,
            node_outages=(NodeOutage(node, rounds // 4, rounds // 2),),
            shocks=(LoadShock(node, (5 * rounds) // 8, float(2.0 * n)),),
        )
    if name == "value_corruption":
        # Two lying windows on distinct seeded nodes: first an
        # over-reporter (8x — looks crushed), then an under-reporter
        # (0.1x — looks idle), each spanning a fifth of the horizon.
        nodes = rng.choice(n, size=min(2, n), replace=False)
        return ZooFaultSchedule(
            name,
            corruptions=(
                ValueCorruption(
                    int(nodes[0]), rounds // 5, (2 * rounds) // 5, 8.0
                ),
                ValueCorruption(
                    int(nodes[-1]), (3 * rounds) // 5, (4 * rounds) // 5, 0.1
                ),
            ),
        )
    if name == "link_flap":
        edges = topology.edges()
        k = max(1, len(edges) // 6)
        picks = rng.choice(len(edges), size=min(k, len(edges)), replace=False)
        windows = ((rounds // 5, (2 * rounds) // 5), ((3 * rounds) // 5, (4 * rounds) // 5))
        outages = tuple(
            LinkOutage(*edges[int(pick)], start, end)
            for pick in sorted(int(p) for p in picks)
            for start, end in windows
        )
        return ZooFaultSchedule(name, link_outages=outages)
    raise ValueError(
        f"unknown zoo schedule {name!r}; choose from {ZOO_SCHEDULES}"
    )


def initial_load(topology: Topology, kind: str, *, seed: int = 0) -> np.ndarray:
    """Seeded initial load vector (total always ``8 * n_nodes``).

    ``"spike"`` piles everything on node 0 (the classic worst case);
    ``"uniform"`` draws i.i.d. uniform loads; ``"bimodal"`` splits the
    nodes into heavy and light halves by a seeded shuffle.
    """
    n = topology.n_nodes
    total = 8.0 * n
    if kind == "spike":
        load = np.zeros(n)
        load[0] = total
        return load
    rng = spawn_generator(seed, f"zoo/initial/{kind}/{n}")
    if kind == "uniform":
        load = rng.uniform(0.0, 1.0, n)
        return load * (total / load.sum())
    if kind == "bimodal":
        load = np.full(n, 2.0)
        heavy = rng.permutation(n)[: max(1, n // 4)]
        load[heavy] = (total - load.sum() + 2.0 * len(heavy)) / len(heavy)
        return load
    raise ValueError(f"unknown initial load kind {kind!r}")


# ---------------------------------------------------------------------------
# The active view (topology minus fault windows)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActiveView:
    """What a policy may touch this round: up nodes + live edges.

    Stateful policies (colourings, spectral coefficients, shortest
    paths) cache against ``edges`` and rebuild only when a fault window
    opens or closes.
    """

    up: tuple[bool, ...]
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]

    @classmethod
    def over(
        cls, up: tuple[bool, ...], edges: tuple[tuple[int, int], ...]
    ) -> "ActiveView":
        """The view of ``edges`` (all between up nodes) among ``up``."""
        neighbors: list[list[int]] = [[] for _ in up]
        for u, v in edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return cls(up, edges, tuple(tuple(sorted(nb)) for nb in neighbors))

    @property
    def n_nodes(self) -> int:
        return len(self.up)

    def max_degree(self) -> int:
        return max((len(nb) for nb in self.neighbors), default=0)

    def graph(self) -> nx.Graph:
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(i for i in range(self.n_nodes) if self.up[i])
        g.add_edges_from(self.edges)
        return g


def _active_view(
    topology: Topology, schedule: ZooFaultSchedule, round_: int
) -> ActiveView:
    down_nodes = {
        o.node for o in schedule.node_outages if o.start <= round_ < o.end
    }
    down_edges = {
        (min(o.u, o.v), max(o.u, o.v))
        for o in schedule.link_outages
        if o.start <= round_ < o.end
    }
    up = tuple(i not in down_nodes for i in range(topology.n_nodes))
    return ActiveView.over(
        up,
        tuple(
            (u, v)
            for u, v in topology.edges()
            if up[u] and up[v] and (u, v) not in down_edges
        ),
    )


# ---------------------------------------------------------------------------
# Policies: the one step rule of each algorithm
# ---------------------------------------------------------------------------
# A policy's ``plan(view, load)`` returns edge transfers
# ``(u, v, amount)`` with ``amount > 0`` meaning ``u`` ships ``amount``
# to ``v`` over the (active) edge ``(u, v)``.  The loop driving it
# applies them simultaneously, under the outflow limiter when the policy
# sets ``needs_limiter``.

Transfer = tuple[int, int, float]


def _oriented(flows: Iterable[Transfer]) -> list[Transfer]:
    """Signed edge flows as transfers out of the heavier endpoint."""
    out: list[Transfer] = []
    for u, v, flow in flows:
        if flow > 0.0:
            out.append((u, v, flow))
        elif flow < 0.0:
            out.append((v, u, -flow))
    return out


class Diffusion:
    """Cybenko's first-order diffusion on the active subgraph.

    Every node exchanges with all its neighbours at once,
    ``x_i <- x_i + α Σ_{j~i} (x_j - x_i)`` with ``α = 1/(deg_max + 1)``:
    the synchronous technique the paper deems "not convenient for the
    AIAC class", kept as the classical reference point.
    """

    needs_limiter = False

    def plan(self, view: ActiveView, load: np.ndarray) -> list[Transfer]:
        alpha = safe_alpha(view.max_degree())
        return _oriented(
            (u, v, alpha * (load[u] - load[v])) for u, v in view.edges
        )


class Accelerated:
    """Second-order (heavy-ball) diffusion in edge-flow form.

    ``x_{k+1} = β M x_k + (1-β) x_{k-1}`` rewrites per edge as
    ``f_e(k+1) = β α (x_u - x_v) + (β - 1) f_e(k)`` — the momentum term
    keeps flowing along the edge it flowed last step.  The optimal fixed
    ``β = 2 / (1 + sqrt(1 - λ₂²))`` comes from the active subgraph's
    second eigenvalue (cached per active-edge set) and contracts in
    ``O(1/sqrt(1-λ₂))`` rounds against first-order's ``O(1/(1-λ₂))``;
    the flow memory of an edge resets when a fault window removes it.
    Momentum can overdraw a node — iterates go transiently negative, the
    classic caveat of accelerated schemes and the reason the solver's
    component balancer does not use them — so this policy runs under the
    outflow limiter.
    """

    needs_limiter = True

    def __init__(self) -> None:
        self._flows: dict[tuple[int, int], float] = {}
        self._beta_cache: dict[tuple[tuple[int, int], ...], float] = {}

    def _beta(self, view: ActiveView) -> float:
        beta = self._beta_cache.get(view.edges)
        if beta is None:
            lam2 = second_eigenvalue(diffusion_matrix(view.graph()))
            beta = 2.0 / (1.0 + math.sqrt(max(1.0 - lam2 * lam2, 0.0)))
            self._beta_cache[view.edges] = beta
        return beta

    def plan(self, view: ActiveView, load: np.ndarray) -> list[Transfer]:
        if not view.edges:
            self._flows.clear()
            return []
        alpha = safe_alpha(view.max_degree())
        beta = self._beta(view)
        memory = self._flows
        self._flows = {
            (u, v): beta * alpha * (load[u] - load[v])
            + (beta - 1.0) * memory.get((u, v), 0.0)
            for u, v in view.edges
        }
        return _oriented((u, v, flow) for (u, v), flow in self._flows.items())


class DimensionExchange:
    """Pairwise averaging along one colour class (matching) per step.

    Cycling through the colours of :func:`edge_colouring` balances any
    connected graph; on a hypercube the colours are the dimensions and
    one full cycle balances *exactly*.
    """

    needs_limiter = False

    def __init__(self) -> None:
        self._colours: list[list[tuple[int, int]]] = []
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._cursor = 0

    def plan(self, view: ActiveView, load: np.ndarray) -> list[Transfer]:
        if view.edges != self._edges:
            self._colours = edge_colouring(view.graph())
            self._edges = view.edges
            self._cursor = 0
        if not self._colours:
            return []
        matching = self._colours[self._cursor % len(self._colours)]
        self._cursor += 1
        return _oriented((u, v, 0.5 * (load[u] - load[v])) for u, v in matching)


class _StaleViewPolicy:
    """Shared stale-neighbour-view machinery of the async policies."""

    needs_limiter = False

    def __init__(self, params: ZooParams) -> None:
        self.params = params
        self._history: deque[np.ndarray] = deque(maxlen=params.staleness)

    def _stale(self, load: np.ndarray) -> np.ndarray:
        stale = self._history[0] if self._history else load
        self._history.append(load.copy())
        return stale


class Bertsekas(_StaleViewPolicy):
    """Bertsekas–Tsitsiklis lightest-neighbour pushing on stale views.

    The model the paper's balancer instantiates (Section 3): a node
    looks for the neighbours lighter than itself by more than
    ``threshold_ratio`` and ships part of the difference "only to the
    lightest loaded neighbor" — the variant "chosen for implementation
    in our AIAC algorithms".  It balances to a threshold-bounded
    neighbourhood of uniform, not to uniform.
    """

    def plan(self, view: ActiveView, load: np.ndarray) -> list[Transfer]:
        params = self.params
        stale = self._stale(load)
        out: list[Transfer] = []
        for u in range(view.n_nodes):
            if not view.up[u] or not view.neighbors[u] or load[u] <= 0.0:
                continue
            lighter = [
                v
                for v in view.neighbors[u]
                if stale[v] < load[u] / params.threshold_ratio
            ]
            if not lighter:
                continue
            v = min(lighter, key=lambda j: (stale[j], j))
            amount = params.transfer_fraction * (load[u] - stale[v]) / 2.0
            amount = min(amount, load[u])
            if amount > 0.0:
                out.append((u, int(v), float(amount)))
        return out


class ReactiveResidual(_StaleViewPolicy):
    """The paper's reactive residual-driven rule, topology-generic.

    Each node compares its own *fresh* load estimate against the stale
    view of its lightest active neighbour and ships ``accuracy * load *
    surplus_fraction(load, theirs, threshold_ratio)`` — the decision of
    :mod:`repro.core.lb` (Algorithm 5) with divisible load standing in
    for residual-weighted components, plus the same ``max_fraction``
    famine guard.
    """

    def plan(self, view: ActiveView, load: np.ndarray) -> list[Transfer]:
        params = self.params
        stale = self._stale(load)
        out: list[Transfer] = []
        for u in range(view.n_nodes):
            if not view.up[u] or not view.neighbors[u] or load[u] <= 0.0:
                continue
            v = min(view.neighbors[u], key=lambda j: (stale[j], j))
            amount = min(
                params.accuracy
                * load[u]
                * surplus_fraction(load[u], stale[v], params.threshold_ratio),
                params.max_fraction * load[u],
            )
            if amount > 0.0:
                out.append((u, int(v), float(amount)))
        return out


class Centralized:
    """Global coordinator: plan with :func:`centralized_balance`, then
    route every planned transfer hop-by-hop along active shortest paths
    (so its volume and WAN cost are honestly comparable with the
    neighbour-local schemes).  Unreachable pairs are skipped — a
    partitioned coordinator cannot move load across the cut."""

    needs_limiter = False

    def __init__(self) -> None:
        self._paths: dict[int, dict] = {}
        self._edges: tuple[tuple[int, int], ...] | None = None

    def plan(self, view: ActiveView, load: np.ndarray) -> list[Transfer]:
        up = [i for i in range(view.n_nodes) if view.up[i]]
        if len(up) < 2:
            return []
        if view.edges != self._edges:
            import networkx as nx

            self._paths = dict(nx.all_pairs_shortest_path(view.graph()))
            self._edges = view.edges
        _, plan = centralized_balance(load[up])
        out: list[Transfer] = []
        for src_idx, dst_idx, amount in plan:
            src, dst = up[src_idx], up[dst_idx]
            path = self._paths.get(src, {}).get(dst)
            if path is None:
                continue
            for a, b in zip(path, path[1:]):
                out.append((int(a), int(b), float(amount)))
        return out


#: Registry order == report order.
_POLICIES = {
    "reactive_residual": ReactiveResidual,
    "diffusion": Diffusion,
    "accelerated": Accelerated,
    "dimension_exchange": DimensionExchange,
    "bertsekas": Bertsekas,
    "centralized": Centralized,
}
ZOO_ALGORITHMS = tuple(_POLICIES)


def make_policy(algorithm: str, params: ZooParams | None = None):
    """A fresh policy (they carry per-run state) for a zoo algorithm."""
    if algorithm not in _POLICIES:
        raise ValueError(
            f"unknown zoo algorithm {algorithm!r}; choose from {ZOO_ALGORITHMS}"
        )
    cls = _POLICIES[algorithm]
    if issubclass(cls, _StaleViewPolicy):
        return cls(params if params is not None else ZooParams())
    return cls()


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ZooRunResult:
    """One (topology, algorithm, schedule) zoo run, reduced to numbers."""

    topology: str
    algorithm: str
    schedule: str
    rounds: int
    checks: int = 0
    triggers: int = 0
    volume: float = 0.0
    wan_volume: float = 0.0
    comm_cost: float = 0.0
    final_imbalance: float = 1.0
    mean_imbalance: float = 1.0
    peak_imbalance: float = 1.0
    history: list[float] = field(default_factory=list)

    def to_row(self) -> dict:
        """JSON row (digest material — virtual quantities only)."""
        return {
            "topology": self.topology,
            "algorithm": self.algorithm,
            "schedule": self.schedule,
            "rounds": self.rounds,
            "checks": self.checks,
            "triggers": self.triggers,
            "volume": float(self.volume),
            "wan_volume": float(self.wan_volume),
            "comm_cost": float(self.comm_cost),
            "final_imbalance": float(self.final_imbalance),
            "mean_imbalance": float(self.mean_imbalance),
            "peak_imbalance": float(self.peak_imbalance),
            "history": [float(h) for h in self.history],
        }


def _imbalance(load: np.ndarray, up: Iterable[bool]) -> float:
    """max/mean over up nodes; 1.0 when degenerate (tolerant of the
    transient negatives accelerated schemes may produce)."""
    active = load[np.fromiter(up, dtype=bool)]
    if active.size == 0:
        return 1.0
    mean = float(active.mean())
    if mean <= 0.0:
        return 1.0
    return float(active.max() / mean)


def _limit_outflow(load: np.ndarray, transfers: list[Transfer]) -> list[Transfer]:
    """Scale each node's proposed outflow down to its current load.

    Keeps every load non-negative under momentum overdraw while
    conserving the total exactly (only outflows shrink, and each
    transfer's receive shrinks with its send).
    """
    out_total: dict[int, float] = {}
    for u, _, amount in transfers:
        out_total[u] = out_total.get(u, 0.0) + amount
    scale = {
        u: (load[u] / total if total > load[u] and total > 0.0 else 1.0)
        for u, total in out_total.items()
    }
    return [
        (u, v, amount * scale[u])
        for u, v, amount in transfers
        if amount * scale[u] > 0.0
    ]


def run_zoo(
    topology: Topology,
    algorithm: str,
    *,
    params: ZooParams | None = None,
    schedule: ZooFaultSchedule | None = None,
    initial: str = "spike",
    seed: int = 0,
) -> ZooRunResult:
    """Run one algorithm on one topology under one fault timeline.

    Per round: land the round's load shocks, compute the active view,
    apply the trigger policy (every ``check_every`` rounds, act only if
    imbalanced past ``threshold``), let the policy propose transfers
    over active edges, apply them, and account volume / WAN volume /
    link-class-weighted cost.  Load is conserved to machine precision
    every round (asserted).
    """
    params = params if params is not None else ZooParams()
    schedule = (
        schedule
        if schedule is not None
        else make_zoo_schedule("none", topology, params.rounds, seed=seed)
    )
    load = initial_load(topology, initial, seed=seed)
    policy = make_policy(algorithm, params)
    result = ZooRunResult(
        topology=topology.spec.label(),
        algorithm=algorithm,
        schedule=schedule.name,
        rounds=params.rounds,
    )
    shocks_by_round: dict[int, list[LoadShock]] = {}
    for shock in schedule.shocks:
        shocks_by_round.setdefault(shock.round, []).append(shock)
    edge_class = {e: topology.link_class(*e) for e in topology.edges()}
    expected_total = float(load.sum())
    imbalance_sum = 0.0
    peak = 0.0
    trigger = params.trigger
    for round_ in range(params.rounds):
        for shock in shocks_by_round.get(round_, []):
            load[shock.node] += shock.amount
            expected_total += shock.amount
        view = _active_view(topology, schedule, round_)
        lies = [
            c for c in schedule.corruptions if c.start <= round_ < c.end
        ]
        # Decisions (trigger + policies) see the reported loads; the
        # transfers they propose move the *true* loads.  Lies can make a
        # node promise more than it holds, so the outflow limiter is
        # forced on whenever a corruption window is open.
        reported = load
        if lies:
            reported = load.copy()
            for lie in lies:
                reported[lie.node] *= lie.factor
        if round_ % trigger.check_every == 0:
            result.checks += 1
            if _imbalance(reported, view.up) > trigger.threshold:
                result.triggers += 1
                transfers = policy.plan(view, reported)
                if policy.needs_limiter or lies:
                    transfers = _limit_outflow(load, transfers)
                for u, v, amount in transfers:
                    load[u] -= amount
                    load[v] += amount
                    result.volume += amount
                    key = (u, v) if u < v else (v, u)
                    if edge_class.get(key, "lan") == "wan":
                        result.wan_volume += amount
                        result.comm_cost += amount * params.wan_cost
                    else:
                        result.comm_cost += amount
                total = float(load.sum())
                if abs(total - expected_total) > 1e-6 * max(expected_total, 1.0):
                    raise AssertionError(
                        f"{algorithm} on {result.topology}: load not conserved "
                        f"({total} != {expected_total})"
                    )
        imbalance = _imbalance(load, view.up)
        imbalance_sum += imbalance
        peak = max(peak, imbalance)
        if round_ % params.sample_every == 0:
            result.history.append(imbalance)
    result.final_imbalance = _imbalance(load, [True] * topology.n_nodes)
    result.mean_imbalance = imbalance_sum / params.rounds
    result.peak_imbalance = peak
    return result
