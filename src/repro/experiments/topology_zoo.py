"""Topology zoo experiment: which LB wins on which graph under which faults.

The paper's experiments are confined to a linear chain of 15 machines;
this sweep is the results table it could never produce (ROADMAP item 2).
Every (topology family × LB algorithm × fault schedule) cell runs the
deterministic round-based driver of :mod:`repro.balancing.zoo` —
including the paper's own reactive residual-driven rule next to the
classical families — through the :mod:`repro.exec` engine, so the grid
fans out over worker pools and warm reruns come from the content-
addressed cache byte-identically.

Rows contain only virtual quantities (imbalance trajectories, transfer
volume, link-class-weighted cost), so the sweep's
:func:`~repro.analysis.perf.stable_digest` is identical across
processes, pool sizes and reruns — the property CI checks by running the
quick grid twice.

The headline artifact is the **winners table**: per (topology, schedule)
cell, the algorithm with the lowest mean imbalance over the run
(ties broken by communication cost, then name).  Mean — not final —
imbalance is the score: under faults a scheme that rebalances *quickly
after every shock* beats one that limps to the same endpoint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.analysis.perf import stable_digest
from repro.analysis.reporting import format_table
from repro.balancing.zoo import (
    ZOO_ALGORITHMS,
    ZOO_SCHEDULES,
    TriggerPolicy,
    ZooParams,
    make_zoo_schedule,
    run_zoo,
)
from repro.topology.graphs import TOPOLOGY_FAMILIES, build_topology, spec_for_family
from repro.workloads.scenarios import Scenario

__all__ = ["TopologyZooScenario", "TopologyZooResult", "run_topology_zoo"]

#: The gate: these algorithms level the fault-free spike to a final
#: imbalance of GATED_IMBALANCE on the fast-mixing families.  The
#: single-partner schemes (bertsekas, reactive_residual) are slower by
#: design, and on a chain/ring (mixing time ~ n²) or a random geometric
#: graph diffusion cannot level it in these budgets: results, not bugs.
GATED_ALGORITHMS = ("diffusion", "accelerated", "dimension_exchange", "centralized")
GATED_FAMILIES = ("mesh2d", "mesh3d", "torus", "hypercube", "expander", "hierarchy")
GATED_IMBALANCE = 1.15


@dataclass(frozen=True)
class TopologyZooScenario(Scenario):
    """The sweep grid plus every knob the zoo driver takes.

    The default is the full grid: all families × all algorithms × all
    fault schedules.  :meth:`quick` is the tier-1 cut — still ≥ 5
    families, the paper's scheme plus the full classical zoo, and
    multiple fault schedules, but small enough for the suite to run and
    pin (``tests/test_experiment_pins.py``).
    """

    families: tuple[str, ...] = TOPOLOGY_FAMILIES
    algorithms: tuple[str, ...] = ZOO_ALGORITHMS
    schedules: tuple[str, ...] = ZOO_SCHEDULES
    n_nodes: int = 24
    rounds: int = 240
    check_every: int = 2
    threshold: float = 1.02
    initial: str = "spike"
    seed: int = 0

    def __post_init__(self) -> None:
        for family in self.families:
            if family not in TOPOLOGY_FAMILIES:
                raise ValueError(f"unknown topology family {family!r}")
        for algorithm in self.algorithms:
            if algorithm not in ZOO_ALGORITHMS:
                raise ValueError(f"unknown zoo algorithm {algorithm!r}")
        for schedule in self.schedules:
            if schedule not in ZOO_SCHEDULES:
                raise ValueError(f"unknown zoo schedule {schedule!r}")

    @classmethod
    def quick(cls) -> "TopologyZooScenario":
        return cls(
            families=(
                "chain",
                "torus",
                "hypercube",
                "random_geometric",
                "hierarchy",
            ),
            schedules=("none", "load_shock", "link_flap"),
            n_nodes=12,
            rounds=96,
        )

    def params(self) -> ZooParams:
        return ZooParams(
            rounds=self.rounds,
            trigger=TriggerPolicy(
                check_every=self.check_every, threshold=self.threshold
            ),
        )


@dataclass(slots=True)
class TopologyZooResult:
    """All rows of one zoo sweep, in grid order."""

    scenario: TopologyZooScenario
    rows: list[dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def row(
        self, family: str, algorithm: str, schedule: str
    ) -> dict[str, Any] | None:
        for row in self.rows:
            if (
                row["family"] == family
                and row["algorithm"] == algorithm
                and row["schedule"] == schedule
            ):
                return row
        return None

    def winners(
        self, *, include_centralized: bool = False
    ) -> dict[tuple[str, str], dict[str, Any]]:
        """Best row per (family, schedule): lowest mean imbalance, ties
        broken by communication cost, then algorithm name.

        By default the ``centralized`` coordinator is excluded: in this
        abstract model its global synchronisation is free, so it
        trivially tops every cell — it is the oracle *baseline* the
        paper argues against, not a contender.  The interesting
        question is which decentralized scheme wins where.
        """
        best: dict[tuple[str, str], dict[str, Any]] = {}
        for row in self.rows:
            if row["algorithm"] == "centralized" and not include_centralized:
                continue
            key = (row["family"], row["schedule"])
            score = (row["mean_imbalance"], row["comm_cost"], row["algorithm"])
            incumbent = best.get(key)
            if incumbent is None or score < (
                incumbent["mean_imbalance"],
                incumbent["comm_cost"],
                incumbent["algorithm"],
            ):
                best[key] = row
        return best

    def gate_failures(self) -> list[str]:
        """The zoo gate: one line per broken clause, empty if it holds."""
        scenario = self.scenario
        failures = []
        for family in scenario.families:
            for algorithm in scenario.algorithms:
                if family not in GATED_FAMILIES or algorithm not in GATED_ALGORITHMS:
                    continue
                cell = f"spike not levelled: {family}/{algorithm}/none"
                row = self.row(family, algorithm, "none")
                if row is None:
                    failures.append(f"{cell}: no row")
                elif row["final_imbalance"] > GATED_IMBALANCE:
                    failures.append(
                        f"{cell}: final imbalance {row['final_imbalance']:.3f}"
                        f" > {GATED_IMBALANCE}"
                    )
        winners = len(self.winners())
        expected = len(scenario.families) * len(scenario.schedules)
        if winners != expected:
            failures.append(f"winners table not full: {winners} of {expected}")
        return failures

    def digest(self) -> str:
        """Reproducibility fingerprint (virtual quantities only)."""
        return stable_digest({"rows": self.rows})

    def to_dict(self) -> dict[str, Any]:
        winners = self.winners()
        return {
            "title": "topology zoo: LB algorithms x topologies x faults",
            "scenario": asdict(self.scenario),
            "rows": self.rows,
            "winners": {
                f"{family}/{schedule}": row["algorithm"]
                for (family, schedule), row in sorted(winners.items())
            },
            "digest": self.digest(),
        }

    # ------------------------------------------------------------------
    def report(self) -> str:
        scenario = self.scenario
        winners = self.winners()
        winner_rows = [
            tuple(
                [family]
                + [
                    winners[(family, schedule)]["algorithm"]
                    if (family, schedule) in winners
                    else "-"
                    for schedule in scenario.schedules
                ]
            )
            for family in scenario.families
        ]
        per_algo: dict[str, list[dict[str, Any]]] = {}
        for row in self.rows:
            per_algo.setdefault(row["algorithm"], []).append(row)
        algo_rows = []
        for algorithm in scenario.algorithms:
            rows = per_algo.get(algorithm, [])
            if not rows:
                continue
            n = len(rows)
            algo_rows.append(
                (
                    algorithm,
                    f"{sum(r['mean_imbalance'] for r in rows) / n:.3f}",
                    f"{sum(r['final_imbalance'] for r in rows) / n:.3f}",
                    f"{sum(r['volume'] for r in rows) / n:.1f}",
                    f"{sum(r['comm_cost'] for r in rows) / n:.1f}",
                    f"{sum(r['triggers'] for r in rows) / n:.1f}",
                    sum(1 for r in rows if winners.get((r["family"], r["schedule"])) is r),
                )
            )
        lines = [
            f"Topology zoo — {len(scenario.families)} topologies x "
            f"{len(scenario.algorithms)} algorithms x "
            f"{len(scenario.schedules)} fault schedules "
            f"(n={scenario.n_nodes}, rounds={scenario.rounds}, "
            f"initial={scenario.initial})",
            "",
            "Which decentralized LB wins where (lowest mean imbalance; "
            "the centralized oracle is the baseline, not a contender):",
            format_table(
                ["topology"] + list(scenario.schedules), winner_rows
            ),
            "",
            "Per-algorithm averages over the whole grid:",
            format_table(
                [
                    "algorithm",
                    "mean imb",
                    "final imb",
                    "volume",
                    "comm cost",
                    "triggers",
                    "wins",
                ],
                algo_rows,
            ),
            f"digest: {self.digest()}",
        ]
        return "\n".join(lines)


def _zoo_task(
    scenario: TopologyZooScenario, family: str, algorithm: str, schedule_name: str
) -> dict[str, Any]:
    """Engine task: one grid cell reduced to its report row.

    Top-level (picklable by reference) for the sweep engine's worker
    pool.  Topology, schedule and params are all rebuilt from the
    scenario, so the row is a pure function of the task arguments.
    """
    spec = spec_for_family(family, scenario.n_nodes, seed=scenario.seed)
    topology = build_topology(spec)
    params = scenario.params()
    schedule = make_zoo_schedule(
        schedule_name, topology, params.rounds, seed=scenario.seed
    )
    result = run_zoo(
        topology,
        algorithm,
        params=params,
        schedule=schedule,
        initial=scenario.initial,
        seed=scenario.seed,
    )
    row = result.to_row()
    row["family"] = family
    row["n_edges"] = len(topology.edges())
    row["topology_digest"] = topology.digest()
    return row


def run_topology_zoo(
    scenario: TopologyZooScenario | None = None, *, engine=None
) -> TopologyZooResult:
    """Run the zoo sweep; :meth:`TopologyZooScenario.quick` for CI.

    ``engine`` optionally supplies a :class:`~repro.exec.SweepEngine`:
    the grid fans out over its worker pool and/or is served from its run
    cache, with rows merged in grid order so the report and its digest
    are byte-identical to the serial path.
    """
    from repro.exec import sweep

    scenario = scenario if scenario is not None else TopologyZooScenario()
    rows = sweep(
        engine,
        "topology_zoo",
        scenario,
        _zoo_task,
        [
            {"family": family, "algorithm": algorithm, "schedule": schedule_name}
            for family in scenario.families
            for algorithm in scenario.algorithms
            for schedule_name in scenario.schedules
        ],
    )
    return TopologyZooResult(scenario=scenario, rows=rows)
