#!/usr/bin/env python
"""Topology-zoo benchmark (``BENCH_topology.json``).

Times the (topology × LB algorithm × fault schedule) sweep of
:func:`repro.experiments.run_topology_zoo` plus the per-cell hot path
(:func:`repro.balancing.zoo.run_zoo` on representative cells), and
records each sweep's :func:`~repro.analysis.perf.stable_digest` in the
result ``meta`` — so ``--check`` fails on a digest change.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_topology.py            # full grid
    PYTHONPATH=src python benchmarks/bench_topology.py --check    # CI gate

``--check`` exits non-zero unless

* two back-to-back runs of the sweep produce the **same digest** (the
  byte-reproducibility acceptance criterion of ISSUE 8),
* that digest equals the one committed in ``BENCH_topology.json`` (the
  quick grid of ``repro topology-zoo`` has its pin in tier-1),
* every diffusion-family algorithm actually balances the fault-free
  spike (final imbalance ≤ 1.15 on every topology), and
* the decentralized winners table is fully populated.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from _gate import ROOT, BenchReport, BenchResult, timed_runs
from repro.balancing.zoo import ZooParams, make_zoo_schedule, run_zoo
from repro.exec import SweepEngine
from repro.experiments import TopologyZooScenario, run_topology_zoo
from repro.topology.graphs import build_topology, spec_for_family

#: The committed report: default ``-o``, and the digest ``--check`` pins.
COMMITTED = ROOT / "BENCH_topology.json"

#: Per-cell microbenchmark points: (family, algorithm, schedule).
CELLS: tuple[tuple[str, str, str], ...] = (
    ("torus", "diffusion", "none"),
    ("torus", "accelerated", "load_shock"),
    ("hypercube", "dimension_exchange", "none"),
    ("hierarchy", "reactive_residual", "node_outage"),
    ("expander", "bertsekas", "link_flap"),
)

#: Algorithms gated on actually balancing the fault-free spike.  The
#: single-partner asynchronous schemes (bertsekas, reactive_residual)
#: level the spike much more slowly by design, so they are reported but
#: not gated.
GATED_ALGORITHMS = ("diffusion", "accelerated", "dimension_exchange", "centralized")

#: Families the balancing gate runs on: the fast-mixing graphs.  On a
#: chain/ring (mixing time ~ n²) or an irregular-degree random geometric
#: graph, first-order diffusion legitimately cannot level a spike within
#: these round budgets — that slowness is a *result* the report shows,
#: not a regression to gate on.
GATED_FAMILIES = ("mesh2d", "mesh3d", "torus", "hypercube", "expander", "hierarchy")


def bench_sweep(
    report: BenchReport, scenario: TopologyZooScenario, repeats: int
) -> dict[str, Any]:
    """Time ``repeats`` cold runs of the sweep; returns the summary.

    Every repeat runs with the cache off (a warm rerun would time the
    cache, not the zoo) and must produce the same digest.
    """
    walls, results = timed_runs(
        lambda: run_topology_zoo(scenario, engine=SweepEngine()), repeats
    )
    digests = [r.digest() for r in results]
    result = results[-1]
    n_cells = len(result.rows)
    report.add(
        BenchResult.of(
            "zoo_sweep_full",
            walls,
            {
                "cells": n_cells,
                "n_nodes": scenario.n_nodes,
                "rounds": scenario.rounds,
                "digest": digests[0],
            },
        )
    )
    print(
        f"zoo_sweep_full: {n_cells} cells, best {min(walls):.3f}s, "
        f"digest {digests[0][:12]}"
    )
    return {"digests": digests, "result": result}


def bench_cells(report: BenchReport, scenario: TopologyZooScenario) -> None:
    """Per-cell hot-path timings at the scenario's size."""
    params = ZooParams(rounds=scenario.rounds)
    for family, algorithm, schedule_name in CELLS:
        topology = build_topology(
            spec_for_family(family, scenario.n_nodes, seed=scenario.seed)
        )
        schedule = make_zoo_schedule(
            schedule_name, topology, params.rounds, seed=scenario.seed
        )
        walls, _ = timed_runs(
            lambda: run_zoo(
                topology,
                algorithm,
                params=params,
                schedule=schedule,
                seed=scenario.seed,
            ),
            3,
        )
        report.add(
            BenchResult.of(
                f"zoo_cell_{family}_{algorithm}_{schedule_name}",
                walls,
                {"n_nodes": scenario.n_nodes, "rounds": params.rounds},
            )
        )


def check(
    summary: dict[str, Any], scenario: TopologyZooScenario, pinned: str
) -> list[str]:
    """The CI gates (see module docstring)."""
    problems: list[str] = []
    if len(set(summary["digests"])) != 1:
        problems.append(
            f"sweep is not reproducible: digests {summary['digests']}"
        )
    if summary["digests"][0] != pinned:
        problems.append(
            f"sweep drifted from {COMMITTED.name}: digest "
            f"{summary['digests'][0]} != committed {pinned}"
        )
    result = summary["result"]
    for family in scenario.families:
        if family not in GATED_FAMILIES:
            continue
        for algorithm in GATED_ALGORITHMS:
            if algorithm not in scenario.algorithms:
                continue
            row = result.row(family, algorithm, "none")
            if row is None:
                problems.append(f"missing row {family}/{algorithm}/none")
            elif row["final_imbalance"] > 1.15:
                problems.append(
                    f"{family}/{algorithm}/none: final imbalance "
                    f"{row['final_imbalance']:.3f} > 1.15 — did not balance"
                )
    winners = result.winners()
    expected = len(scenario.families) * len(scenario.schedules)
    if len(winners) != expected:
        problems.append(
            f"winners table has {len(winners)} cells, expected {expected}"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--out", default=str(COMMITTED),
        help="JSON output path (default: BENCH_topology.json, repo root)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the digest matches across reruns and the "
        "committed one, and the diffusion-family algorithms balance the spike",
    )
    args = parser.parse_args(argv)

    scenario = TopologyZooScenario()
    # Read before the default -o rewrites it.
    pinned = next(
        row["meta"]["digest"]
        for row in json.loads(COMMITTED.read_text())["results"]
        if row["name"] == "zoo_sweep_full"
    )
    report = BenchReport("repro topology-zoo benchmarks")
    summary = bench_sweep(report, scenario, repeats=2)
    bench_cells(report, scenario)
    print(report.format_table())
    print(summary["result"].report())
    return report.finish(
        args.out,
        check(summary, scenario, pinned) if args.check else None,
        "reproducible digest equal to the committed one, diffusion-family "
        "algorithms balanced, winners table full",
    )


if __name__ == "__main__":
    sys.exit(main())
