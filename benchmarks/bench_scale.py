#!/usr/bin/env python
"""Large-N scaling benchmark (``BENCH_scale.json``).

A problem × ranks × components grid of SISC runs, each executed by up
to two engines:

* ``event``    — the reference event-driven solver on the DES kernel
  (:class:`repro.des.Simulator` over the flat-heap
  :class:`repro.des.EventQueue`): the baseline every gate is taken
  against;
* ``lockstep`` — :func:`repro.models.run_sisc_batched`, the rank-batched
  round replay that dispatches no per-rank events at all.

The ``event`` rung once also ran on a bucket-``indexed`` queue, which
was slower than the flat heap on five of seven rows and 1.5-2x slower
per queue operation (``bench/README.md`` finding 1), so it was deleted:
the 48-57x the ladder reports is, and always was, lockstep-vs-event.

The problem axis covers the synthetic activity-concentration workload
*and* the real Brusselator PDE (rank-batched Newton sweeps through
:meth:`~repro.problems.base.Problem.batched_chain_sweeper`, with the
adaptive-skip machinery on), plus a 10k-rank synthetic point that only
the lockstep replay runs — an event-driven run at that width would
take minutes for no extra information.

Every engine must produce the *same answer*: each grid point asserts
that :func:`repro.analysis.perf.run_fingerprint` of all the engines it
runs is identical, so the benchmark doubles as a large-N determinism
check.

The throughput column is **events/sec**: dispatched events (for the
lockstep replay, the events the reference semantics *would* dispatch —
it replays them in closed form) divided by the best wall-clock of
:data:`REPEATS` runs.  Where both engines run, they run as
:data:`REPEATS` alternating (event, lockstep) pairs, and the speedup is
the median of the pairs' events/sec ratios: a noisy neighbour slows
both runs of a pair, not just one engine's best.  Runs are capped at a
fixed round count (``max_iterations``) so the virtual work per grid
point is identical across engines and the wall-clock budget stays
bounded at 1024 ranks;
``meta`` records the honest core count and the process peak RSS after
each point's runs (a high-water mark — points run smallest to largest
so the column is attributable).

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_scale.py            # full grid
    PYTHONPATH=src python benchmarks/bench_scale.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_scale.py --check    # CI gate

``--check`` enforces three gates:

* lockstep >= 10x *event* events/sec (the pairs' median ratio, as in
  every speedup gate) at the scheduler-bound synthetic point (the
  1024-rank synthetic entry with the smallest per-rank blocks — the
  regime the lockstep replay optimises);
* lockstep >= 5x *event* events/sec at the 1024-rank Brusselator point
  (tiny per-rank blocks, so the gate measures the rank-batched replay
  against the event-driven scheduler, not the Newton kernel);
* process peak RSS after every lockstep row stays under
  :data:`MEMORY_BUDGET_BYTES` — the rank-batched global state must not
  blow up the memory profile the lockstep replay exists to avoid.

At the 10⁶-component synthetic flagship point the numpy sweep itself,
identical work in every engine, dominates the round and compresses the
scheduler speedup; that row is reported but not gated, because a gate
on it would measure the problem kernel, not the scheduler.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from dataclasses import replace
from typing import Any

from _gate import ROOT, BenchReport, BenchResult, timed_runs
from repro.analysis.perf import run_fingerprint
from repro.core.records import RunResult
from repro.core.solver import build_chain, run_chain
from repro.models import run_sisc_batched
from repro.runtime.memory import peak_rss_bytes
from repro.workloads import ScaleScenario

ALL_ENGINES: tuple[str, ...] = ("event", "lockstep")

#: Runs per engine per grid point, as alternating pairs where both
#: engines run.  The events/sec column takes the best (fastest) run and
#: the speedup gates the median of the pairs' ratios, so one run slowed
#: by a noisy neighbour moves one ratio, not the gate; every run must
#: give the same fingerprint.
REPEATS: int = 3

#: Process peak-RSS ceiling asserted (under ``--check``) after every
#: lockstep row.  The largest rank-batched state on the grid is the
#: 10⁶-component synthetic flagship's event-driven baseline (~0.5 GB
#: high-water in practice); the budget leaves ~3x headroom so the gate
#: trips on a memory blow-up, not on allocator noise.
MEMORY_BUDGET_BYTES: int = int(1.5 * 2**30)

#: (problem, n_ranks, components_per_rank, rounds, engines) — smaller
#: memory footprints first, so the peak-RSS column (a process
#: high-water mark) is attributable to the point it is recorded after.
#: The Brusselator points keep tiny per-rank blocks: the PDE state is
#: ~50x the synthetic state per component, and scheduler behaviour —
#: what this grid measures — depends on ranks, not block width.
#: Ordered by expected memory footprint, smallest first:
#: ``peak_rss_bytes`` is the *process-lifetime* high-water mark, so a
#: monotone schedule keeps each row's reading attributable to that row.
FULL_GRID: tuple[tuple[str, int, int, int, tuple[str, ...]], ...] = (
    ("brusselator", 256, 4, 30, ALL_ENGINES),
    ("synthetic", 64, 1600, 50, ALL_ENGINES),
    ("synthetic", 256, 400, 50, ALL_ENGINES),
    ("synthetic", 1024, 100, 50, ALL_ENGINES),
    ("brusselator", 1024, 4, 30, ALL_ENGINES),
    ("synthetic", 1024, 1024, 50, ALL_ENGINES),
    ("synthetic", 10240, 100, 50, ("lockstep",)),
    ("brusselator", 4096, 8, 30, ALL_ENGINES),
)

#: CI smoke grid: seconds, not minutes, but still wide enough that the
#: lockstep replay's advantage is unambiguous on both problems.
QUICK_GRID: tuple[tuple[str, int, int, int, tuple[str, ...]], ...] = (
    ("brusselator", 256, 4, 20, ALL_ENGINES),
    ("synthetic", 64, 100, 30, ALL_ENGINES),
    ("synthetic", 256, 100, 30, ALL_ENGINES),
)


def scenario_for(
    problem: str, n_ranks: int, components_per_rank: int
) -> ScaleScenario:
    return ScaleScenario(
        problem_kind=problem,
        n_ranks=n_ranks,
        components_per_rank=components_per_rank,
    )


def _config(scenario: ScaleScenario, rounds: int):
    # Cap the round count: identical virtual work for every engine and a
    # bounded wall-clock at 1024 ranks.  The runs abort at the cap by
    # design; abort is a deterministic, bit-replayable path.
    return replace(scenario.solver_config(), max_iterations=rounds)


def run_event(scenario: ScaleScenario, rounds: int) -> tuple[RunResult, int]:
    """One event-driven SISC run; returns (result, events dispatched)."""
    run = build_chain(
        scenario.problem(),
        scenario.platform(),
        _config(scenario, rounds),
        model="sisc",
    )
    return run_chain(run), run.sim.n_dispatched


def run_lockstep(scenario: ScaleScenario, rounds: int) -> tuple[RunResult, int]:
    result = run_sisc_batched(
        scenario.problem(), scenario.platform(), _config(scenario, rounds)
    )
    return result, int(result.meta["events_dispatched"])


def bench_point(
    report: BenchReport,
    problem: str,
    n_ranks: int,
    components_per_rank: int,
    rounds: int,
    engine_names: tuple[str, ...] = ALL_ENGINES,
) -> dict[str, Any]:
    """The selected engines at one grid point; asserts identical answers."""
    scenario = scenario_for(problem, n_ranks, components_per_rank)
    cores = len(os.sched_getaffinity(0))
    point = f"{problem}_r{n_ranks}_c{scenario.n_components}"
    base_meta = {
        "cores": cores,
        "problem": problem,
        "n_ranks": n_ranks,
        "n_components": scenario.n_components,
        "rounds": rounds,
    }

    all_engines = {"event": run_event, "lockstep": run_lockstep}
    engines = {name: all_engines[name] for name in engine_names}
    walls: dict[str, list[float]] = {engine: [] for engine in engines}
    stats: dict[str, dict[str, Any]] = {}
    fingerprints: dict[str, str] = {}
    for _ in range(REPEATS):  # (event, lockstep) pairs where both run
        for engine, fn in engines.items():
            [wall], [(result, events)] = timed_runs(lambda: fn(scenario, rounds))
            walls[engine].append(wall)
            fingerprint = run_fingerprint(result)
            if fingerprints.setdefault(engine, fingerprint) != fingerprint:
                raise AssertionError(
                    f"{point}: {engine} is not deterministic — fingerprint "
                    f"{fingerprint} after {fingerprints[engine]}"
                )
            del result  # live results slow the collector: drop them first
            stats[engine] = {"events": events, "peak_rss_bytes": peak_rss_bytes()}
    for engine, stat in stats.items():
        wall = min(walls[engine])
        stat["events_per_sec"] = stat["events"] / wall if wall > 0 else float("inf")
        report.add(
            BenchResult.of(
                f"scale_{point}_{engine}", walls[engine], {**base_meta, **stat}
            )
        )

    if len(set(fingerprints.values())) != 1:
        raise AssertionError(
            f"{point}: engines disagree — fingerprints {fingerprints}"
        )
    ev = {e: s["events_per_sec"] for e, s in stats.items()}
    pair_speedups = (
        [
            (stats["lockstep"]["events"] / lockstep)
            / (stats["event"]["events"] / event)
            for event, lockstep in zip(walls["event"], walls["lockstep"])
        ]
        if len(stats) == 2
        else []
    )
    speedup = statistics.median(pair_speedups) if pair_speedups else None
    parts = [f"{e} {rate:,.0f} ev/s" for e, rate in ev.items()]
    if speedup is not None:
        pairs = ", ".join(f"{ratio:.2f}" for ratio in pair_speedups)
        parts.append(f"({speedup:.1f}x vs event, median of pairs {pairs})")
    rss_engine = "lockstep" if "lockstep" in stats else next(iter(stats))
    parts.append(f"rss {stats[rss_engine]['peak_rss_bytes'] / 1e6:,.0f} MB")
    print(f"{point}: " + ", ".join(parts))
    return {
        "point": point,
        "problem": problem,
        "n_ranks": n_ranks,
        "n_components": scenario.n_components,
        "speedup_vs_event": speedup,
        "pair_speedups": pair_speedups,
        "lockstep_peak_rss_bytes": (
            stats["lockstep"]["peak_rss_bytes"] if "lockstep" in stats else None
        ),
        **{f"{e}_events_per_sec": rate for e, rate in ev.items()},
    }


def build_report(quick: bool) -> tuple[BenchReport, list[dict[str, Any]]]:
    report = BenchReport("repro large-N scaling benchmarks")
    grid = QUICK_GRID if quick else FULL_GRID
    summaries = [
        bench_point(report, problem, r, c, rounds, engines)
        for problem, r, c, rounds, engines in grid
    ]
    return report, summaries


def check(summaries: list[dict[str, Any]]) -> list[str]:
    """The CI gates (see the module docstring for the rationale).

    Speedup gates anchor at each problem's 1024-rank, fewest-components
    entry (the strong-scaling point, where per-event scheduler overhead
    — not the shared numpy sweep — is the bottleneck); on the quick
    grid, at the largest rank below that.  Rows above 1024 ranks are
    reported, never gated: there is no event-driven baseline worth
    waiting for at 10k ranks, and the 4096-rank Brusselator round is
    increasingly kernel-bound.
    """
    problems: list[str] = []

    for problem, floor in (("synthetic", 10.0), ("brusselator", 5.0)):
        rows = [
            s
            for s in summaries
            if s["problem"] == problem
            and s["speedup_vs_event"] is not None
            and s["n_ranks"] <= 1024
        ]
        if not rows:
            continue
        top_ranks = max(s["n_ranks"] for s in rows)
        gated = min(
            (s for s in rows if s["n_ranks"] == top_ranks),
            key=lambda s: s["n_components"],
        )
        if gated["speedup_vs_event"] < floor:
            problems.append(
                f"{gated['point']}: lockstep only "
                f"{gated['speedup_vs_event']:.1f}x the event-driven "
                f"scheduler's events/sec (expected >= {floor:g}x)"
            )

    for s in summaries:
        rss = s["lockstep_peak_rss_bytes"]
        if rss is not None and rss > MEMORY_BUDGET_BYTES:
            problems.append(
                f"{s['point']}: peak RSS {rss / 2**30:.2f} GiB after the "
                f"lockstep run exceeds the "
                f"{MEMORY_BUDGET_BYTES / 2**30:.1f} GiB budget"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke grid")
    parser.add_argument(
        "-o", "--out", default=str(ROOT / "BENCH_scale.json"),
        help="JSON output path (default: BENCH_scale.json, repo root)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the speedup and memory gates pass "
        "(see module docstring)",
    )
    args = parser.parse_args(argv)

    report, summaries = build_report(args.quick)
    print(report.format_table())
    return report.finish(
        args.out,
        check(summaries) if args.check else None,
        "speedup and memory gates hold",
    )


if __name__ == "__main__":
    sys.exit(main())
