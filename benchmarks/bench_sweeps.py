#!/usr/bin/env python
"""Sweep-engine benchmark harness (``BENCH_sweeps.json``).

Times the experiment sweeps end to end under the four ``repro.exec``
configurations the engine promises are byte-identical:

* ``serial`` — ``jobs=1``, no cache (the legacy path),
* ``jobsN`` — the worker pool at ``--jobs N`` (default 4), no cache,
* ``cache_cold`` — ``--jobs N`` into a fresh cache directory,
* ``cache_hit`` — the same sweep again, served entirely from cache.

Workloads: the quick Figure 5 sweep, the quick resilience sweep, and a
16-schedule guard soak — the three sweeps CI runs.  Each parallel /
cached entry records ``speedup_vs_serial`` (and the cache-hit entry its
fraction of the cold time) in ``meta``, along with the CPU count the
run actually had: speedups are meaningless without knowing the core
budget, and a 1-core container honestly reports ~1x.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_sweeps.py             # full
    PYTHONPATH=src python benchmarks/bench_sweeps.py --quick     # CI smoke
    PYTHONPATH=src python benchmarks/bench_sweeps.py --jobs 8
    PYTHONPATH=src python benchmarks/bench_sweeps.py --check     # CI gate

``--check`` exits non-zero unless the soak speedup at ``--jobs 4``+ is
>= 2x and the cache-hit rerun costs < 10% of the cold run — the
acceptance numbers for the multi-core CI runner class.  Every timed
run's report is also byte-compared against the serial run's, so the
benchmark doubles as an end-to-end determinism check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from repro.exec import RunCache, SweepEngine

#: The repository root, where the committed ``BENCH_sweeps.json`` lives.
ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Workload builders: name -> callable(engine) -> report text
# ----------------------------------------------------------------------
def figure5_workload(quick: bool) -> Callable[[SweepEngine], str]:
    from repro.experiments import run_figure5
    from repro.workloads import Figure5Scenario

    scenario = Figure5Scenario.tiny() if quick else Figure5Scenario.quick()

    def run(engine: SweepEngine) -> str:
        return run_figure5(scenario, engine=engine).report()

    return run


def resilience_workload(quick: bool) -> Callable[[SweepEngine], str]:
    from repro.experiments import run_resilience
    from repro.workloads import ResilienceScenario

    scenario = ResilienceScenario.tiny() if quick else ResilienceScenario.quick()

    def run(engine: SweepEngine) -> str:
        return run_resilience(scenario, engine=engine).report()

    return run


def soak_workload(quick: bool, out_dir: str) -> Callable[[SweepEngine], str]:
    from repro.guard.soak import run_soak

    n_schedules = 4 if quick else 16

    def run(engine: SweepEngine) -> str:
        result = run_soak(
            n_schedules=n_schedules,
            seed=0,
            out_dir=out_dir,
            shrink=False,
            engine=engine,
        )
        return result.report()

    return run


def bench_sweep(
    rows: list[dict[str, Any]],
    name: str,
    fn: Callable[[SweepEngine], str],
    *,
    jobs: int,
    scratch: str,
) -> dict[str, Any]:
    """Four configurations of one sweep; asserts byte-identical reports."""
    cores = len(os.sched_getaffinity(0))
    cache_dir = os.path.join(scratch, f"{name}-cache")
    configs = {
        "serial": lambda: SweepEngine(jobs=1),
        f"jobs{jobs}": lambda: SweepEngine(jobs=jobs),
        "cache_cold": lambda: SweepEngine(jobs=jobs, cache=RunCache(cache_dir)),
        "cache_hit": lambda: SweepEngine(jobs=1, cache=RunCache(cache_dir)),
    }
    walls: dict[str, float] = {}
    texts: dict[str, str] = {}
    for label, make_engine in configs.items():
        engine = make_engine()
        t0 = time.perf_counter()
        texts[label] = fn(engine)
        walls[label] = time.perf_counter() - t0
        meta: dict[str, Any] = {"cores": cores, "jobs": jobs}
        if label != "serial":
            meta["speedup_vs_serial"] = walls["serial"] / walls[label]
        if label == "cache_hit":
            meta["fraction_of_cold"] = walls[label] / walls["cache_cold"]
            meta["cache_hits"] = engine.stats.hits
            meta["cache_misses"] = engine.stats.misses
        # One timed run: its wall is the row's best, median and mean.
        wall = walls[label]
        rows.append({
            "name": f"{name}_{label}",
            "best_s": wall,
            "median_s": wall,
            "mean_s": wall,
            "repeats": 1,
            "meta": meta,
        })

    for label, text in texts.items():
        assert text == texts["serial"], (
            f"{name}: {label} report differs from serial — determinism broken"
        )
    return {
        "serial_s": walls["serial"],
        "parallel_s": walls[f"jobs{jobs}"],
        "hit_s": walls["cache_hit"],
        "speedup": walls["serial"] / walls[f"jobs{jobs}"],
        "hit_fraction": walls["cache_hit"] / walls["cache_cold"],
        "misses_on_hit_run": engine.stats.misses,  # the cache_hit engine
    }


def build_report(
    quick: bool, jobs: int, scratch: str
) -> tuple[dict[str, Any], dict[str, dict[str, Any]]]:
    rows: list[dict[str, Any]] = []
    summaries: dict[str, dict[str, Any]] = {}
    workloads = [
        ("figure5_quick", figure5_workload(quick)),
        ("resilience_quick", resilience_workload(quick)),
        ("soak_16sched" if not quick else "soak_4sched",
         soak_workload(quick, scratch)),
    ]
    for name, fn in workloads:
        summaries[name] = bench_sweep(
            rows, name, fn, jobs=jobs, scratch=scratch
        )
        s = summaries[name]
        print(
            f"{name}: serial {s['serial_s']:.2f}s, jobs{jobs} "
            f"{s['parallel_s']:.2f}s ({s['speedup']:.2f}x), cache hit "
            f"{s['hit_s']:.2f}s ({100 * s['hit_fraction']:.1f}% of cold)"
        )
    report = {
        "title": "repro sweep-engine benchmarks",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": rows,
    }
    return report, summaries


def check(summaries: dict[str, dict[str, Any]], jobs: int) -> list[str]:
    """The CI acceptance gate: soak >= 2x at jobs >= 4, hits < 10% of cold."""
    problems = []
    for name, s in summaries.items():
        if name.startswith("soak") and jobs >= 4 and s["speedup"] < 2.0:
            problems.append(
                f"{name}: speedup {s['speedup']:.2f}x at jobs={jobs} "
                f"(expected >= 2x)"
            )
        # The <10% gate applies to the fully cacheable soak; figure5 and
        # resilience keep an uncached in-process tail (the traced
        # headline run) that dominates their small CI instances.
        if name.startswith("soak") and s["hit_fraction"] >= 0.10:
            problems.append(
                f"{name}: cache-hit rerun took {100 * s['hit_fraction']:.1f}% "
                f"of the cold run (expected < 10%)"
            )
        if s["misses_on_hit_run"]:
            problems.append(
                f"{name}: {s['misses_on_hit_run']} cache miss(es) on the "
                f"hit rerun (expected 0)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--jobs", type=int, default=4, help="worker pool size (default 4)"
    )
    parser.add_argument(
        "-o", "--out", default=str(ROOT / "BENCH_sweeps.json"),
        help="JSON output path (default: BENCH_sweeps.json, repo root)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the acceptance speedup/cache gates hold",
    )
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="bench-sweeps-")
    try:
        report, summaries = build_report(args.quick, args.jobs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"[report saved to {args.out}]")
    if not args.check:
        return 0
    problems = check(summaries, args.jobs)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("[--check passed: speedup and cache gates hold]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
