#!/usr/bin/env python
"""Kernel + end-to-end benchmark harness (``BENCH_kernels.json``).

Times the hot paths every experiment funnels through:

* banded LU factor+solve at ``kl = ku = 2``, the one band the product
  factors,
* the batched 2x2 Newton kernel,
* the Thomas tridiagonal solve,
* raw DES event dispatch (processes looping on ``Hold``),
* two end-to-end ``run_aiac`` solves: a Brusselator grid run
  (numerics-bound) and a Figure-5-style synthetic cluster run
  (event-loop-bound).

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --baseline benchmarks/out/seed_baseline.json -o BENCH_kernels.json

With ``--baseline`` each entry gains ``speedup_vs_baseline`` (baseline
best time / current best time), which is how the checked-in
``BENCH_kernels.json`` documents the speedup against the pre-
optimisation seed.  ``--save-baseline`` captures such a reference file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.perf import BenchReport, bench
from repro.core.solver import run_aiac
from repro.des import Hold, Simulator
from repro.numerics.banded import BandedMatrix, thomas_solve
from repro.numerics.newton import newton_batched_2x2
from repro.workloads.scenarios import Figure5Scenario, Table1Scenario


# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------
def banded_case(n: int, seed: int = 0):
    """A strictly diagonally dominant ``kl = ku = 2`` system in band storage."""
    rng = np.random.default_rng(seed)
    bands = rng.uniform(-1.0, 1.0, (5, n))
    bands[2] = 5.0 + np.abs(bands).sum(axis=0)
    b = rng.standard_normal(n)
    return BandedMatrix(bands, 2, 2), b


def newton_problem(n: int):
    """Independent 2x2 systems u^2 = v^2 = target (from bench_numerics)."""
    targets = np.linspace(1.0, 9.0, n)

    def f(u, v):
        return (
            u * u - targets,
            v * v - targets,
            2.0 * u,
            np.zeros_like(u),
            np.zeros_like(u),
            2.0 * v,
        )

    return f


def des_dispatch_workload(n_procs: int, n_holds: int) -> None:
    """Pure event-loop churn: processes looping on Hold, no numerics."""
    sim = Simulator()

    def worker(period: float):
        for _ in range(n_holds):
            yield Hold(period)

    for p in range(n_procs):
        sim.spawn(f"w{p}", worker(1.0 + 0.01 * p))
    sim.run()


def brusselator_e2e_scenario(quick: bool) -> Table1Scenario:
    """A reduced Table-1 grid run: real Brusselator numerics end to end."""
    if quick:
        return Table1Scenario(
            n_points=30, t_end=1.0, n_steps=8, tolerance=1e-3, load_dwell=50.0
        )
    return Table1Scenario(
        n_points=45, t_end=2.5, n_steps=12, tolerance=1e-4, load_dwell=100.0
    )


def run_brusselator_e2e(scenario: Table1Scenario) -> None:
    platform = scenario.platform()
    result = run_aiac(
        scenario.problem(),
        platform,
        scenario.solver_config(trace=True),
        host_order=scenario.host_order(platform),
    )
    assert result.converged, "benchmark run must converge"


def synthetic_e2e_scenario(quick: bool) -> tuple[Figure5Scenario, int]:
    if quick:
        return Figure5Scenario.tiny(), 8
    return Figure5Scenario.quick(), 16


def run_synthetic_e2e(scenario: Figure5Scenario, n_procs: int) -> None:
    result = run_aiac(
        scenario.problem(),
        scenario.platform(n_procs),
        scenario.solver_config(trace=True),
    )
    assert result.converged, "benchmark run must converge"


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def build_report(quick: bool, baseline: dict | None) -> BenchReport:
    report = BenchReport("repro kernel benchmarks", baseline=baseline)
    repeats = 3 if quick else 7
    min_time = 0.02 if quick else 0.25

    # --- banded LU ----------------------------------------------------
    for n in (512,) if quick else (512, 1024):
        matrix, b = banded_case(n)
        report.run(
            lambda m=matrix, rhs=b: m.lu_factor().solve(rhs),
            name=f"banded_lu_solve_n{n}_w5",
            repeats=repeats,
            min_time=min_time,
            meta={"n": n, "kl": 2, "ku": 2, "path": "native"},
        )

    # --- batched Newton ----------------------------------------------
    n_newton = 1024 if quick else 4096
    f = newton_problem(n_newton)
    u0 = np.full(n_newton, 5.0)
    v0 = np.full(n_newton, 5.0)
    report.run(
        lambda: newton_batched_2x2(f, u0, v0),
        name=f"newton_batched_n{n_newton}",
        repeats=repeats,
        min_time=min_time,
        meta={"n": n_newton},
    )

    # --- Thomas solve -------------------------------------------------
    n_tri = 4096
    rng = np.random.default_rng(7)
    lower = rng.uniform(-1, 1, n_tri)
    upper = rng.uniform(-1, 1, n_tri)
    diag = np.abs(lower) + np.abs(upper) + rng.uniform(1, 2, n_tri)
    lower[0] = upper[-1] = 0.0
    rhs = rng.standard_normal(n_tri)
    report.run(
        lambda: thomas_solve(lower, diag, upper, rhs),
        name=f"thomas_n{n_tri}",
        repeats=repeats,
        min_time=min_time,
    )

    # --- raw DES dispatch --------------------------------------------
    n_procs, n_holds = (16, 500) if quick else (50, 2000)
    report.run(
        lambda: des_dispatch_workload(n_procs, n_holds),
        name=f"des_dispatch_{n_procs}x{n_holds}",
        repeats=max(2, repeats - 2),
        meta={"n_procs": n_procs, "n_holds": n_holds},
    )

    # --- end to end ---------------------------------------------------
    bruss = brusselator_e2e_scenario(quick)
    report.run(
        lambda: run_brusselator_e2e(bruss),
        name="aiac_brusselator_e2e" + ("_quick" if quick else ""),
        repeats=2,
        warmup=0,
        meta={"n_points": bruss.n_points, "n_steps": bruss.n_steps},
    )
    synth, procs = synthetic_e2e_scenario(quick)
    report.run(
        lambda: run_synthetic_e2e(synth, procs),
        name="aiac_synthetic_e2e" + ("_quick" if quick else ""),
        repeats=2,
        warmup=0,
        meta={"n_components": synth.n_components, "n_procs": procs},
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "-o", "--out", default=None,
        help="JSON output path (default: BENCH_kernels.json, repo root)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="previously saved report; adds speedup_vs_baseline fields",
    )
    parser.add_argument(
        "--save-baseline", default=None, metavar="PATH",
        help="also save this run as a baseline reference file",
    )
    args = parser.parse_args(argv)

    baseline = BenchReport.load(args.baseline) if args.baseline else None
    report = build_report(args.quick, baseline)
    print(report.format_table())

    out = args.out
    if out is None:
        from pathlib import Path

        out = str(Path(__file__).resolve().parent.parent / "BENCH_kernels.json")
    report.save(out)
    print(f"[report saved to {out}]")
    if args.save_baseline:
        report.save(args.save_baseline)
        print(f"[baseline saved to {args.save_baseline}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
