#!/usr/bin/env python
"""Integrity benchmark + gate (``bench_integrity``).

Times the (detection arm × corruption schedule × model) sweep of
:func:`repro.experiments.run_integrity` and records its
:func:`~repro.analysis.perf.stable_digest` in the result ``meta``.
Unlike the other bench scripts this one is first a *gate*: the sweep is
the end-to-end proof that the data-integrity layer works, and
``--check`` turns its invariants into exit codes for CI.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_integrity.py            # full grid
    PYTHONPATH=src python benchmarks/bench_integrity.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_integrity.py --check    # CI gate

``--check`` exits non-zero unless

* two back-to-back runs of the sweep produce the **same digest**
  (byte-reproducibility: corruption draws come from named RNG streams,
  so the whole fault timeline replays),
* **no detect-arm run silently converged to a wrong answer** — the
  headline claim of the integrity layer,
* the zero-corruption rows are **bit-identical across both arms**
  (detection machinery is inert when no corruption is scheduled), and
* with detection armed, **every injected payload corruption was
  detected** (recall 1.0 on the wire-corruption schedules — a checksum
  mismatch can hide only by colliding, which the gate would catch), and
* with ``--quick``, the **zero-corruption fingerprint** is the pinned
  one.

The ``clean_digest`` in the sweep meta fingerprints just the
zero-corruption rows.  Those rows take the exact code path of every
ordinary (non-integrity) run, so the quick sweep's is pinned here: a
behaviour drift on the clean path fails loudly even if a full digest is
regenerated.  The full sweep's rows are held by the digest committed in
``BENCH_integrity.json``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from _gate import BenchReport, BenchResult, timed_runs
from repro.analysis.perf import stable_digest
from repro.exec import SweepEngine
from repro.experiments import IntegrityResult, run_integrity
from repro.workloads.scenarios import IntegrityScenario

#: Wire-corruption schedules gated on full detection recall.  The
#: in-memory/state schedules are *not* recall-gated: a single poisoned
#: block that the contractive iteration absorbs before any plausibility
#: screen fires is a legitimate ``masked`` outcome, not a regression.
PAYLOAD_SCHEDULES = ("flip_lo", "flip_hi", "perturb", "truncate")

#: ``clean_digest`` of the quick sweep.  If a change moves it on
#: purpose, update it here in the same commit.
QUICK_CLEAN_DIGEST = (
    "6763ff5e5e46f66e7308b6656c5ad544fdc3f1ea1074422447a129b9ccdf8e21"
)


def clean_digest(result: IntegrityResult) -> str:
    """Fingerprint of just the zero-corruption rows (both arms)."""
    rows = [r for r in result.rows if r["schedule"] == "none"]
    return stable_digest({"rows": rows})


def bench_sweep(
    report: BenchReport, scenario: IntegrityScenario, label: str, repeats: int
) -> dict[str, Any]:
    """Time ``repeats`` cold runs of the sweep; returns the summary."""
    walls, results = timed_runs(
        lambda: run_integrity(scenario, engine=SweepEngine()), repeats
    )
    digests = [r.digest() for r in results]
    result = results[-1]
    report.add(
        BenchResult.of(
            f"integrity_sweep_{label}",
            walls,
            {
                "cells": len(result.rows),
                "n_points": scenario.n_points,
                "digest": digests[0],
                "clean_digest": clean_digest(result),
            },
        )
    )
    print(
        f"integrity_sweep_{label}: {len(result.rows)} cells, "
        f"best {min(walls):.3f}s, digest {digests[0][:12]}, "
        f"clean_digest {clean_digest(result)[:12]}"
    )
    return {"label": label, "digests": digests, "result": result}


def check(summary: dict[str, Any]) -> list[str]:
    """The CI gates (see module docstring)."""
    problems: list[str] = []
    if len(set(summary["digests"])) != 1:
        problems.append(
            f"sweep is not reproducible: digests {summary['digests']}"
        )
    result: IntegrityResult = summary["result"]
    if summary["label"] == "quick" and clean_digest(result) != QUICK_CLEAN_DIGEST:
        problems.append(
            f"zero-corruption fingerprint drifted: pinned "
            f"{QUICK_CLEAN_DIGEST}, fresh {clean_digest(result)} — the "
            "clean path changed behaviour"
        )
    for row in result.wrong_detected_rows():
        problems.append(
            f"undetected wrong answer with detection armed: "
            f"{row['schedule']}/{row['model']} "
            f"(max_error {row['max_error']:.2e})"
        )
    for model in result.clean_arm_mismatches():
        problems.append(
            f"zero-corruption rows differ between arms for {model} — "
            "the detection layer is not inert on the clean path"
        )
    for row in result.rows:
        if row["arm"] != "detect" or row["schedule"] not in PAYLOAD_SCHEDULES:
            continue
        injected = row["corruptions_injected"]
        detected = row["corruptions_detected"]
        if injected == 0:
            problems.append(
                f"detect/{row['schedule']}/{row['model']}: schedule "
                "injected nothing — the corruption window never fired"
            )
        elif detected < injected:
            problems.append(
                f"detect/{row['schedule']}/{row['model']}: recall "
                f"{detected}/{injected} < 1.0 — corruption slipped past "
                "the checksums"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke grid")
    parser.add_argument(
        "-o", "--out", default=None,
        help="JSON output path (default: BENCH_integrity_timing.json; the "
        "committed BENCH_integrity.json is `repro integrity --full --json`)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the sweep reproduces byte-identically, "
        "no detect-arm run is silently wrong, the clean path is inert, "
        "and payload-corruption recall is 1.0",
    )
    args = parser.parse_args(argv)

    scenario = IntegrityScenario.quick() if args.quick else IntegrityScenario()
    label = "quick" if args.quick else "full"
    report = BenchReport("repro integrity benchmarks")
    summary = bench_sweep(report, scenario, label, repeats=2)
    print(report.format_table())
    print(summary["result"].report())
    return report.finish(
        args.out,
        check(summary) if args.check else None,
        "reproducible digest, zero undetected wrong answers, inert clean "
        "path, payload recall 1.0",
    )


if __name__ == "__main__":
    sys.exit(main())
