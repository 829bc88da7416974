#!/usr/bin/env python3
"""The repository's benchmark: one command, five workloads.

Driver contract (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the metrics by name and, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
``end_to_end`` metrics with ``--trace 0``, the ``per_layer`` metrics
with ``--trace 1``.

Ledger mode (no ``--workload``)::

    python3 bench/run.py [--seed S] [--repeats R] [--out FILE]

runs all five workloads, ``R`` timed children plus one traced child each,
prints every metric and writes provenance-stamped result rows.

Also: ``--compare A.json B.json`` (verdict per workload and metric),
``--smoke`` (every workload once at tiny size, nothing recorded).

Load shape: this process imports nothing heavy and runs **one child
process at a time**.  A timed child sets up once, then repeats the body
for ``--seconds`` and reports the median; a set-up-only child and the
traced child are fresh processes too, so ``setup_s`` and ``peak_rss_mb``
are per-process samples.  Every child pins itself to one vCPU, and
every time that carries a bound is corrected for the host's speed at
that moment (``calibration.py``).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import report  # noqa: E402 - needs BENCH_DIR on the path

#: Set-up-only children per run: with the body child's own set-up that
#: gives five ``setup_s`` samples, reported as their median.
EXTRA_SETUPS = 4

#: A child that has not finished by then is killed and counts as failed
#: (the driver allows a whole run 180 s).
CHILD_TIMEOUT_S = 150.0


# ----------------------------------------------------------------------
# Child: one sample in a fresh process
# ----------------------------------------------------------------------
def child_main(ns: argparse.Namespace) -> int:
    """Run one sample of one workload; print its record as JSON."""
    import importlib
    import resource

    # Every thread of the child on one vCPU, the calibration with them:
    # at a given moment the vCPUs of a shared host are not equally fast,
    # and a calibration corrects only what ran where it ran.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    t_enter = time.monotonic()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # imports numpy and the bench helpers, not repro
    from calibration import calibrate, corrected

    workload = workloads.make_workload(ns.workload, ns.size, ns.seed)
    for module in workload.modules:
        importlib.import_module(module)
    t_imported = time.monotonic()
    workload.setup()
    t_ready = time.monotonic()
    # The host's speed right after the set-up; for a timed child it is
    # also the calibration before the first repeat.
    calibration = calibrate()
    record = {
        "workload": ns.workload,
        "mode": ns.child,
        "seed_used": ns.seed if workload.uses_seed else None,
        "setup_s": corrected(t_ready - ns.spawned_at, [calibration]),
        "setup_raw_s": t_ready - ns.spawned_at,
        "setup.import_s": t_imported - t_enter,
        "workloads.build_s": t_ready - t_imported,
    }
    try:
        if ns.child == "timed":
            record.update(_run_timed(workload, ns.seconds or 0.0, calibration))
        elif ns.child == "traced":
            record.update(_run_traced(workload, calibration))
    finally:
        workload.teardown()
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record["peak_rss_mb"] = usage / 1024.0  # Linux reports KiB
    print(json.dumps(record))
    return 0


def _run_timed(workload, seconds: float, calibration: float) -> dict:
    """Repeat the body for ``seconds``, a calibration between repeats.

    Another repeat starts only if, at the mean cost of those so far
    (untimed brackets and calibrations included), it would end inside
    the window.  ``wall_s`` is the median of the repeats' corrected
    times; every repeat must reproduce the first one's results.
    """
    import workloads
    from calibration import calibrate, corrected

    records: list[dict] = []
    calibrations = [calibration]
    t_start = time.monotonic()
    while True:
        workload.begin_rep()
        raw, wall_raw_s, error = workloads.timed_call(
            workload.body, strict_warnings=workload.strict_warnings
        )
        if error is None:
            record = workload.outcome(raw)
        else:
            # The body died: every operation it was to attempt has failed.
            record = {
                "attempted": workload.n_operations(),
                "failures": [error] * workload.n_operations(),
            }
        workload.end_rep()
        calibrations.append(calibrate())
        record["wall_raw_s"] = wall_raw_s
        records.append(record)
        elapsed = time.monotonic() - t_start
        if error is not None or elapsed + elapsed / len(records) > seconds:
            break
    failures = [f for r in records for f in r["failures"]]
    first = records[0]
    for other in records[1:]:
        if "digest" not in other:
            continue  # a body that died, counted above
        for key in ("digest", "virtual_time_s", "lb_ratio", "counts"):
            if other.get(key) != first.get(key):
                failures.append(
                    f"{key} differs between repeats in one process: "
                    f"{first.get(key)!r} != {other.get(key)!r}"
                )
    # Repeat i ran between calibrations i and i + 1; one more on either
    # side halves the calibration's own noise and still spans only the
    # seconds around the repeat.
    raw_walls = [r["wall_raw_s"] for r in records]
    walls = [
        corrected(raw, calibrations[max(0, i - 1) : i + 3])
        for i, raw in enumerate(raw_walls)
    ]
    return {
        **first,
        "wall_s": statistics.median(walls),
        "wall_samples": walls,
        "wall_raw_s": statistics.median(raw_walls),
        "wall_raw_samples": raw_walls,
        "attempted": sum(r["attempted"] for r in records),
        "failures": failures,
    }


def _run_traced(workload, calibration: float) -> dict:
    import workloads
    from calibration import calibrate, corrected
    from spans import SpanRecorder

    recorder = SpanRecorder(f"{workload.name}-{os.getpid()}")
    raw, wall_raw_s, error = workloads.timed_call(
        lambda: workload.traced(recorder), strict_warnings=workload.strict_warnings
    )
    timing = {
        "wall_raw_s": wall_raw_s,
        "wall_s": corrected(wall_raw_s, [calibration, calibrate()]),
    }
    if error is not None:
        return {
            **timing,
            "attempted": workload.n_operations(),
            "failures": [error] * workload.n_operations(),
        }
    record = {**timing, **workload.outcome(raw)}
    layers = workload.layers(recorder, raw)
    record["failures"] = record["failures"] + workload.trace_failures
    # Upper bounds on what a faster layer can save here: the share
    # of the traced wall spent inside the problem proxies, and the
    # event count priced at the isolated dispatch cost.  Spans and
    # drivers are uncorrected, so they go over the uncorrected wall.
    layers["problems.share"] = (
        sum(
            total
            for name, (_, total) in recorder.totals().items()
            if name.startswith("problems.")
        )
        / wall_raw_s
    )
    layers["des.share"] = (
        layers.get("des.events", 0.0)
        * layers.get("des.dispatch_us", 0.0)
        * 1e-6
        / wall_raw_s
    )
    record["layers"] = layers
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    recorder.write(os.path.join(workloads.OUT_DIR, f"trace-{workload.name}.json"))
    return record


def spawn_child(
    mode: str, workload: str, seed: int, size: str, seconds: float = 0.0
) -> dict:
    """Run one child to completion; returns its record.  A timed child
    repeats the body for ``seconds`` (once when 0).

    A child that crashes, hangs or prints no record raises: without the
    program there is nothing to measure, and the caller exits non-zero
    without a result line.
    """
    argv = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--child", mode, "--workload", workload, "--seed", str(seed),
        "--size", size, "--seconds", repr(seconds),
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(
            f"{workload} {mode} child exceeded {CHILD_TIMEOUT_S:g}s"
        ) from None
    finally:
        # On every way out, a time-out, Ctrl-C or SIGTERM included, the
        # child is gone before this process is.
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} {mode} child exited {proc.returncode}:\n{err.strip()[-2000:]}"
        )
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise RuntimeError(
            f"{workload} {mode} child printed no record: {lines[-1][:200]!r}"
        ) from None


# ----------------------------------------------------------------------
# Parent: one workload's samples
# ----------------------------------------------------------------------
def measure(
    spec: dict,
    workload: str,
    seed: int,
    *,
    seconds: float,
    repeats: int = 1,
    trace: bool,
    size: str = "full",
    setups: int = EXTRA_SETUPS,
) -> dict:
    """All samples of one workload: ``repeats`` timed children, each
    repeating the body for ``seconds``; then ``setups`` set-up-only
    children; then one traced child if ``trace``."""
    timed = [
        spawn_child("timed", workload, seed, size, seconds) for _ in range(repeats)
    ]
    setup_only = [spawn_child("setup", workload, seed, size) for _ in range(setups)]
    traced = spawn_child("traced", workload, seed, size) if trace else None
    return report.summarise(workload, timed, setup_only, traced, spec)


def driver_mode(ns: argparse.Namespace, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if ns.workload not in names:
        print(f"unknown workload {ns.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    seconds = ns.seconds if ns.seconds is not None else spec["run_seconds"]
    if ns.trace:
        # The untraced child is there for trace_overhead and the
        # determinism cross-check: a third of the window leaves the rest
        # to the traced child.  No set-up time is reported, so no extra
        # set-up samples either.
        row = measure(spec, ns.workload, ns.seed, seconds=seconds / 3, trace=True, setups=0)
    else:
        row = measure(spec, ns.workload, ns.seed, seconds=seconds, trace=False)
    wanted = spec["per_layer"] if ns.trace else spec["end_to_end"]
    source = row["per_layer"] if ns.trace else row["end_to_end"]
    metrics = {}
    for metric in wanted:
        # A layer this workload never enters reports 0: no calls, no time.
        value = source.get(metric["name"], {"value": 0.0})["value"]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{ns.workload}  {metric['name']:<32} {value!r} {metric['unit']}")
    for failure in row["failures"]:
        print(f"{ns.workload}  FAILED: {failure}")
    wall = row["end_to_end"]["wall_s"]
    print(
        f"{ns.workload}  wall_s is the median of {len(wall['repeat_samples'][0])} "
        "repeats: " + " ".join(f"{sample:.3f}" for sample in wall["repeat_samples"][0])
    )
    print(
        f"{ns.workload}  uncorrected for the host's speed: "
        + " ".join(f"{sample:.3f}" for sample in wall["raw_repeat_samples"][0])
    )
    print(
        json.dumps(
            {
                "correct": row["failed"] == 0,
                "attempted": row["attempted"],
                "failed": row["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def ledger_mode(ns: argparse.Namespace, spec: dict) -> int:
    stamp = report.provenance(ROOT, ns.seed, ns.repeats)
    seconds = ns.seconds if ns.seconds is not None else spec["run_seconds"]
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        print(f"== {name}: {workload['why']}", flush=True)
        row = measure(
            spec, name, ns.seed, seconds=seconds, repeats=ns.repeats, trace=True
        )
        row["provenance"] = stamp
        rows.append(row)
        print(report.format_row(row, spec), flush=True)
    out = ns.out or os.path.join(BENCH_DIR, "out", "ledger.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"rows": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 1 if any(row["failed"] for row in rows) else 0


def smoke_mode(spec: dict) -> int:
    """Every workload once, timed and traced, at tiny size; records nothing."""
    status = 0
    for workload in spec["workloads"]:
        row = measure(
            spec, workload["name"], 0, seconds=0.0, trace=True, size="tiny", setups=0
        )
        verdict = "ok" if row["failed"] == 0 else f"FAILED {row['failures']}"
        print(
            f"{workload['name']:<16} wall {row['end_to_end']['wall_s']['value']:.2f}s  "
            f"{row['attempted']} op(s)  {verdict}",
            flush=True,
        )
        status |= row["failed"] != 0
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--child", choices=("setup", "timed", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--size", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)
    if ns.child:
        return child_main(ns)
    spec = report.load_spec(ROOT)
    if ns.compare:
        return report.compare_files(*ns.compare, spec)
    if ns.smoke:
        return smoke_mode(spec)
    if ns.workload:
        return driver_mode(ns, spec)
    return ledger_mode(ns, spec)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except (RuntimeError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
