#!/usr/bin/env python
"""Serve-daemon benchmark harness (``BENCH_serve.json``).

Starts an in-process ``repro.serve`` daemon and drives it with N
concurrent clients (default 8, the acceptance floor) submitting a mixed
figure5 / resilience / soak / sleep workload over the unix-socket
JSON-lines protocol, then restarts the daemon over the same state
directory and keeps serving — the committed numbers cover a full
restart cycle, not a pristine process.

Reported per entry (lower-better seconds in ``best/median/mean``,
everything else in ``meta``):

* ``serve_submit_ack``   — submit round trip (WAL fsync included),
* ``serve_job_latency``  — submit → terminal-result latency across all
  jobs (meta: p50/p95/p99, throughput in jobs/s),
* ``serve_warm_job``     — latency of jobs whose spec was already
  served once (dominated by queueing + cache hits, not simulation),
* ``serve_restart``      — daemon restart over the populated state dir
  (WAL replay + recovery included).

The benchmark is also a correctness harness: every served result digest
is compared against an offline ``execute_spec`` of the same spec, and
the audit log is byte-verified with ``audit_replay`` after the restart.
A digest mismatch fails the run even without ``--check``.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_serve.py             # full
    PYTHONPATH=src python benchmarks/bench_serve.py --quick     # CI smoke
    PYTHONPATH=src python benchmarks/bench_serve.py --clients 16
    PYTHONPATH=src python benchmarks/bench_serve.py --check     # CI gate

``--check`` exits non-zero unless every job finished ``done``, every
served digest matched its direct run, the audit replay verified, and
the warm (repeat-spec) cache hit-rate reached 50%.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import tempfile
import threading
import time
from typing import Any

from _gate import ROOT, BenchReport, BenchResult
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeDaemon,
    audit_replay,
    execute_spec,
)

#: The mixed workload: each client walks this ring round-robin from its
#: own offset, so concurrent clients hit overlapping specs (exercising
#: the run cache) in different orders (exercising the scheduler).
SPEC_RING = [
    {"kind": "figure5", "mode": "tiny"},
    {"kind": "resilience", "mode": "tiny"},
    {"kind": "soak", "schedules": 2, "seed": 0},
    {"kind": "sleep", "seconds": 0.05, "tasks": 2},
    {"kind": "figure5", "mode": "tiny"},
    {"kind": "soak", "schedules": 2, "seed": 1},
]


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def spec_key(spec: dict[str, Any]) -> str:
    return repr(sorted(spec.items()))


# ----------------------------------------------------------------------
# Client driver
# ----------------------------------------------------------------------
def drive_client(
    address: str,
    client_id: int,
    jobs_per_client: int,
    rows: list[dict[str, Any]],
    lock: threading.Lock,
) -> None:
    """One concurrent client: submit its share, follow every result."""
    client = ServeClient(address, timeout=600.0)
    for n in range(jobs_per_client):
        spec = SPEC_RING[(client_id + n) % len(SPEC_RING)]
        t0 = time.perf_counter()
        job_id = client.submit(spec, tenant=f"client-{client_id}")
        ack_s = time.perf_counter() - t0
        job = client.result(job_id, follow=True, timeout=600.0)
        row = {
            "client": client_id,
            "job_id": job_id,
            "spec": spec,
            "state": job["state"],
            "digest": (job.get("result") or {}).get("digest"),
            "ack_s": ack_s,
            "latency_s": time.perf_counter() - t0,
        }
        with lock:
            rows.append(row)


def run_phase(
    address: str, clients: int, jobs_per_client: int
) -> tuple[list[dict[str, Any]], float]:
    rows: list[dict[str, Any]] = []
    lock = threading.Lock()
    threads = [
        threading.Thread(
            target=drive_client,
            args=(address, c, jobs_per_client, rows, lock),
            name=f"bench-client-{c}",
        )
        for c in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return rows, time.perf_counter() - t0


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------
def build_report(
    quick: bool, clients: int, scratch: str
) -> tuple[BenchReport, dict[str, Any]]:
    jobs_per_client = 2 if quick else 3
    state_dir = os.path.join(scratch, "serve-state")
    config = ServeConfig(state_dir=state_dir, workers=2, durable=True)
    address = config.resolved_address()

    # Offline reference digests: the serving contract is that the daemon
    # returns exactly these, however the jobs were scheduled or cached.
    direct = {
        spec_key(spec): execute_spec(spec)["digest"] for spec in SPEC_RING
    }

    daemon = ServeDaemon(config)
    daemon.start()
    ServeClient(address).wait_until_up()
    try:
        rows, wall_s = run_phase(address, clients, jobs_per_client)
    finally:
        daemon.stop()

    # Restart over the populated state dir: WAL replay + recovery are
    # part of the served lifecycle, so they are timed and the second
    # phase runs against the warmed cache.
    t0 = time.perf_counter()
    daemon = ServeDaemon(ServeConfig(state_dir=state_dir, workers=2, durable=True))
    daemon.start()
    ServeClient(address).wait_until_up()
    restart_s = time.perf_counter() - t0
    try:
        warm_rows, warm_wall_s = run_phase(address, clients, 1)
        rows += warm_rows
        hits = daemon.engine.stats.hits
        lookups = hits + daemon.engine.stats.misses
        warm_hit_rate = hits / lookups if lookups else 0.0
    finally:
        daemon.stop()

    audit = audit_replay(
        os.path.join(state_dir, "audit.jsonl"), sample=4 if quick else 6
    )

    # ------------------------------------------------------------------
    n_jobs = len(rows)
    done = [r for r in rows if r["state"] == "done"]
    mismatches = [
        r for r in done if r["digest"] != direct[spec_key(r["spec"])]
    ]
    acks = [r["ack_s"] for r in rows]
    lats = [r["latency_s"] for r in rows]
    # A spec's first serving simulates; repeats are queue + cache cost.
    seen: set[str] = set()
    warm_lats = []
    for row in rows:
        key = spec_key(row["spec"])
        if key in seen:
            warm_lats.append(row["latency_s"])
        seen.add(key)
    throughput = n_jobs / (wall_s + warm_wall_s)

    cores = len(os.sched_getaffinity(0))
    meta = {
        "cores": cores,
        "clients": clients,
        "n_jobs": n_jobs,
        "n_done": len(done),
        "digest_mismatches": len(mismatches),
        "audit_replay_ok": audit.ok,
        "audit_records": audit.n_records,
        "warm_cache_hit_rate": warm_hit_rate,
        "throughput_jobs_per_s": throughput,
    }

    report = BenchReport("repro serve-daemon benchmarks")
    for name, walls, extra in (
        ("serve_submit_ack", acks, {"p95_s": 0.95, "p99_s": 0.99}),
        ("serve_job_latency", lats, {"p50_s": 0.5, "p95_s": 0.95, "p99_s": 0.99}),
        ("serve_warm_job", warm_lats, {"p95_s": 0.95}),
    ):
        nearest_rank = {k: percentile(walls, q) for k, q in extra.items()}
        report.add(BenchResult.of(name, walls, {**meta, **nearest_rank}))
    report.add(
        BenchResult.of(
            "serve_restart",
            [restart_s],
            {"cores": cores, "recovered_wal_records": audit.n_records},
        )
    )

    summary = {
        **meta,
        "p50_latency_s": percentile(lats, 0.5),
        "p95_latency_s": percentile(lats, 0.95),
        "p99_latency_s": percentile(lats, 0.99),
        "mismatch_rows": mismatches,
        "states": sorted({r["state"] for r in rows}),
    }
    return report, summary


def check(summary: dict[str, Any]) -> list[str]:
    """The CI acceptance gate (sized for the 1-core container too)."""
    problems = []
    if summary["n_done"] != summary["n_jobs"]:
        problems.append(
            f"{summary['n_jobs'] - summary['n_done']} of "
            f"{summary['n_jobs']} job(s) did not finish done"
        )
    if summary["digest_mismatches"]:
        problems.append(
            f"{summary['digest_mismatches']} served digest(s) differ from "
            f"direct execution: {summary['mismatch_rows']}"
        )
    if not summary["audit_replay_ok"]:
        problems.append("audit_replay found digest mismatches")
    if summary["warm_cache_hit_rate"] < 0.5:
        problems.append(
            f"warm cache hit-rate {summary['warm_cache_hit_rate']:.2f} "
            f"(expected >= 0.5 on the repeat-heavy mix)"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--clients", type=int, default=8,
        help="concurrent submitting clients (default 8)",
    )
    parser.add_argument(
        "-o", "--out", default=str(ROOT / "BENCH_serve.json"),
        help="JSON output path (default: BENCH_serve.json, repo root)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the digest/audit/cache gates hold",
    )
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="bench-serve-")
    try:
        report, summary = build_report(args.quick, args.clients, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(report.format_table())
    print(
        f"{summary['n_jobs']} job(s) over {summary['clients']} client(s): "
        f"p50 {summary['p50_latency_s']:.2f}s, "
        f"p95 {summary['p95_latency_s']:.2f}s, "
        f"p99 {summary['p99_latency_s']:.2f}s, "
        f"{summary['throughput_jobs_per_s']:.2f} jobs/s, warm hit-rate "
        f"{summary['warm_cache_hit_rate']:.2f}, digests "
        f"{'ok' if not summary['digest_mismatches'] else 'MISMATCHED'}, "
        f"audit {'ok' if summary['audit_replay_ok'] else 'MISMATCHED'}"
    )
    code = report.finish(
        args.out,
        check(summary) if args.check else None,
        "digest, audit and cache gates hold",
    )
    if summary["digest_mismatches"] or not summary["audit_replay_ok"]:
        return 1  # correctness failures are fatal even without --check
    return code


if __name__ == "__main__":
    sys.exit(main())
