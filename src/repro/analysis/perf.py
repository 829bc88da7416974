"""Micro/macro benchmark plumbing: timers, warmup/repeat logic, JSON.

The kernels this repo runs (banded LU, batched Newton, the DES event
loop) are fast enough that naive one-shot timing is all noise.  This
module provides the small amount of machinery a credible perf
trajectory needs:

* :func:`bench` — warmup + repeat measurement returning robust stats
  (best / median / mean), the shape pytest-benchmark uses,
* :class:`BenchReport` — accumulates named results, computes speedups
  against a baseline run, and writes the ``BENCH_kernels.json`` that
  future PRs regress against.

Everything here is wall-clock (``perf_counter``): the kernels are
CPU-bound and single-threaded, and wall-clock is what the end-to-end
experiments pay.
"""

from __future__ import annotations

import hashlib
import json
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "bench",
    "BenchResult",
    "BenchReport",
    "stable_digest",
    "run_fingerprint",
    "save_report",
]


def canonical_json(data: Any) -> str:
    """Canonical JSON text of ``data``: sorted keys, no whitespace.

    Python serialises floats via ``repr`` (shortest round-trip form), so
    identical float values always produce identical text — which makes
    this a sound basis for byte-level reproducibility checks.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def stable_digest(data: Any) -> str:
    """SHA-256 hex digest of ``data``'s canonical JSON form.

    Used by the resilience experiment's determinism check: two runs of
    the same scenario and seed must produce the same digest.  Feed it
    only virtual-time quantities — a wall-clock field would break the
    guarantee by construction.
    """
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def run_fingerprint(result: Any) -> str:
    """Engine-independent digest of a solver :class:`RunResult`.

    Covers every virtual-time observable a caller can act on —
    convergence, timings, per-rank iteration/work vectors, partition,
    residuals, the full solution (bit-exact via float ``repr``) and the
    tracer aggregates — while *excluding* execution-engine telemetry
    (``meta["engine"]``, ``meta["events_dispatched"]``): the reference
    event-driven run and the lockstep replay of the same scenario must
    fingerprint identically, and wall-clock-ish counters must never
    break that.  Duck-typed so analysis code can fingerprint any object
    with the ``RunResult`` surface.
    """
    tracer = result.tracer
    meta = {
        k: v
        for k, v in result.meta.items()
        if k not in ("engine", "events_dispatched")
        and isinstance(v, (str, int, float, bool, list, type(None)))
    }
    return stable_digest(
        {
            "model": result.model,
            "converged": result.converged,
            "time": result.time,
            "iterations": list(result.iterations),
            "work": list(result.work),
            "solution": [block.tolist() for block in result.solution_blocks],
            "final_partition": [list(b) for b in result.final_partition],
            "residuals_at_stop": list(result.residuals_at_stop),
            "n_migrations": result.n_migrations,
            "components_migrated": result.components_migrated,
            "busy": [tracer.busy_time_of(r) for r in range(result.n_ranks)],
            "idle": [tracer.idle_time_of(r) for r in range(result.n_ranks)],
            "n_messages": tracer.n_messages(),
            "meta": meta,
        }
    )


def save_report(path: str, data: dict[str, Any]) -> None:
    """Write a JSON report with sorted keys (diff-friendly, stable)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(slots=True)
class BenchResult:
    """Statistics of one benchmarked callable (seconds)."""

    name: str
    best: float
    median: float
    mean: float
    repeats: int
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "best_s": self.best,
            "median_s": self.median,
            "mean_s": self.mean,
            "repeats": self.repeats,
            **({"meta": self.meta} if self.meta else {}),
        }


def bench(
    fn: Callable[[], Any],
    *,
    name: str = "",
    repeats: int = 5,
    warmup: int = 1,
    min_time: float = 0.0,
    meta: dict[str, Any] | None = None,
) -> BenchResult:
    """Time ``fn()`` with warmup and repeats.

    ``min_time`` keeps repeating past ``repeats`` until the accumulated
    measurement time exceeds it (useful for sub-millisecond kernels).
    The *best* time is the headline number: for a deterministic
    CPU-bound kernel the minimum is the least-noise estimate, while
    mean/median document the spread.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    times: list[float] = []
    total = 0.0
    while len(times) < repeats or total < min_time:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        total += dt
        if len(times) >= 10_000:  # safety valve
            break
    return BenchResult(
        name=name or getattr(fn, "__name__", "bench"),
        best=min(times),
        median=statistics.median(times),
        mean=statistics.fmean(times),
        repeats=len(times),
        meta=dict(meta or {}),
    )


class BenchReport:
    """Accumulates :class:`BenchResult` rows and serialises the report.

    A report can embed a *baseline* (a previously saved report, e.g.
    measured on the pre-optimisation seed): matching entry names then
    get a ``speedup_vs_baseline`` field computed from best times.
    """

    def __init__(self, title: str, *, baseline: dict[str, Any] | None = None) -> None:
        self.title = title
        self.results: list[BenchResult] = []
        self.baseline = baseline

    def add(self, result: BenchResult) -> BenchResult:
        self.results.append(result)
        return result

    def run(self, fn: Callable[[], Any], **kwargs: Any) -> BenchResult:
        """Benchmark ``fn`` via :func:`bench` and record the result."""
        return self.add(bench(fn, **kwargs))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def _baseline_best(self, name: str) -> float | None:
        if not self.baseline:
            return None
        for entry in self.baseline.get("results", []):
            if entry.get("name") == name:
                return float(entry["best_s"])
        return None

    def to_dict(self) -> dict[str, Any]:
        rows = []
        for r in self.results:
            row = r.to_dict()
            base = self._baseline_best(r.name)
            if base is not None and r.best > 0:
                row["baseline_best_s"] = base
                row["speedup_vs_baseline"] = base / r.best
            rows.append(row)
        return {
            "title": self.title,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "results": rows,
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> dict[str, Any]:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def format_table(self) -> str:
        """Plain-text rendering for terminal output."""
        lines = [self.title, "-" * len(self.title)]
        width = max((len(r.name) for r in self.results), default=4)
        for r in self.results:
            base = self._baseline_best(r.name)
            extra = ""
            if base is not None and r.best > 0:
                extra = f"  ({base / r.best:5.2f}x vs baseline)"
            lines.append(
                f"{r.name:<{width}}  best {1e3 * r.best:9.3f} ms  "
                f"median {1e3 * r.median:9.3f} ms{extra}"
            )
        return "\n".join(lines)
