"""Digests of run results, and the JSON reports the experiments write.

* :func:`canonical_json`, :func:`stable_digest`, :func:`run_fingerprint`
  — byte-stable digests of virtual-time results, the basis of every
  determinism check;
* :func:`save_report` — a diff-friendly JSON report.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["canonical_json", "stable_digest", "run_fingerprint", "save_report"]


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

