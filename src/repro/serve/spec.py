"""Job specs: what a client may submit, and how the daemon runs it.

A spec is a small JSON object naming one of the repo's sweep workloads
plus its size knobs::

    {"kind": "figure5",    "mode": "tiny" | "quick" | "full"}
    {"kind": "resilience", "mode": "tiny" | "quick" | "full"}
    {"kind": "soak",       "schedules": 4, "seed": 0}
    {"kind": "sleep",      "seconds": 0.2, "tasks": 2}

``sleep`` is a synthetic load/health workload (deterministic payload,
real wall-clock cost) used by the stall-watchdog tests, the benchmark
and operators probing a live daemon.

Determinism is the serving contract: :func:`execute_spec` is the *same*
pure function whether it runs inside the daemon, in a bench client's
process, or offline during ``repro audit-replay`` — a served job's
``result["digest"]`` must equal the digest of a direct run of the same
spec, and the audit log records ``config_digest(spec) → result digest``
for every run so that equality stays checkable forever.

Admission gates (:func:`validate_spec`) are the guard layer's front
door: malformed or out-of-bounds specs are rejected *before* they touch
the queue, in the same spirit as `repro.guard`'s invariant checks —
fail loudly at the boundary instead of wedging a worker later.  The
soak kind additionally runs under the full
:class:`~repro.guard.InvariantMonitor` once executing.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.analysis.perf import stable_digest

__all__ = [
    "AdmissionError",
    "KINDS",
    "config_digest",
    "execute_spec",
    "validate_spec",
]

KINDS = ("figure5", "resilience", "soak", "sleep")

_MODES = ("tiny", "quick", "full")

#: Admission bounds for the soak/sleep knobs: a multi-tenant daemon
#: must not accept one job that monopolises it for hours.
MAX_SOAK_SCHEDULES = 200
MAX_SLEEP_SECONDS = 60.0
MAX_SLEEP_TASKS = 64


class AdmissionError(ValueError):
    """A submitted spec failed an admission gate (never enqueued)."""


def validate_spec(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Check ``spec`` against the admission gates; returns a clean copy.

    The returned dict contains exactly the recognised fields with
    defaults filled in, so two submissions meaning the same job always
    produce the same ``config_digest``.
    """
    if not isinstance(spec, Mapping):
        raise AdmissionError(f"spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in KINDS:
        raise AdmissionError(f"unknown job kind {kind!r}; choose from {KINDS}")
    if kind in ("figure5", "resilience"):
        mode = spec.get("mode", "tiny")
        if mode not in _MODES:
            raise AdmissionError(
                f"unknown {kind} mode {mode!r}; choose from {_MODES}"
            )
        return {"kind": kind, "mode": mode}
    if kind == "soak":
        schedules = spec.get("schedules", 4)
        seed = spec.get("seed", 0)
        if not isinstance(schedules, int) or not 1 <= schedules <= MAX_SOAK_SCHEDULES:
            raise AdmissionError(
                f"soak schedules must be an int in [1, {MAX_SOAK_SCHEDULES}], "
                f"got {schedules!r}"
            )
        if not isinstance(seed, int):
            raise AdmissionError(f"soak seed must be an int, got {seed!r}")
        return {"kind": "soak", "schedules": schedules, "seed": seed}
    # kind == "sleep"
    seconds = spec.get("seconds", 0.1)
    tasks = spec.get("tasks", 1)
    if not isinstance(seconds, (int, float)) or not 0.0 <= seconds <= MAX_SLEEP_SECONDS:
        raise AdmissionError(
            f"sleep seconds must be in [0, {MAX_SLEEP_SECONDS}], got {seconds!r}"
        )
    if not isinstance(tasks, int) or not 1 <= tasks <= MAX_SLEEP_TASKS:
        raise AdmissionError(
            f"sleep tasks must be an int in [1, {MAX_SLEEP_TASKS}], got {tasks!r}"
        )
    return {"kind": "sleep", "seconds": float(seconds), "tasks": tasks}


def config_digest(spec: Mapping[str, Any]) -> str:
    """Stable digest of a (validated) spec — the audit log's left side."""
    return stable_digest(validate_spec(spec))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _sleep_task(seconds: float, index: int) -> dict[str, Any]:
    """Synthetic engine task: burns ``seconds`` of wall-clock."""
    time.sleep(seconds)
    return {"slept_s": seconds, "index": index}


def execute_spec(
    spec: Mapping[str, Any],
    *,
    engine=None,
    artifacts_dir: str | None = None,
) -> dict[str, Any]:
    """Run one job spec; returns its result payload.

    The payload always carries ``kind``, ``config_digest`` and
    ``digest`` (the result digest — a pure virtual-time fingerprint,
    byte-identical across daemon/offline/serial/pooled/cached
    execution).  ``engine`` optionally supplies a
    :class:`~repro.exec.SweepEngine` (the daemon passes its persistent
    one); ``artifacts_dir`` is where a failing soak may write its
    minimal reproducers.
    """
    spec = validate_spec(spec)
    kind = spec["kind"]
    base = {"kind": kind, "config_digest": stable_digest(spec)}

    if kind in ("figure5", "resilience"):
        from repro.sweeps import SWEEP_VERBS

        verb = SWEEP_VERBS[kind]
        result = verb.run(verb.preset(spec["mode"]), engine=engine)
        if kind == "figure5":
            summary = {
                "mean_ratio": result.mean_ratio,
                "proc_counts": list(result.proc_counts),
            }
        else:
            summary = {"n_rows": len(result.rows)}
        return {**base, "digest": result.digest(), **summary}

    if kind == "soak":
        import tempfile

        from repro.guard.soak import run_soak

        out_dir = artifacts_dir if artifacts_dir is not None else tempfile.mkdtemp(
            prefix="repro-serve-soak-"
        )
        result = run_soak(
            n_schedules=spec["schedules"],
            seed=spec["seed"],
            out_dir=out_dir,
            shrink=False,
            engine=engine,
        )
        return {
            **base,
            "digest": result.digest(),
            "ok": result.ok,
            "n_rows": len(result.rows),
            "n_failures": len(result.failures),
        }

    # kind == "sleep"
    from repro.exec import SweepEngine, Task

    engine = engine if engine is not None else SweepEngine()
    tasks = [
        Task(
            fn=_sleep_task,
            args=(spec["seconds"], index),
            key=None,  # a load generator must actually run every time
            label=f"sleep/{index}",
        )
        for index in range(spec["tasks"])
    ]
    payloads = engine.map(tasks)
    return {
        **base,
        "digest": stable_digest({"spec": spec, "payloads": payloads}),
        "slept_s": spec["seconds"],
        "tasks": spec["tasks"],
    }
