"""repro.exec — deterministic parallel sweep engine + content-addressed cache.

Turns the repo's sweeps (``repro figure5``, ``table1``, ``resilience``,
``ablations``, ``soak``) from one-simulation-at-a-time loops into a
throughput-oriented harness: independent runs fan out over a
``multiprocessing`` pool and previously computed runs are served from an
on-disk content-addressed cache, with the sweep output byte-identical to
the serial path in every case.  See ``docs/performance.md`` for the
determinism contract and the cache layout.
"""

from repro.exec.cache import (
    CACHE_EPOCH,
    CACHE_SCHEMA,
    DEFAULT_CACHE_DIR,
    RunCache,
    code_salt,
)
from repro.exec.engine import (
    EngineStats,
    SweepCancelled,
    SweepEngine,
    Task,
    default_jobs,
    normalise_payload,
    sweep,
)

__all__ = [
    "CACHE_EPOCH",
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "EngineStats",
    "RunCache",
    "SweepCancelled",
    "SweepEngine",
    "Task",
    "code_salt",
    "default_jobs",
    "normalise_payload",
    "sweep",
]
