"""repro.exec — deterministic parallel sweep engine + content-addressed cache.

Turns the repo's sweeps (``repro figure5``, ``table1``, ``resilience``,
``ablations``, ``soak``) from one-simulation-at-a-time loops into a
throughput-oriented harness: independent runs fan out over a
``multiprocessing`` pool and previously computed runs are served from an
on-disk content-addressed cache, with the sweep output byte-identical to
the serial path in every case.  See ``docs/performance.md`` for the
determinism contract and the cache layout.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "CACHE_EPOCH": "cache",
        "CACHE_SCHEMA": "cache",
        "DEFAULT_CACHE_DIR": "cache",
        "EngineStats": "engine",
        "RunCache": "cache",
        "SweepCancelled": "engine",
        "SweepEngine": "engine",
        "Task": "engine",
        "code_salt": "cache",
        "normalise_payload": "engine",
        "sweep": "engine",
    },
)
