"""Deterministic parallel sweep engine.

The paper's results are all *sweeps of independent runs* (Figure 5 is a
strong-scaling sweep, Table 1 a platform sweep, the resilience and soak
harnesses a fault-schedule grid).  Each run already owns its randomness
through :class:`~repro.util.rng.RngTree`, so runs are independent pure
functions of their configuration — exactly the shape that farms out over
a worker pool, the same move the paper itself made at the processor
level (Bahi et al. 2003).

The engine guarantees **byte-identical output regardless of execution
strategy**:

* results are merged in *submission order*, never completion order;
* every task's return value is normalised through canonical JSON
  (:func:`~repro.analysis.perf.canonical_json` + ``json.loads``), so the
  in-process, worker-pool and cache-hit paths all yield structurally
  identical payloads (sorted dict keys, tuples as lists, round-tripped
  floats — Python float repr round-trips exactly, so no value changes);
* workers run the *same* task function the serial path runs; parallelism
  never reorders, splits or perturbs a run's RNG streams because each
  run builds its own from the scenario seed.

Consequently a sweep report's ``stable_digest`` is independent of
``jobs`` and of whether any run came from the
:class:`~repro.exec.cache.RunCache` — the contract
``tests/test_exec_sweeps.py`` pins.

Task functions must be **top-level callables** (picklable by reference)
taking picklable arguments; they return a JSON-serialisable payload.  A
task that raises aborts the sweep (the exception propagates), unless the
task function itself catches and encodes failures in its payload, as
:mod:`repro.guard.soak` does.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.analysis.perf import canonical_json
from repro.exec.cache import RunCache

__all__ = [
    "EngineStats",
    "SweepCancelled",
    "SweepEngine",
    "Task",
    "normalise_payload",
    "sweep",
]


class SweepCancelled(RuntimeError):
    """An in-flight :meth:`SweepEngine.map` was cancelled.

    Raised on the mapping thread after :meth:`SweepEngine.cancel` (the
    serve daemon's stall watchdog and kill verb).  The pooled path
    terminates its workers mid-task; the serial path can only observe
    the flag *between* tasks (an in-process simulation is
    uninterruptible).  Either way the engine is reusable afterwards —
    the next :meth:`~SweepEngine.map` starts a fresh pool.
    """


def normalise_payload(payload: Any) -> Any:
    """Canonical-JSON round trip: the engine's single result format.

    Raises ``TypeError`` for non-JSON-serialisable payloads — the
    engine's task contract is enforced here, on every path, so a task
    cannot work serially but fail under the pool or the cache.
    """
    import json

    return json.loads(canonical_json(payload))


@dataclass(frozen=True)
class Task:
    """One unit of sweep work.

    ``fn`` must be a top-level function; ``args``/``kwargs`` must be
    picklable.  ``key`` is the cache-key material (any JSON structure
    fully determining the result) — ``None`` marks the task uncacheable.
    ``label`` names the task for a human reading a task list; the
    engine never reads it.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    key: Any = None
    label: str = ""


@dataclass
class EngineStats:
    """What one engine did: task counts, cache traffic, utilization.

    ``wall_s`` and ``busy_s`` are real wall-clock quantities — useful
    for ``BENCH_sweeps.json`` and operator output, but **never** part of
    any digested report (that would break byte-reproducibility by
    construction).
    """

    jobs: int = 1
    tasks: int = 0
    hits: int = 0
    misses: int = 0
    #: Pool lifecycle: how many times :meth:`SweepEngine.map` found a
    #: live pool to reuse vs had to start one — the serve daemon's hot
    #: path wants reuse ≫ starts.
    pool_starts: int = 0
    pool_reuse: int = 0
    #: Cache eviction counters (scraped from the engine's ``RunCache``).
    evictions: int = 0
    evicted_bytes: int = 0
    wall_s: float = 0.0
    #: Per-worker busy seconds, keyed by worker name ("serial" for the
    #: in-process path, "worker-{pid}" for pool workers).
    busy_s: dict[str, float] = field(default_factory=dict)

    def record_busy(self, worker: str, seconds: float) -> None:
        self.busy_s[worker] = self.busy_s.get(worker, 0.0) + seconds

    def utilization(self) -> dict[str, float]:
        """Busy fraction of the sweep wall-clock, per worker."""
        if self.wall_s <= 0.0:
            return {worker: 0.0 for worker in self.busy_s}
        return {w: busy / self.wall_s for w, busy in sorted(self.busy_s.items())}

    def to_dict(self, *, timing: bool = True) -> dict[str, Any]:
        """JSON form; ``timing=False`` drops every wall-clock field,
        leaving only digest-safe counts."""
        data: dict[str, Any] = {
            "jobs": self.jobs,
            "tasks": self.tasks,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
            "pool_starts": self.pool_starts,
            "pool_reuse": self.pool_reuse,
        }
        if timing:
            data["wall_s"] = self.wall_s
            data["busy_s"] = dict(sorted(self.busy_s.items()))
            data["utilization"] = self.utilization()
        return data

    def export_metrics(self, registry: Any, *, run: str = "") -> None:
        """Scrape into a :class:`~repro.obs.registry.MetricsRegistry`.

        Counter/gauge names follow the repo's ``subsystem.metric``
        convention.  The wall-clock gauges make the registry's digest
        machine-dependent; keep engine metrics out of sidecars whose
        digest CI pins (the experiment harnesses already do).
        """
        registry.counter("exec.tasks", run=run).inc(self.tasks)
        registry.counter("exec.cache_hits", run=run).inc(self.hits)
        registry.counter("exec.cache_misses", run=run).inc(self.misses)
        registry.counter("exec.cache_evictions", run=run).inc(self.evictions)
        registry.counter("exec.cache_evicted_bytes", run=run).inc(
            self.evicted_bytes
        )
        registry.counter("exec.pool_starts", run=run).inc(self.pool_starts)
        registry.counter("exec.pool_reuse", run=run).inc(self.pool_reuse)
        registry.gauge("exec.jobs", run=run).set(self.jobs)
        registry.gauge("exec.wall_s", run=run).set(self.wall_s)
        for worker, busy in sorted(self.busy_s.items()):
            registry.gauge("exec.worker_busy_s", run=run, worker=worker).set(busy)

    def summary(self) -> str:
        """One operator-facing line (wall-clock; not digest material)."""
        util = self.utilization()
        mean_util = sum(util.values()) / len(util) if util else 0.0
        cache = (
            f"{self.hits} hit(s) / {self.misses} miss(es)"
            if self.hits or self.misses
            else "off"
        )
        return (
            f"sweep engine: {self.tasks} task(s), jobs={self.jobs}, "
            f"cache {cache}, {self.wall_s:.1f}s wall, "
            f"{len(self.busy_s)} worker(s) at {100.0 * mean_util:.0f}% mean busy"
        )


def _invoke(item: tuple[Callable[..., Any], tuple, dict]) -> tuple[str, float, Any]:
    """Pool worker body: run one task, stamp worker identity + busy time."""
    fn, args, kwargs = item
    t0 = time.perf_counter()
    payload = normalise_payload(fn(*args, **kwargs))
    return f"worker-{os.getpid()}", time.perf_counter() - t0, payload


_METHODS = multiprocessing.get_all_start_methods()
#: The pool's ``multiprocessing`` start method: ``fork`` (instant workers
#: sharing the parent's imports) where the platform has it, else the
#: platform's first.
START_METHOD = "fork" if "fork" in _METHODS else _METHODS[0]


class SweepEngine:
    """Fans independent tasks over a process pool; merges deterministically.

    The pool is **persistent**: the first pooled :meth:`map` starts it
    and successive calls reuse it (``EngineStats.pool_reuse``), so a
    long-running daemon submitting many small sweeps does not pay pool
    setup per sweep.  :meth:`close` (or the context-manager exit) tears
    it down; :meth:`maybe_reap` implements idle teardown for a janitor
    thread; :meth:`cancel` aborts an in-flight map (terminating the
    pool, which the next map transparently restarts).

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs every task in
        process — the serial fallback path, also taken whenever fewer
        than ``min_pool_tasks`` tasks actually need computing or the
        platform cannot provide a pool.
    cache:
        Optional :class:`~repro.exec.cache.RunCache`.  Tasks with a
        ``key`` are looked up before any work is scheduled and stored
        after computing.
    min_pool_tasks:
        Smallest pending-task count routed through the pool.  The
        default (2) keeps single-task sweeps in process; the serve
        daemon passes 1 so even a one-task job runs in a worker and is
        therefore killable by the stall watchdog.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: RunCache | None = None,
        min_pool_tasks: int = 2,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if min_pool_tasks < 1:
            raise ValueError(
                f"min_pool_tasks must be >= 1, got {min_pool_tasks}"
            )
        self.jobs = jobs
        self.cache = cache
        self.min_pool_tasks = min_pool_tasks
        self.stats = EngineStats(jobs=jobs)
        self._pool: multiprocessing.pool.Pool | None = None
        #: Serialises pool create/teardown against the busy flag, so a
        #: janitor thread reaping an idle pool can never race a map()
        #: that is just acquiring it.
        self._pool_lock = threading.Lock()
        self._cancel = threading.Event()
        self._busy = False
        self.last_used = time.monotonic()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        with self._pool_lock:
            if self._pool is not None:
                self.stats.pool_reuse += 1
                return self._pool
            context = multiprocessing.get_context(START_METHOD)
            self._pool = context.Pool(processes=self.jobs)
            self.stats.pool_starts += 1
            return self._pool

    def _teardown_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def close(self) -> None:
        """Tear the persistent pool down (idempotent)."""
        self._teardown_pool()

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def cancel(self) -> None:
        """Ask the in-flight (or next) :meth:`map` to abort with
        :class:`SweepCancelled`.

        Safe to call from another thread.  The flag is **sticky**: it
        stays set until :meth:`reset_cancel`, so a cancel landing
        between two maps of a multi-sweep workload still aborts the
        workload at its next map.  Owners that recycle an engine across
        independent workloads (the serve daemon) call
        :meth:`reset_cancel` before starting the next one.
        """
        self._cancel.set()

    def reset_cancel(self) -> None:
        """Re-arm after a handled :class:`SweepCancelled`."""
        self._cancel.clear()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def maybe_reap(self, idle_s: float) -> bool:
        """Tear the pool down if it has sat idle for ``idle_s`` seconds.

        Returns whether a pool was reaped.  Never touches a pool with a
        map in flight — callers poll this from a janitor thread.
        """
        with self._pool_lock:
            if (
                self._pool is None
                or self._busy
                or time.monotonic() - self.last_used < idle_s
            ):
                return False
            pool, self._pool = self._pool, None
        pool.terminate()
        pool.join()
        return True

    # ------------------------------------------------------------------
    def map(self, tasks: Sequence[Task]) -> list[Any]:
        """Run ``tasks``; return payloads in submission order."""
        t0 = time.perf_counter()
        with self._pool_lock:
            self._busy = True
        try:
            if self._cancel.is_set():
                raise SweepCancelled("sweep cancelled before any task ran")
            results = self._map_inner(tasks)
        finally:
            with self._pool_lock:
                self._busy = False
            self.last_used = time.monotonic()
            if self.cache is not None:
                self.stats.evictions = self.cache.evictions
                self.stats.evicted_bytes = self.cache.evicted_bytes
            self.stats.wall_s += time.perf_counter() - t0
        return results

    def _map_inner(self, tasks: Sequence[Task]) -> list[Any]:
        results: list[Any] = [None] * len(tasks)
        pending: list[tuple[int, Task, str | None]] = []
        for index, task in enumerate(tasks):
            self.stats.tasks += 1
            digest: str | None = None
            if self.cache is not None and task.key is not None:
                digest = self.cache.digest_for(task.key)
                hit, payload = self.cache.get(digest)
                if hit:
                    self.stats.hits += 1
                    results[index] = payload
                    continue
                self.stats.misses += 1
            pending.append((index, task, digest))

        if pending:
            if self.jobs > 1 and len(pending) >= self.min_pool_tasks:
                computed = self._map_pool(pending)
            else:
                computed = self._map_serial(pending)
            for (index, task, digest), payload in zip(pending, computed):
                if self.cache is not None and digest is not None:
                    self.cache.put(digest, task.key, payload)
                results[index] = payload
        return results

    def export_metrics(self, registry: Any, *, run: str = "") -> None:
        self.stats.export_metrics(registry, run=run)

    # ------------------------------------------------------------------
    def _map_serial(self, pending: list[tuple[int, Task, str | None]]) -> list[Any]:
        payloads = []
        for _, task, _ in pending:
            if self._cancel.is_set():
                raise SweepCancelled(
                    f"sweep cancelled after {len(payloads)} of "
                    f"{len(pending)} pending task(s)"
                )
            t0 = time.perf_counter()
            payloads.append(
                normalise_payload(task.fn(*task.args, **dict(task.kwargs)))
            )
            self.stats.record_busy("serial", time.perf_counter() - t0)
        return payloads

    def _map_pool(self, pending: list[tuple[int, Task, str | None]]) -> list[Any]:
        items = [(task.fn, task.args, dict(task.kwargs)) for _, task, _ in pending]
        try:
            pool = self._ensure_pool()
        except (OSError, ValueError):  # pool unavailable: run in process
            return self._map_serial(pending)
        # map_async + polling get() keeps the mapping thread responsive
        # to cancel(): a plain pool.map would block unkillably, and a
        # terminated pool can leave its MapResult unfinished forever.
        async_result = pool.map_async(_invoke, items, chunksize=1)
        while True:
            try:
                stamped = async_result.get(timeout=0.05)
                break
            except multiprocessing.TimeoutError:
                if self._cancel.is_set():
                    self._teardown_pool()
                    raise SweepCancelled(
                        f"sweep cancelled with {len(items)} task(s) in "
                        f"flight; pool terminated"
                    ) from None
        payloads = []
        for worker, busy, payload in stamped:
            self.stats.record_busy(worker, busy)
            payloads.append(payload)
        return payloads


def sweep(
    engine: SweepEngine | None,
    experiment: str,
    scenario: Any,
    fn: Callable[..., Any],
    cells: Iterable[Mapping[str, Any]],
    *,
    sidecar: Any = None,
) -> list[Any]:
    """Run one experiment's grid; return its payloads in cell order.

    Each cell is the dict of one run's grid coordinates.  The run is
    ``fn(scenario, *cell.values())`` and its cache key is
    ``{"experiment", "scenario": asdict(scenario), **cell}``, so a cell
    must hold JSON values that determine the run together with the
    scenario dataclass.  ``engine=None`` is the serial, uncached
    in-process engine.

    ``sidecar`` optionally attaches a
    :class:`~repro.obs.harness.MetricsSidecar`: it is handed to ``fn``
    (as ``sidecar=``), which scrapes the live run record into it.  A
    payload cannot carry that record across a process or out of the
    cache, so an observed sweep always executes serially in process,
    bypassing pool and cache; its payloads are normalised like every
    other path's.
    """
    if sidecar is not None:
        return [
            normalise_payload(fn(scenario, *cell.values(), sidecar=sidecar))
            for cell in cells
        ]
    engine = engine if engine is not None else SweepEngine()
    scenario_key = asdict(scenario)
    return engine.map(
        [
            Task(
                fn=fn,
                args=(scenario, *cell.values()),
                key={"experiment": experiment, "scenario": scenario_key, **cell},
                label="/".join([experiment, *map(str, cell.values())]),
            )
            for cell in cells
        ]
    )
