"""Unit tests for the deterministic sweep engine (repro.exec.engine)."""

import time

import pytest

from repro.exec import EngineStats, RunCache, SweepEngine, Task, normalise_payload
from repro.obs import MetricsRegistry


# ----------------------------------------------------------------------
# Task functions must be top-level (picklable by reference).
# ----------------------------------------------------------------------
def square(x):
    return {"x": x, "sq": x * x}


def slow_square(x):
    # Later-submitted tasks finish first: completion order is the
    # reverse of submission order, which the merge must undo.
    time.sleep(0.05 * (3 - x))
    return {"x": x, "sq": x * x}


def messy_payload(x):
    # Unsorted keys, tuple value: normalisation must canonicalise both.
    return {"b": (x, x + 1), "a": x}


def boom(x):
    raise RuntimeError(f"task {x} exploded")


def unpicklable_payload(x):
    return {"fn": square}


def tasks_for(fn, n=3, keyed=False):
    return [
        Task(
            fn=fn,
            args=(i,),
            key={"test": fn.__name__, "i": i} if keyed else None,
            label=f"{fn.__name__}/{i}",
        )
        for i in range(n)
    ]


# ----------------------------------------------------------------------
def test_serial_map_preserves_submission_order():
    engine = SweepEngine()
    results = engine.map(tasks_for(square))
    assert results == [{"x": i, "sq": i * i} for i in range(3)]
    assert engine.stats.tasks == 3
    assert engine.stats.hits == engine.stats.misses == 0
    assert engine.stats.wall_s > 0
    assert "serial" in engine.stats.busy_s


def test_pool_map_merges_in_submission_order():
    with SweepEngine(jobs=2) as engine:
        results = engine.map(tasks_for(slow_square))
    assert results == [{"x": i, "sq": i * i} for i in range(3)]


def test_serial_and_pool_payloads_identical():
    serial = SweepEngine().map(tasks_for(messy_payload))
    with SweepEngine(jobs=2) as engine:
        pooled = engine.map(tasks_for(messy_payload))
    assert serial == pooled
    # Canonicalised: tuples became lists on every path.
    assert serial[0] == {"a": 0, "b": [0, 1]}


def test_normalise_payload_canonicalises():
    assert normalise_payload({"b": (1, 2), "a": 0}) == {"a": 0, "b": [1, 2]}
    assert normalise_payload([1.5, "x", None]) == [1.5, "x", None]
    with pytest.raises(TypeError):
        normalise_payload({"fn": square})


def test_non_json_payload_raises_on_every_path():
    with pytest.raises(TypeError):
        SweepEngine().map(tasks_for(unpicklable_payload, n=1))


def test_task_error_propagates_serial_and_pool():
    with pytest.raises(RuntimeError, match="exploded"):
        SweepEngine().map(tasks_for(boom))
    with SweepEngine(jobs=2) as engine:
        with pytest.raises(RuntimeError, match="exploded"):
            engine.map(tasks_for(boom))


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        SweepEngine(jobs=0)


def test_single_pending_task_runs_in_process_even_with_jobs():
    engine = SweepEngine(jobs=4)
    assert engine.map(tasks_for(square, n=1)) == [{"x": 0, "sq": 0}]
    assert list(engine.stats.busy_s) == ["serial"]


def test_cache_counts_hits_and_misses(tmp_path):
    cache = RunCache(str(tmp_path / "cache"))
    cold = SweepEngine(cache=cache)
    first = cold.map(tasks_for(square, keyed=True))
    assert cold.stats.misses == 3 and cold.stats.hits == 0

    warm = SweepEngine(cache=RunCache(str(tmp_path / "cache")))
    second = warm.map(tasks_for(square, keyed=True))
    assert warm.stats.hits == 3 and warm.stats.misses == 0
    assert first == second
    # No work executed on the hit path.
    assert warm.stats.busy_s == {}


def test_unkeyed_tasks_bypass_cache(tmp_path):
    cache = RunCache(str(tmp_path / "cache"))
    engine = SweepEngine(cache=cache)
    engine.map(tasks_for(square, keyed=False))
    assert engine.stats.hits == engine.stats.misses == 0


def test_stats_to_dict_timing_flag():
    stats = EngineStats(jobs=2, tasks=4, hits=1, misses=3, wall_s=1.5)
    stats.record_busy("serial", 1.0)
    timed = stats.to_dict()
    assert timed["wall_s"] == 1.5
    assert timed["utilization"] == {"serial": 1.0 / 1.5}
    untimed = stats.to_dict(timing=False)
    assert untimed == {
        "jobs": 2,
        "tasks": 4,
        "cache_hits": 1,
        "cache_misses": 3,
        "cache_evictions": 0,
        "pool_starts": 0,
        "pool_reuse": 0,
    }


def sleepy(x):
    time.sleep(0.2)
    return {"x": x}


# ----------------------------------------------------------------------
# Persistent pool: reuse, idle reaping, cancellation
# ----------------------------------------------------------------------
def test_pool_persists_across_maps():
    with SweepEngine(jobs=2) as engine:
        engine.map(tasks_for(square))
        engine.map(tasks_for(square))
        assert engine.stats.pool_starts == 1
        assert engine.stats.pool_reuse == 1


def test_min_pool_tasks_one_routes_single_task_through_pool():
    # The serve daemon needs even one-task jobs in a worker process so
    # the stall watchdog can kill them.
    with SweepEngine(jobs=2, min_pool_tasks=1) as engine:
        engine.map(tasks_for(square, n=1))
        assert engine.stats.pool_starts == 1
        assert any(w.startswith("worker-") for w in engine.stats.busy_s)


def test_min_pool_tasks_must_be_positive():
    with pytest.raises(ValueError, match="min_pool_tasks"):
        SweepEngine(min_pool_tasks=0)


def test_close_is_idempotent():
    engine = SweepEngine(jobs=2)
    engine.map(tasks_for(square))
    engine.close()
    engine.close()
    # A closed engine transparently restarts its pool on the next map.
    assert engine.map(tasks_for(square)) == [
        {"x": i, "sq": i * i} for i in range(3)
    ]
    assert engine.stats.pool_starts == 2
    engine.close()


def test_maybe_reap_tears_down_idle_pool_only():
    with SweepEngine(jobs=2) as engine:
        engine.map(tasks_for(square))
        assert engine.maybe_reap(idle_s=3600.0) is False  # too recent
        engine.last_used -= 7200.0
        assert engine.maybe_reap(idle_s=3600.0) is True
        assert engine.maybe_reap(idle_s=3600.0) is False  # already gone


def test_cancel_is_sticky_until_reset():
    from repro.exec import SweepCancelled

    engine = SweepEngine()
    engine.cancel()
    with pytest.raises(SweepCancelled):
        engine.map(tasks_for(square))
    with pytest.raises(SweepCancelled):  # sticky across maps
        engine.map(tasks_for(square))
    engine.reset_cancel()
    assert engine.map(tasks_for(square, n=1)) == [{"x": 0, "sq": 0}]


def test_cancel_aborts_in_flight_pool_map():
    import threading

    from repro.exec import SweepCancelled

    with SweepEngine(jobs=2) as engine:
        timer = threading.Timer(0.1, engine.cancel)
        timer.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(SweepCancelled):
                engine.map(tasks_for(sleepy, n=8))
        finally:
            timer.cancel()
        # The 8 x 0.2s sweep died early instead of draining.
        assert time.perf_counter() - t0 < 1.4
        # After reset the engine is reusable (fresh pool).
        engine.reset_cancel()
        assert engine.map(tasks_for(square)) == [
            {"x": i, "sq": i * i} for i in range(3)
        ]
        assert engine.stats.pool_starts == 2


def test_stats_summary_mentions_cache_state():
    stats = EngineStats(jobs=1, tasks=2)
    assert "cache off" in stats.summary()
    stats.hits = 2
    assert "2 hit(s)" in stats.summary()


def test_export_metrics_into_registry():
    stats = EngineStats(jobs=2, tasks=4, hits=1, misses=3, wall_s=2.0)
    stats.record_busy("worker-1", 0.5)
    registry = MetricsRegistry()
    stats.export_metrics(registry, run="figure5")
    records = {
        (r["name"], r["labels"].get("worker", "")): r
        for r in registry.snapshot()
    }
    assert records[("exec.tasks", "")]["value"] == 4
    assert records[("exec.cache_hits", "")]["value"] == 1
    assert records[("exec.cache_misses", "")]["value"] == 3
    assert records[("exec.jobs", "")]["value"] == 2
    assert records[("exec.worker_busy_s", "worker-1")]["value"] == 0.5
