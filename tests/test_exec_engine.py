"""Unit tests for the deterministic sweep engine (repro.exec.engine)."""

import dataclasses
import time

import pytest

from repro.exec import (
    EngineStats,
    RunCache,
    SweepEngine,
    Task,
    normalise_payload,
    sweep,
)
from repro.obs import MetricsRegistry

from tests.conftest import SpyEngine


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


class NoPoolContext:
    """A start-method context whose pool cannot start (as on a host with
    no working semaphores or no process slots left)."""

    def Pool(self, processes):
        raise OSError("pool unavailable")


def test_an_unavailable_pool_runs_the_tasks_serially(monkeypatch):
    import repro.exec.engine as engine_module

    serial = SweepEngine().map(tasks_for(messy_payload))
    monkeypatch.setattr(
        engine_module.multiprocessing, "get_context", lambda method: NoPoolContext()
    )
    with SweepEngine(jobs=2) as engine:
        assert engine.map(tasks_for(messy_payload)) == serial
    assert engine.stats.pool_starts == 0
    assert list(engine.stats.busy_s) == ["serial"]


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


# ----------------------------------------------------------------------
# sweep(): one experiment grid -> tasks -> payloads
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class GridScenario:
    scale: int = 10
    knobs: tuple = (1, 2)


def grid_cell(scenario, row, column, sidecar=None):
    if sidecar is not None:
        sidecar.append((row, column))
    return {"value": scenario.scale * row + column, "pair": (row, column)}


GRID = [{"row": row, "column": column} for row in (2, 1) for column in (0, 5)]


def test_sweep_builds_one_keyed_task_per_cell_in_cell_order():
    engine = SpyEngine()
    payloads = sweep(engine, "grid", GridScenario(), grid_cell, GRID)
    assert [p["value"] for p in payloads] == [20, 25, 10, 15]
    assert [task.args for task in engine.seen] == [
        (GridScenario(), 2, 0),
        (GridScenario(), 2, 5),
        (GridScenario(), 1, 0),
        (GridScenario(), 1, 5),
    ]
    assert all(task.fn is grid_cell for task in engine.seen)
    assert engine.seen[1].key == {
        "experiment": "grid",
        "scenario": {"scale": 10, "knobs": (1, 2)},
        "row": 2,
        "column": 5,
    }
    assert engine.seen[1].label == "grid/2/5"


def test_sweep_takes_any_iterable_of_cells_and_a_cache(tmp_path):
    cells = ({"row": row, "column": 0} for row in range(3))
    cold = SweepEngine(cache=RunCache(str(tmp_path)))
    first = sweep(cold, "grid", GridScenario(), grid_cell, cells)
    warm = SweepEngine(cache=RunCache(str(tmp_path)))
    again = sweep(
        warm,
        "grid",
        GridScenario(),
        grid_cell,
        [{"row": row, "column": 0} for row in range(3)],
    )
    assert first == again
    assert (cold.stats.misses, warm.stats.hits, warm.stats.misses) == (3, 3, 0)
    # Another scenario value is another address.
    other = SweepEngine(cache=RunCache(str(tmp_path)))
    sweep(other, "grid", GridScenario(scale=11), grid_cell, [{"row": 0, "column": 0}])
    assert other.stats.hits == 0


def test_sweep_without_an_engine_is_serial_and_uncached(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    payloads = sweep(None, "grid", GridScenario(), grid_cell, GRID)
    # Normalised like every engine path: tuples come back as lists.
    assert payloads[0] == {"value": 20, "pair": [2, 0]}
    assert not any(tmp_path.iterdir())  # no default cache directory appeared


def test_observed_sweep_runs_in_process_and_never_touches_the_engine():
    class Untouchable(SweepEngine):
        def map(self, tasks):
            raise AssertionError("an observed sweep must bypass the engine")

    seen = []
    payloads = sweep(
        Untouchable(), "grid", GridScenario(), grid_cell, GRID, sidecar=seen
    )
    assert seen == [(2, 0), (2, 5), (1, 0), (1, 5)]
    assert payloads == sweep(None, "grid", GridScenario(), grid_cell, GRID)
