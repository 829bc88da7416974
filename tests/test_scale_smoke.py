"""Large-N smoke tests: the scale path stays deterministic and fast.

Suite-sized versions of the scale ladder's acceptance criteria: a
128-rank run must fingerprint identically whether executed serially,
over a 2-worker process pool, or replayed from the run cache; and
256-rank lockstep runs of both problems must stay on the replay, each
well inside a wall-clock budget.
"""

import time
from dataclasses import replace

import pytest

from repro.analysis.perf import run_fingerprint
from repro.exec import RunCache, SweepEngine, Task
from repro.models import run_sisc_batched
from repro.workloads import ScaleScenario

#: Where no compiled round loads, its NumPy oracle runs the replay.
pytestmark = pytest.mark.usefixtures("replay_round")

RANKS = 128
PER_RANK = 32
ROUNDS = 12
#: Wall-clock budget of one 256-rank replay run (each takes well under
#: a second on a 2-vCPU box).
BUDGET_S = 60.0
#: 256 ranks of the real PDE in small blocks.
BRUSSELATOR_256 = ScaleScenario(
    problem_kind="brusselator", n_ranks=256, components_per_rank=4
)
#: ``run_fingerprint`` of BRUSSELATOR_256's replay run capped at 40
#: rounds.  It moves only when the numerics do, which must be a
#: deliberate decision made in the commit that changes the kernels.
BRUSSELATOR_256_FINGERPRINT = (
    "68614038211008ea6f80c9754549e53870356026104a626ba337d89ee201a430"
)


def _capped_config(scenario, rounds=ROUNDS):
    return replace(scenario.solver_config(), max_iterations=rounds)


# Top-level so the process pool can pickle it by reference.
def lockstep_fingerprint(n_ranks, components_per_rank, rounds):
    scenario = ScaleScenario(
        n_ranks=n_ranks, components_per_rank=components_per_rank
    )
    result = run_sisc_batched(
        scenario.problem(), scenario.platform(), _capped_config(scenario, rounds)
    )
    assert result.meta["engine"] == "lockstep"
    return {"fingerprint": run_fingerprint(result)}


def _tasks(n=3):
    # n distinct round counts => n distinct runs, parallelisable.
    return [
        Task(
            fn=lockstep_fingerprint,
            args=(RANKS, PER_RANK, ROUNDS + i),
            key={"scale_smoke": [RANKS, PER_RANK, ROUNDS + i]},
            label=f"scale/{i}",
        )
        for i in range(n)
    ]


def test_scale_digest_serial_pool_and_cache_agree(tmp_path):
    cache_dir = str(tmp_path / "cache")
    serial = SweepEngine(jobs=1).map(_tasks())
    with SweepEngine(jobs=2) as engine:
        pooled = engine.map(_tasks())
    assert serial == pooled

    cold = SweepEngine(cache=RunCache(cache_dir))
    assert cold.map(_tasks()) == serial
    assert cold.stats.misses == len(_tasks())
    warm = SweepEngine(cache=RunCache(cache_dir))
    assert warm.map(_tasks()) == serial
    assert warm.stats.hits == len(_tasks()) and warm.stats.misses == 0


def replay_run(scenario, rounds):
    """A lockstep run capped at ``rounds``, and its wall time."""
    t0 = time.perf_counter()
    result = run_sisc_batched(
        scenario.problem(), scenario.platform(), _capped_config(scenario, rounds)
    )
    wall = time.perf_counter() - t0
    # The replay ran and did not fall back to the event-driven engine.
    assert result.meta["engine"] == "lockstep", result.meta
    return result, wall


def test_brusselator_replay_stays_pinned_at_scale():
    # The real PDE path: a 256-rank Brusselator lockstep run
    # (rank-batched Newton sweeps, adaptive skipping on),
    # fingerprint-pinned.
    result, wall = replay_run(BRUSSELATOR_256, 40)
    assert run_fingerprint(result) == BRUSSELATOR_256_FINGERPRINT
    assert wall < BUDGET_S, f"brusselator replay run took {wall:.1f}s"


def test_replay_stays_in_budget_at_scale():
    # A 256-rank, ~10⁵-component lockstep run.
    _, wall = replay_run(ScaleScenario.smoke(), 200)
    assert wall < BUDGET_S, f"256-rank replay run took {wall:.1f}s"
