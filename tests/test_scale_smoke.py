"""Large-N smoke tests: the scale path stays deterministic and guarded.

CI-sized versions of the BENCH_scale.json acceptance criteria: a
128-rank run must fingerprint identically whether executed serially,
over a 2-worker process pool, or replayed from the run cache; and the
invariant guard must stay attachable (and clean) at scale.
"""

from dataclasses import replace

from repro.analysis.perf import run_fingerprint
from repro.exec import RunCache, SweepEngine, Task
from repro.guard import GuardConfig, InvariantMonitor
from repro.models import run_sisc_batched
from repro.workloads import ScaleScenario

RANKS = 128
PER_RANK = 32
ROUNDS = 12


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


def test_brusselator_guard_stays_on_at_scale():
    # Same regression fence for the real PDE path: a guarded 256-rank
    # Brusselator lockstep run (rank-batched Newton sweeps, adaptive
    # skipping on) must not fall back, and every check must pass.
    scenario = ScaleScenario.brusselator_smoke()
    guard = InvariantMonitor(GuardConfig(check_every=64))
    result = run_sisc_batched(
        scenario.problem(),
        scenario.platform(),
        _capped_config(scenario),
        guard=guard,
    )
    assert result.meta["engine"] == "lockstep"
    assert guard.checks_run > 0
    assert guard.stats()["divergence_rollbacks"] == 0
    assert guard.verify_halt()


def test_guard_stays_on_at_scale():
    # The guard regression the benchmark is not allowed to buy speed
    # with: a guarded 128-rank lockstep run must not fall back, and
    # every invariant check must pass.
    scenario = ScaleScenario(n_ranks=RANKS, components_per_rank=PER_RANK)
    guard = InvariantMonitor(GuardConfig(check_every=64))
    result = run_sisc_batched(
        scenario.problem(),
        scenario.platform(),
        _capped_config(scenario),
        guard=guard,
    )
    assert result.meta["engine"] == "lockstep"
    assert guard.checks_run > 0  # any violation would have raised
    assert guard.stats()["divergence_rollbacks"] == 0
    assert guard.verify_halt()  # the halt oracle raises on a wrong halt
