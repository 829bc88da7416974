"""The chaos-soak harness: seeded random fault schedules, every model.

Workflow (CLI: ``repro soak --schedules 50 --seed 0``)
------------------------------------------------------
1. For every model (SISC / SIAC / AIAC ± LB) run the **fault-free
   baseline** with the guard attached; its solution is the agreement
   reference.
2. Generate ``n_schedules`` random :class:`FaultSchedule`\\ s from the
   scenario's :class:`~repro.util.rng.RngTree` (every draw is keyed by
   the scenario seed and the schedule index — the whole soak is
   byte-reproducible).
3. Run every (schedule, model) pair with a fresh
   :class:`~repro.guard.InvariantMonitor`: the run must finish without
   invariant violations, pass the halt oracle
   (:meth:`~repro.guard.InvariantMonitor.verify_halt`), converge, match
   the sequential reference, and agree with its fault-free baseline.
4. Any failure is **shrunk**: :func:`shrink_schedule` greedily removes
   faults while the failure reproduces, yielding a minimal reproducer
   that is written to disk as JSON (original + minimized schedule +
   error) for offline replay.

Determinism contract: two invocations with the same scenario and seed
produce byte-identical reports, pooled or serial (the CI ``reproduce``
job diffs the two at 50 schedules; ``tests/test_experiment_pins.py``
pins the 2-schedule digest).
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from typing import Any, Callable

import numpy as np

from repro.analysis.perf import stable_digest
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    FaultSchedule,
    HostCrash,
    HostSlowdown,
    LinkPartition,
    MessageDuplication,
    MessageLoss,
    MessageReordering,
)
from repro.guard.invariants import GuardConfig, InvariantMonitor
from repro.util.rng import RngTree
from repro.workloads.scenarios import SoakScenario

__all__ = [
    "SoakFailure",
    "SoakResult",
    "SoakScenario",
    "random_schedule",
    "run_soak",
    "shrink_schedule",
]


class SoakFailure(AssertionError):
    """One (schedule, model) soak run violated a guard assertion."""


# ----------------------------------------------------------------------
# Random schedule generation
# ----------------------------------------------------------------------
_FAULT_MENU = ("loss", "dup", "reorder", "slowdown", "crash", "partition")


def _uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return float(lo + (hi - lo) * rng.random())


def random_schedule(
    scenario: SoakScenario, tree: RngTree, index: int
) -> FaultSchedule:
    """Draw one valid random :class:`FaultSchedule`.

    All randomness comes from the ``schedule-{index}`` child of
    ``tree``, so schedule ``i`` is independent of how many schedules
    precede it.  Construction respects the strict schedule validation
    by design: at most one crash (no overlapping crash intervals) and a
    partition window nudged past the crash window when it would isolate
    the crashed rank unobservably.
    """
    rng = tree.child(f"schedule-{index}").generator("faults")
    n_faults = 1 + int(rng.integers(scenario.max_faults))
    picks = [
        _FAULT_MENU[int(i)]
        for i in rng.choice(len(_FAULT_MENU), size=n_faults, replace=False)
    ]
    faults: list[Any] = []
    crash_window: tuple[float, float] | None = None
    crash_rank: int | None = None
    # The crash is built first (regardless of draw order) so the
    # partition can dodge its window deterministically.
    if "crash" in picks:
        crash_rank = int(rng.integers(scenario.n_procs))
        at = _uniform(rng, scenario.crash_at_range)
        lo = _uniform(rng, scenario.crash_downtime_range)
        hi = lo + _uniform(rng, (0.2, 1.0))
        faults.append(HostCrash(rank=crash_rank, at=at, downtime=(lo, hi)))
        crash_window = (at, at + hi)
    for kind in picks:
        if kind == "loss":
            faults.append(MessageLoss(_uniform(rng, scenario.loss_range)))
        elif kind == "dup":
            faults.append(
                MessageDuplication(_uniform(rng, scenario.dup_range))
            )
        elif kind == "reorder":
            faults.append(
                MessageReordering(
                    _uniform(rng, scenario.reorder_range),
                    max_extra_delay=_uniform(
                        rng, scenario.reorder_delay_range
                    ),
                )
            )
        elif kind == "slowdown":
            t0 = _uniform(rng, scenario.crash_at_range)
            faults.append(
                HostSlowdown(
                    rank=int(rng.integers(scenario.n_procs)),
                    t0=t0,
                    t1=t0 + _uniform(rng, scenario.fault_window_range),
                    factor=_uniform(rng, scenario.slowdown_factor_range),
                    ramp_steps=2,
                )
            )
        elif kind == "partition":
            split = 1 + int(rng.integers(scenario.n_procs - 1))
            t0 = _uniform(rng, scenario.crash_at_range)
            t1 = t0 + _uniform(rng, scenario.fault_window_range)
            if crash_window is not None and crash_rank is not None:
                isolated = (split == 1 and crash_rank == 0) or (
                    split == scenario.n_procs - 1
                    and crash_rank == scenario.n_procs - 1
                )
                contained = crash_window[0] <= t0 and t1 <= crash_window[1]
                if isolated and contained:
                    t1 = crash_window[1] + 0.5  # make the cut observable
            faults.append(
                LinkPartition(
                    t0=t0,
                    t1=t1,
                    ranks_a=tuple(range(split)),
                    ranks_b=tuple(range(split, scenario.n_procs)),
                )
            )
    return FaultSchedule(
        faults=tuple(faults),
        seed=int(rng.integers(2**31 - 1)),
        resilience=scenario.resilience(),
    )


# ----------------------------------------------------------------------
# One guarded run
# ----------------------------------------------------------------------
def _run_model(
    model: str,
    scenario: SoakScenario,
    schedule: FaultSchedule | None,
) -> tuple[Any, InvariantMonitor]:
    """Run ``model`` (fresh everything), guard attached; return result."""
    from repro.models import run_model

    guard = InvariantMonitor(
        GuardConfig(stall_horizon=scenario.stall_horizon)
    )
    result = run_model(
        model,
        scenario,
        injector=FaultInjector(schedule) if schedule is not None else None,
        guard=guard,
    )
    return result, guard


def _assert_run_ok(
    model: str,
    scenario: SoakScenario,
    result: Any,
    guard: InvariantMonitor,
    baseline: np.ndarray | None,
) -> dict[str, Any]:
    """Halt oracle + answer checks; returns the report row on success."""
    verdict = guard.verify_halt()
    if not result.converged:
        stalls = "\n".join(r.format() for r in guard.stall_reports)
        raise SoakFailure(
            f"{model} did not converge by max_time={scenario.max_time:g}"
            + (f"\n{stalls}" if stalls else "")
        )
    reference = scenario.problem().reference_solution()
    max_error = float(result.max_error_vs(reference))
    if not max_error <= scenario.error_tol:
        raise SoakFailure(
            f"{model} solution wrong: max error vs sequential reference "
            f"{max_error:.3e} > {scenario.error_tol:g}"
        )
    agreement = 0.0
    if baseline is not None:
        agreement = float(np.max(np.abs(result.solution() - baseline)))
        if not agreement <= scenario.agreement_tol:
            raise SoakFailure(
                f"{model} disagrees with its fault-free run by "
                f"{agreement:.3e} > {scenario.agreement_tol:g}"
            )
    return {
        "model": model,
        "converged": bool(result.converged),
        "time": float(result.time),
        "max_error": max_error,
        "agreement": agreement,
        "true_residual": float(verdict["true_residual"]),
        "checks_run": int(guard.checks_run),
        "stalls": len(guard.stall_reports),
        "rollbacks": len(guard.divergence_events),
    }


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def shrink_schedule(
    schedule: FaultSchedule,
    failing: Callable[[FaultSchedule], bool],
) -> FaultSchedule:
    """Greedily remove faults while ``failing`` keeps reproducing.

    One-minimal ddmin: repeatedly drop the first single fault whose
    removal preserves the failure, until no single removal does.  Every
    subset of a valid schedule is itself valid (the strict cross-fault
    checks only ever reject *pairs* of faults), so candidates never
    fail construction.
    """
    faults = list(schedule.faults)

    def rebuild(subset: list[Any]) -> FaultSchedule:
        return FaultSchedule(
            faults=tuple(subset),
            seed=schedule.seed,
            resilience=schedule.resilience,
        )

    changed = True
    while changed:
        changed = False
        for i in range(len(faults)):
            candidate = rebuild(faults[:i] + faults[i + 1 :])
            if failing(candidate):
                del faults[i]
                changed = True
                break
    return rebuild(faults)


# ----------------------------------------------------------------------
# The soak itself
# ----------------------------------------------------------------------
class SoakResult:
    """Rows + failures + digest of one soak invocation."""

    def __init__(
        self,
        scenario: SoakScenario,
        n_schedules: int,
        rows: list[dict[str, Any]],
        failures: list[dict[str, Any]],
    ) -> None:
        self.scenario = scenario
        self.n_schedules = n_schedules
        self.rows = rows
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def digest(self) -> str:
        return stable_digest({"rows": self.rows, "failures": self.failures})

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": asdict(self.scenario),
            "n_schedules": self.n_schedules,
            "rows": self.rows,
            "failures": self.failures,
            "digest": self.digest(),
        }

    def report(self) -> str:
        models = list(self.scenario.models)
        lines = [
            f"guard soak: {self.n_schedules} schedule(s) x "
            f"{len(models)} model(s), seed {self.scenario.seed}",
            f"  models: {', '.join(models)}",
        ]
        by_model: dict[str, int] = {m: 0 for m in models}
        for row in self.rows:
            if row.get("schedule") != "baseline":
                by_model[row["model"]] = by_model.get(row["model"], 0) + 1
        for model in models:
            lines.append(f"  {model:8s} {by_model[model]} run(s) passed")
        stalls = sum(row.get("stalls", 0) for row in self.rows)
        rollbacks = sum(row.get("rollbacks", 0) for row in self.rows)
        lines.append(f"  watchdogs: {stalls} stall(s), {rollbacks} rollback(s)")
        if self.failures:
            lines.append(f"  FAILURES: {len(self.failures)}")
            for failure in self.failures:
                lines.append(
                    f"    schedule {failure['schedule']} x "
                    f"{failure['model']}: {failure['error'].splitlines()[0]}"
                )
                if failure.get("repro_path"):
                    lines.append(
                        f"      minimal reproducer: {failure['repro_path']}"
                    )
        else:
            lines.append("  all invariants held; all answers agree")
        lines.append(f"  digest: {self.digest()}")
        return "\n".join(lines)


def _failure_text(exc: BaseException) -> str:
    """The failure signature: unwrap the DES kernel's rewrapping."""
    cause = exc.__cause__
    if cause is not None and type(exc).__name__ == "SimulationError":
        exc = cause
    return f"{type(exc).__name__}: {exc}"


def _baseline_task(scenario: SoakScenario, model: str) -> dict[str, Any]:
    """Engine task: one fault-free guarded run; row + agreement reference.

    A baseline failure raises (the soak cannot proceed without its
    agreement reference), which aborts the sweep — the legacy behavior.
    The solution ships as a nested list: float repr round-trips exactly,
    so the agreement checks downstream see bit-identical references on
    the in-process, worker-pool and cache-hit paths alike.
    """
    result, guard = _run_model(model, scenario, None)
    row = _assert_run_ok(model, scenario, result, guard, None)
    return {"row": row, "solution": result.solution().tolist()}


def _grid_task(
    scenario: SoakScenario,
    schedule: FaultSchedule,
    model: str,
    baseline: list,
) -> dict[str, Any]:
    """Engine task: one guarded (schedule, model) run.

    Failures are *encoded in the payload* rather than raised: the soak
    must keep running (and later shrink) past individual failures, and
    a payload survives the worker-pool boundary where a chained
    exception may not pickle.
    """
    try:
        result, guard = _run_model(model, scenario, schedule)
        row = _assert_run_ok(
            model, scenario, result, guard, np.asarray(baseline)
        )
    except Exception as exc:  # noqa: BLE001 - recorded + shrunk by caller
        return {"ok": False, "error": _failure_text(exc)}
    return {"ok": True, "row": row}


def run_soak(
    scenario: SoakScenario | None = None,
    *,
    n_schedules: int = 50,
    seed: int | None = None,
    models: tuple[str, ...] | None = None,
    out_dir: str = ".",
    shrink: bool = True,
    engine=None,
) -> SoakResult:
    """Run the chaos soak; see the module docstring for the workflow.

    Failures never abort the soak: each one is recorded (and shrunk to
    a minimal reproducer on disk under ``out_dir`` when ``shrink``),
    and the remaining (schedule, model) pairs still run.

    ``engine`` optionally supplies a :class:`~repro.exec.SweepEngine`:
    the baseline runs and the (schedule, model) grid fan out over its
    worker pool and/or are served from its run cache, with results
    merged in submission order so the report and digest are
    byte-identical to the serial path.  Shrinking always happens in
    process (it is an adaptive sequential search).
    """
    from repro.exec import SweepEngine, Task, sweep

    scenario = scenario if scenario is not None else SoakScenario()
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    if models is not None:
        scenario = replace(scenario, models=tuple(models))
    engine = engine if engine is not None else SweepEngine()
    scenario_key = asdict(scenario)
    tree = RngTree(scenario.seed).child("guard-soak")
    rows: list[dict[str, Any]] = []
    failures: list[dict[str, Any]] = []

    baseline_payloads = sweep(
        engine,
        "soak-baseline",
        scenario,
        _baseline_task,
        [{"model": model} for model in scenario.models],
    )
    baselines: dict[str, np.ndarray] = {}
    for model, payload in zip(scenario.models, baseline_payloads):
        row = dict(payload["row"])
        row["schedule"] = "baseline"
        rows.append(row)
        baselines[model] = np.asarray(payload["solution"])

    def failing_for(model: str) -> Callable[[FaultSchedule], bool]:
        def failing(candidate: FaultSchedule) -> bool:
            try:
                result, guard = _run_model(model, scenario, candidate)
                _assert_run_ok(
                    model, scenario, result, guard, baselines[model]
                )
            except Exception:  # noqa: BLE001 - any failure reproduces
                return True
            return False

        return failing

    grid_tasks: list[Task] = []
    grid_meta: list[tuple[int, str, list[str], FaultSchedule]] = []
    for index in range(n_schedules):
        schedule = random_schedule(scenario, tree, index)
        fault_types = [type(f).__name__ for f in schedule.faults]
        for model in scenario.models:
            grid_tasks.append(
                Task(
                    fn=_grid_task,
                    args=(scenario, schedule, model, baselines[model].tolist()),
                    key={
                        "experiment": "soak",
                        "scenario": scenario_key,
                        "model": model,
                        "schedule": schedule.to_dict(),
                    },
                    label=f"soak/s{index}/{model}",
                )
            )
            grid_meta.append((index, model, fault_types, schedule))

    for (index, model, fault_types, schedule), payload in zip(
        grid_meta, engine.map(grid_tasks)
    ):
        if not payload["ok"]:
            failure: dict[str, Any] = {
                "schedule": index,
                "model": model,
                "faults": fault_types,
                "error": payload["error"],
                "repro_path": None,
            }
            if shrink:
                minimized = shrink_schedule(schedule, failing_for(model))
                failure["minimized_faults"] = [
                    type(f).__name__ for f in minimized.faults
                ]
                path = f"{out_dir}/guard_repro_{model}_s{index}.json"
                _write_reproducer(
                    path, model, scenario, schedule, minimized,
                    failure["error"],
                )
                failure["repro_path"] = path
            failures.append(failure)
            continue
        row = dict(payload["row"])
        row["schedule"] = index
        row["faults"] = fault_types
        rows.append(row)
    return SoakResult(scenario, n_schedules, rows, failures)


def _write_reproducer(
    path: str,
    model: str,
    scenario: SoakScenario,
    schedule: FaultSchedule,
    minimized: FaultSchedule,
    error: str,
) -> None:
    """Write a minimal-reproducer JSON (schema: repro-guard-repro/1)."""
    payload = {
        "schema": "repro-guard-repro/1",
        "model": model,
        "error": error,
        "scenario": asdict(scenario),
        "schedule": schedule.to_dict(),
        "minimized": minimized.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
