"""Integrity experiment: silent corruption vs detection and recovery.

The resilience sweep (:mod:`repro.experiments.resilience`) injects
*visible* faults — lost messages, dead hosts — that the paper's
machinery was designed around.  This experiment injects the faults
nobody designed for: values that rot silently, in a halo message on
the wire (:class:`~repro.faults.models.PayloadCorruption`), in a live
solver block or a saved checkpoint
(:class:`~repro.faults.models.StateCorruption`).  Each corruption
schedule of :class:`~repro.workloads.scenarios.IntegrityScenario` runs
under every execution model **twice**: the ``detect`` arm with the
data-integrity layer armed (per-message checksums + RTO refetch,
checkpoint CRC verification, numerical-plausibility rollback) and the
``blind`` arm with it off, measuring what the asynchronous iteration
absorbs unaided.

Each run is reduced to an *outcome*:

* ``clean``     — no corruption was injected (the baseline row);
* ``recovered`` — corruption detected, answer correct;
* ``masked``    — corruption escaped detection, yet the answer is
  still correct (the contractive fixed-point iterated the poison
  away, or a later checkpoint overwrote it before any restore);
* ``stalled``   — the run hit its time budget without converging
  (loud degradation, not silent failure);
* ``crashed``   — blind arm only: the corrupted values violated a
  handler contract (e.g. bit-flipped migration bounds) and the run
  died with an exception.  Loud, and exactly what the detect arm's
  verify-on-receive prevents — a mismatched checksum never reaches
  the handler;
* ``WRONG``     — the run *converged* to an answer farther than
  ``error_tol`` from the sequential reference.  This is the silent
  failure the layer exists to rule out: ``repro integrity --check``
  asserts it never occurs while detection is armed
  (:meth:`IntegrityResult.gate_failures` holds the whole gate).

All quantities in the rows are virtual-time/deterministic, so the
report digest is byte-stable across runs, hosts, worker pools and
caches — the same contract as every other sweep in the repo.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.analysis.perf import stable_digest
from repro.analysis.reporting import format_table
from repro.core.records import RunResult
from repro.faults import FaultInjector
from repro.guard import InvariantMonitor
from repro.models import run_model
from repro.workloads.scenarios import IntegrityScenario

__all__ = ["IntegrityResult", "run_integrity"]

#: Injector counters copied into each row, in report order.
_STAT_COLUMNS = (
    "corruptions_injected",
    "corruptions_detected",
    "corruption_rollbacks",
    "retries",
)

#: Wire-corruption schedules the gate holds to recall 1.0.  The
#: in-memory/state schedules are not: a single poisoned block that the
#: contractive iteration absorbs before any plausibility screen fires is
#: a legitimate ``masked`` outcome, not a regression.
PAYLOAD_SCHEDULES = ("flip_lo", "flip_hi", "perturb", "truncate")


@dataclass(slots=True)
class IntegrityResult:
    """All rows of one integrity sweep."""

    scenario: IntegrityScenario
    rows: list[dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def row(self, arm: str, schedule: str, model: str) -> dict[str, Any] | None:
        for row in self.rows:
            if (
                row["arm"] == arm
                and row["schedule"] == schedule
                and row["model"] == model
            ):
                return row
        return None

    def gate_failures(self) -> list[str]:
        """The integrity gate: one line per broken clause, empty if it holds.

        No detect-arm run converges to a wrong answer.  The ``none`` rows
        are identical across the arms: with nothing scheduled, detection
        stamps no checksum and draws no RNG stream.  Every detect-arm
        payload schedule injects, and detects every injection."""
        failures, clean = [], {}
        for row in self.rows:
            cell = f"{row['arm']}/{row['schedule']}/{row['model']}"
            if row["arm"] == "detect" and row["outcome"] == "WRONG":
                failures.append(
                    f"wrong answer with detection armed: {cell} "
                    f"(max_error {row['max_error']})"
                )
            if row["schedule"] == "none":
                body = {k: v for k, v in row.items() if k != "arm"}
                if clean.setdefault(row["model"], body) != body:
                    failures.append(
                        f"clean path not inert: {row['model']} differs "
                        "between the arms"
                    )
            elif row["arm"] == "detect" and row["schedule"] in PAYLOAD_SCHEDULES:
                injected = row["corruptions_injected"]
                detected = row["corruptions_detected"]
                if injected == 0:
                    failures.append(f"payload window never fired: {cell}")
                elif detected < injected:
                    failures.append(
                        f"payload recall below 1.0: {cell} {detected}/{injected}"
                    )
        return failures

    def digest(self) -> str:
        """Reproducibility fingerprint of the sweep (virtual time only)."""
        return stable_digest({"rows": self.rows})

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": "integrity: silent corruption vs detection/recovery",
            "scenario": asdict(self.scenario),
            "rows": self.rows,
            "digest": self.digest(),
        }

    # ------------------------------------------------------------------
    def report(self) -> str:
        headers = [
            "arm", "schedule", "model", "conv", "time (s)", "max err",
            "inj", "det", "rollb", "outcome",
        ]
        table_rows = [
            (
                row["arm"],
                row["schedule"],
                row["model"],
                "yes" if row["converged"] else "NO",
                row["time"] if row["time"] is not None else "-",
                f"{row['max_error']:.2e}"
                if row["max_error"] is not None
                else "-",
                row["corruptions_injected"],
                row["corruptions_detected"],
                row["corruption_rollbacks"],
                row["outcome"],
            )
            for row in self.rows
        ]
        lines = [
            "Integrity — corruption schedules x models x detection arms",
            format_table(headers, table_rows),
            self._recall_summary(),
            f"digest: {self.digest()}",
        ]
        lines += [f"GATE VIOLATION: {line}" for line in self.gate_failures()] or [
            "gate: zero wrong answers with detection armed, inert clean "
            "path, payload recall 1.0"
        ]
        return "\n".join(lines)

    def _recall_summary(self) -> str:
        """Per (arm, schedule) aggregate: recall and outcome counts."""
        keys: list[tuple[str, str]] = []
        for row in self.rows:
            key = (row["arm"], row["schedule"])
            if row["schedule"] != "none" and key not in keys:
                keys.append(key)
        table = []
        for arm, schedule in keys:
            rows = [
                r
                for r in self.rows
                if r["arm"] == arm and r["schedule"] == schedule
            ]
            injected = sum(r["corruptions_injected"] for r in rows)
            detected = sum(r["corruptions_detected"] for r in rows)
            recall = f"{detected / injected:.2f}" if injected else "-"
            wrong = sum(r["outcome"] == "WRONG" for r in rows)
            table.append(
                (
                    arm,
                    schedule,
                    injected,
                    detected,
                    recall,
                    sum(r["outcome"] == "recovered" for r in rows),
                    sum(r["outcome"] == "masked" for r in rows),
                    sum(r["outcome"] == "stalled" for r in rows),
                    sum(r["outcome"] == "crashed" for r in rows),
                    wrong,
                )
            )
        return format_table(
            ["arm", "schedule", "inj", "det", "recall",
             "recov", "masked", "stalled", "crash", "WRONG"],
            table,
        )


def _classify(
    converged: bool, max_error: float, injected: int, detected: int,
    error_tol: float,
) -> str:
    if injected == 0:
        return "clean"
    if converged and max_error > error_tol:
        return "WRONG"
    if not converged:
        return "stalled"
    return "recovered" if detected else "masked"


def _make_row(
    arm: str,
    schedule_name: str,
    model: str,
    result: RunResult,
    reference,
    stats: dict[str, int],
    error_tol: float,
) -> dict[str, Any]:
    max_error = float(result.max_error_vs(reference))
    row: dict[str, Any] = {
        "arm": arm,
        "schedule": schedule_name,
        "model": model,
        "converged": bool(result.converged),
        "time": float(result.time),
        "iterations": int(result.total_iterations),
        # None, not inf: the report JSON stays strict-parseable (a
        # non-finite error only happens on non-converged blind runs).
        "max_error": max_error if math.isfinite(max_error) else None,
    }
    for key in _STAT_COLUMNS:
        row[key] = int(stats.get(key, 0))
    row["outcome"] = _classify(
        row["converged"],
        max_error,
        row["corruptions_injected"],
        row["corruptions_detected"],
        error_tol,
    )
    return row


def _sweep_task(
    scenario: IntegrityScenario, arm: str, schedule_name: str, model: str
) -> dict[str, Any]:
    """Engine task: one (arm, schedule, model) run reduced to its row.

    Top-level (picklable by reference) so the sweep engine's worker
    pool can run it; the sequential reference is recomputed per task —
    a deterministic function of the scenario, identical on every path.

    A blind-arm run may *crash*: unchecked corrupted values can violate
    a handler contract (bit-flipped migration bounds, for instance).
    That is a loud failure worth a row of its own — with detection
    armed the same corruption is rejected at receive time, so a
    detect-arm crash is a genuine bug and propagates.

    The invariant monitor (which hosts the plausibility guard) is
    attached to *every* run, both arms: its divergence watchdog is part
    of the baseline solver behaviour, while the plausibility screens
    engage only when the injector's detection layer is armed — so the
    arm contrast isolates exactly the integrity machinery.
    """
    from repro.des.simulator import SimulationError

    injector = FaultInjector(
        scenario.schedule(schedule_name, detect=(arm == "detect"))
    )
    try:
        result = run_model(
            model,
            scenario,
            injector=injector,
            guard=InvariantMonitor(scenario.guard_config()),
        )
    except SimulationError as exc:
        if arm != "blind":
            raise
        row: dict[str, Any] = {
            "arm": arm,
            "schedule": schedule_name,
            "model": model,
            "converged": False,
            "time": None,
            "iterations": 0,
            "max_error": None,
        }
        for key in _STAT_COLUMNS:
            row[key] = int(injector.stats.get(key, 0))
        row["outcome"] = "crashed"
        row["crash"] = type(exc.__cause__ or exc).__name__
        return row
    reference = scenario.problem().reference_solution()
    return _make_row(
        arm, schedule_name, model, result, reference, injector.stats,
        scenario.error_tol,
    )


def run_integrity(
    scenario: IntegrityScenario | None = None, *, engine=None
) -> IntegrityResult:
    """Run the integrity sweep; ``IntegrityScenario.quick()`` for CI.

    ``engine`` optionally supplies a :class:`~repro.exec.SweepEngine`:
    the (arm, schedule, model) grid fans out over its worker pool
    and/or is served from its run cache, with rows merged in grid order
    so the report and its digest are byte-identical to the serial path.
    """
    from repro.exec import sweep

    scenario = scenario if scenario is not None else IntegrityScenario()
    rows = sweep(
        engine,
        "integrity",
        scenario,
        _sweep_task,
        [
            {"arm": arm, "schedule": schedule_name, "model": model}
            for arm, schedule_name, model in scenario.grid()
        ],
    )
    return IntegrityResult(scenario=scenario, rows=rows)
