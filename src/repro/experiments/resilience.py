"""Resilience experiment: execution models under injected faults.

The paper argues (§2, §6) that the coupling of asynchronism with
decentralized load balancing is what makes iterative algorithms viable
on an unreliable computational grid.  This experiment makes the
unreliability explicit: every named fault schedule of
:class:`~repro.workloads.scenarios.ResilienceScenario` (message loss,
duplication/reordering, a crash with restart, a network partition, a
host slowdown) is run under each execution model, and three things are
recorded per run:

* **time-to-convergence** in virtual seconds, plus its ratio to the same
  model's fault-free (``none`` schedule) time — the degradation caused
  by the faults;
* **solution correctness** — the infinity-norm error against the heat
  problem's sequential reference, so a run that "converges" to a wrong
  answer is caught;
* **fault/recovery accounting** — drops, retries, crashes/restarts,
  failed sends, migrations and re-absorbed orphan blocks.

The rows contain only virtual-time quantities, so the report's
:func:`~repro.analysis.perf.stable_digest` is identical across repeated
runs of the same scenario — the determinism guarantee CI checks by
running the tiny sweep twice.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.analysis.perf import stable_digest
from repro.analysis.reporting import format_table
from repro.faults import FaultInjector
from repro.models import run_model
from repro.workloads.scenarios import ResilienceScenario

__all__ = ["ResilienceResult", "run_resilience"]

#: Stat counters copied from the injector into each row, in report order.
_STAT_COLUMNS = (
    "messages_dropped",
    "acks_dropped",
    "duplicates_injected",
    "reorders_injected",
    "retries",
    "sends_failed",
    "crashes",
    "restarts",
)


@dataclass(slots=True)
class ResilienceResult:
    """All rows of one resilience sweep plus the headline Gantt."""

    scenario: ResilienceScenario
    rows: list[dict[str, Any]] = field(default_factory=list)
    headline_gantt: str = ""

    # ------------------------------------------------------------------
    def baseline_time(self, model: str) -> float | None:
        for row in self.rows:
            if row["schedule"] == "none" and row["model"] == model:
                return float(row["time"])
        return None

    def row(self, schedule: str, model: str) -> dict[str, Any] | None:
        for row in self.rows:
            if row["schedule"] == schedule and row["model"] == model:
                return row
        return None

    def digest(self) -> str:
        """Reproducibility fingerprint of the sweep (virtual time only)."""
        return stable_digest({"rows": self.rows})

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": "resilience: execution models under injected faults",
            "scenario": asdict(self.scenario),
            "rows": self.rows,
            "digest": self.digest(),
        }

    # ------------------------------------------------------------------
    def report(self) -> str:
        headers = [
            "schedule", "model", "conv", "time (s)", "x clean",
            "max err", "drops", "retries", "crash/rst", "migr", "reabs",
        ]
        table_rows = []
        for row in self.rows:
            base = self.baseline_time(row["model"])
            ratio = (
                f"{row['time'] / base:.2f}"
                if base and row["schedule"] != "none"
                else "-"
            )
            table_rows.append(
                (
                    row["schedule"],
                    row["model"],
                    "yes" if row["converged"] else "NO",
                    row["time"],
                    ratio,
                    f"{row['max_error']:.2e}",
                    row["messages_dropped"] + row["acks_dropped"],
                    row["retries"],
                    f"{row['crashes']}/{row['restarts']}",
                    row["n_migrations"],
                    row["reabsorbed"],
                )
            )
        lines = [
            "Resilience — fault schedules x execution models",
            format_table(headers, table_rows),
            f"digest: {self.digest()}",
        ]
        headline = self.row(self.scenario.headline, "aiac+lb")
        if headline is not None:
            status = "converged" if headline["converged"] else "DID NOT CONVERGE"
            lines.append(
                f"headline ({self.scenario.headline}, aiac+lb): {status} "
                f"at t={headline['time']:.2f}s, "
                f"max error {headline['max_error']:.2e}"
            )
        if self.headline_gantt:
            lines.append(self.headline_gantt)
        return "\n".join(lines)


def _sweep_task(
    scenario: ResilienceScenario, schedule_name: str, model: str, sidecar=None
) -> dict[str, Any]:
    """Engine task: one (schedule, model) run reduced to its report row.

    Top-level (picklable by reference) so the sweep engine's worker
    pool can run it.  The injector is built per run — injectors are
    single-use (they hold per-run RNG streams and counters) — and the
    sequential reference is recomputed per task: it is a deterministic
    function of the scenario, so every path sees the same values.
    """
    injector = FaultInjector(scenario.schedule(schedule_name))
    result = run_model(model, scenario, injector=injector)
    if sidecar is not None:
        sidecar.collect(
            result, run=f"{schedule_name}/{model}", injector=injector
        )
    reference = scenario.problem().reference_solution()
    row: dict[str, Any] = {
        "schedule": schedule_name,
        "model": model,
        "converged": bool(result.converged),
        "time": float(result.time),
        "iterations": int(result.total_iterations),
        "max_error": float(result.max_error_vs(reference)),
        "n_migrations": int(result.n_migrations),
        "reabsorbed": int(result.meta.get("reabsorbed", 0)),
        "offers_timed_out": int(result.meta.get("offers_timed_out", 0)),
    }
    for key in _STAT_COLUMNS:
        row[key] = int(injector.stats.get(key, 0))
    return row


def run_resilience(
    scenario: ResilienceScenario | None = None, *, sidecar=None, engine=None
) -> ResilienceResult:
    """Run the resilience sweep; ``ResilienceScenario.tiny()`` for CI.

    ``engine`` optionally supplies a :class:`~repro.exec.SweepEngine`:
    the (schedule, model) grid fans out over its worker pool and/or is
    served from its run cache, with rows merged in grid order so the
    report and its digest are byte-identical to the serial path.  The
    traced headline run always executes in process (it feeds the Gantt
    renderer a live tracer) and is never cached; the sweep runs stay
    untraced and lean.

    ``sidecar`` optionally attaches a
    :class:`~repro.obs.harness.MetricsSidecar`: every sweep run's
    metrics (including the injector's counters) are scraped into it
    under ``run="{schedule}/{model}"`` labels, serially in process (see
    :func:`repro.exec.sweep`).
    """
    from repro.exec import sweep

    scenario = scenario if scenario is not None else ResilienceScenario()
    rows = sweep(
        engine,
        "resilience",
        scenario,
        _sweep_task,
        [
            {"schedule": schedule_name, "model": model}
            for schedule_name in scenario.schedule_names
            for model in scenario.models
        ],
        sidecar=sidecar,
    )
    gantt = ""
    if scenario.headline in scenario.schedule_names:
        from repro.analysis.gantt import render_gantt

        traced = run_model(
            "aiac+lb",
            scenario,
            trace=True,
            injector=FaultInjector(scenario.schedule(scenario.headline)),
        )
        gantt = render_gantt(traced, width=80)
    return ResilienceResult(scenario=scenario, rows=rows, headline_gantt=gantt)
