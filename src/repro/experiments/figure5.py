"""Figure 5: execution time vs processors, with and without load balancing.

Paper result: on a local homogeneous cluster both versions scale very
well, with the balanced version a large constant factor below the
unbalanced one (time ratio 6.2–7.4, average 6.8).

Our reproduction: same platform regime and strong-scaling protocol on
the activity-concentration workload (see
:class:`repro.workloads.scenarios.Figure5Scenario` for why the synthetic
problem stands in for the Brusselator here).  The shape criteria checked
by the integration tests: both series decrease with p, and the balanced
series sits below the unbalanced one at every p ≥ 4 with a
substantially-greater-than-1 ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.perf import stable_digest
from repro.analysis.plots import ascii_plot
from repro.analysis.reporting import format_table
from repro.models import VERSIONS, run_model
from repro.workloads.scenarios import Figure5Scenario

__all__ = ["Figure5Result", "run_figure5"]


@dataclass(slots=True)
class Figure5Result:
    """One row per processor count: times of both versions and the ratio."""

    proc_counts: list[int]
    time_unbalanced: list[float]
    time_balanced: list[float]
    migrations: list[int] = field(default_factory=list)

    @property
    def ratios(self) -> list[float]:
        return [
            u / b for u, b in zip(self.time_unbalanced, self.time_balanced)
        ]

    @property
    def mean_ratio(self) -> float:
        ratios = self.ratios
        return sum(ratios) / len(ratios)

    def _column_lengths_ok(self) -> None:
        n = len(self.proc_counts)
        if not (len(self.time_unbalanced) == len(self.time_balanced) == n):
            raise ValueError(
                f"figure5 result columns disagree: {n} proc counts, "
                f"{len(self.time_unbalanced)} unbalanced times, "
                f"{len(self.time_balanced)} balanced times"
            )
        if self.migrations and len(self.migrations) != n:
            raise ValueError(
                f"figure5 result has {len(self.migrations)} migration "
                f"counts for {n} proc counts"
            )

    def to_dict(self) -> dict[str, Any]:
        self._column_lengths_ok()
        return {
            "title": "figure5: execution time vs processors",
            "proc_counts": list(self.proc_counts),
            "time_unbalanced": list(self.time_unbalanced),
            "time_balanced": list(self.time_balanced),
            "migrations": list(self.migrations),
            "ratios": self.ratios,
            "mean_ratio": self.mean_ratio,
            "digest": self.digest(),
        }

    def digest(self) -> str:
        """Reproducibility fingerprint (virtual-time quantities only)."""
        return stable_digest(
            {
                "proc_counts": list(self.proc_counts),
                "time_unbalanced": list(self.time_unbalanced),
                "time_balanced": list(self.time_balanced),
                "migrations": list(self.migrations),
            }
        )

    def report(self) -> str:
        # An empty migrations column (a result built before the sweep
        # recorded any) must not silently truncate the five-way zip to
        # zero rows; pad it, and reject genuinely inconsistent lengths.
        self._column_lengths_ok()
        migrations = self.migrations or [0] * len(self.proc_counts)
        rows = [
            (p, tu, tb, r, m)
            for p, tu, tb, r, m in zip(
                self.proc_counts,
                self.time_unbalanced,
                self.time_balanced,
                self.ratios,
                migrations,
            )
        ]
        table = format_table(
            ["procs", "without LB (s)", "with LB (s)", "ratio", "migrations"],
            rows,
        )
        plot = ascii_plot(
            {
                "without LB": (self.proc_counts, self.time_unbalanced),
                "with LB": (self.proc_counts, self.time_balanced),
            },
            log_x=True,
            log_y=True,
            title="execution time (s) vs processors",
            width=56,
            height=14,
        )
        return (
            "Figure 5 — homogeneous cluster, time vs processors\n"
            f"{table}\n"
            f"mean ratio: {self.mean_ratio:.2f}   "
            "(paper: 6.2-7.4, average 6.8)\n"
            f"{plot}"
        )


def _sweep_task(
    scenario: Figure5Scenario, p: int, version: str, sidecar=None
) -> dict:
    """One Figure 5 run — ``version`` in :data:`~repro.models.VERSIONS`
    at ``p`` processors — reduced to its sweep payload (top-level so the
    worker pool can pickle it by reference)."""
    result = run_model(VERSIONS[version], scenario, platform=scenario.platform(p))
    if not result.converged:
        raise RuntimeError(
            f"figure5 run did not converge at p={p} ({version})"
        )
    if sidecar is not None:
        sidecar.collect(result, run=f"p{p}/{version}")
    return {"time": result.time, "migrations": result.n_migrations}


def run_figure5(
    scenario: Figure5Scenario | None = None, *, sidecar=None, engine=None
) -> Figure5Result:
    """Run the full Figure 5 sweep; use ``Figure5Scenario.quick()`` for CI.

    ``engine`` optionally supplies a
    :class:`~repro.exec.SweepEngine` to fan the independent
    ``(p, version)`` runs over a worker pool and/or serve them from the
    run cache; the default is the serial in-process engine.  The result
    is byte-identical either way (each run owns its seeds).

    ``sidecar`` optionally attaches a
    :class:`~repro.obs.harness.MetricsSidecar`: every run's metrics are
    scraped into it under ``run="p{p}/{version}"`` labels, serially in
    process (see :func:`repro.exec.sweep`).
    """
    from repro.exec import sweep

    scenario = scenario if scenario is not None else Figure5Scenario()
    payloads = sweep(
        engine,
        "figure5",
        scenario,
        _sweep_task,
        [
            {"p": p, "version": version}
            for p in scenario.proc_counts
            for version in VERSIONS
        ],
        sidecar=sidecar,
    )
    unbalanced, balanced = payloads[0::2], payloads[1::2]
    return Figure5Result(
        proc_counts=list(scenario.proc_counts),
        time_unbalanced=[row["time"] for row in unbalanced],
        time_balanced=[row["time"] for row in balanced],
        migrations=[row["migrations"] for row in balanced],
    )
