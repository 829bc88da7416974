"""Figures 1-4: execution flows of the four execution-model variants.

The paper's figures show two processors' compute blocks and idle gaps
under SISC (Figure 1), SIAC (Figure 2), general/eager AIAC (Figure 3)
and the mutual-exclusion AIAC variant (Figure 4).  We run all four on
the same two-processor platform (one faster than the other, visible
network latency), render ASCII Gantt charts of the first seconds, and
measure the quantity the figures communicate: the **idle fraction**,
which must satisfy ``SISC >= SIAC > AIAC == 0``.  The Figure 4 variant
additionally suppresses boundary sends while one is in flight, so it
sends *fewer* halo messages than the eager Figure 3 variant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.gantt import render_gantt
from repro.analysis.metrics import idle_fraction
from repro.analysis.reporting import format_table
from repro.core.records import RunResult
from repro.core.solver import run_aiac
from repro.models.siac import run_siac
from repro.models.sisc import run_sisc
from repro.workloads.scenarios import TraceFigureScenario

__all__ = ["TraceFiguresResult", "run_trace_figures"]

_FIGURES = (
    ("figure1_sisc", "Figure 1 (SISC)"),
    ("figure2_siac", "Figure 2 (SIAC)"),
    ("figure3_aiac_eager", "Figure 3 (AIAC, eager sends)"),
    ("figure4_aiac_exclusive", "Figure 4 (AIAC, mutual exclusion)"),
)


@dataclass(slots=True)
class TraceFiguresResult:
    runs: dict[str, RunResult]

    def idle_fractions(self) -> dict[str, float]:
        return {key: idle_fraction(run) for key, run in self.runs.items()}

    def halo_messages(self) -> dict[str, int]:
        return {
            key: sum(
                1 for m in run.tracer.messages if m.kind.startswith("halo")
            )
            for key, run in self.runs.items()
        }

    def report(self, *, gantt_window: float = 5.0, width: int = 100) -> str:
        idles = self.idle_fractions()
        messages = self.halo_messages()
        parts = []
        for key, title in _FIGURES:
            run = self.runs[key]
            horizon = min(gantt_window, run.time)
            parts.append(f"{title}")
            parts.append(render_gantt(run, width=width, t_max=horizon))
            parts.append("")
        summary = format_table(
            ["figure", "idle fraction", "halo messages", "time (s)"],
            [
                (title, idles[key], messages[key], self.runs[key].time)
                for key, title in _FIGURES
            ],
        )
        parts.append(summary)
        parts.append(
            "expected ordering: idle SISC >= SIAC > AIAC == 0; "
            "Figure 4 sends fewer messages than Figure 3"
        )
        return "\n".join(parts)


def run_trace_figures(
    scenario: TraceFigureScenario | None = None,
) -> TraceFiguresResult:
    """Run all four model variants on the two-processor trace platform."""
    scenario = scenario if scenario is not None else TraceFigureScenario()
    platform = scenario.platform()
    config = scenario.solver_config()
    runs = {
        "figure1_sisc": run_sisc(scenario.problem(), platform, config),
        "figure2_siac": run_siac(scenario.problem(), platform, config),
        "figure3_aiac_eager": run_aiac(
            scenario.problem(), platform, replace(config, exclusive_sends=False)
        ),
        "figure4_aiac_exclusive": run_aiac(
            scenario.problem(), platform, replace(config, exclusive_sends=True)
        ),
    }
    for key, run in runs.items():
        if not run.converged:
            raise RuntimeError(f"trace figure run {key} did not converge")
    return TraceFiguresResult(runs=runs)
