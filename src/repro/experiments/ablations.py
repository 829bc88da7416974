"""Ablations of the design choices DESIGN.md §6 calls out.

The paper's §6 lists the conditions for effective load balancing —
frequency "neither too high nor too low", the estimator design, and the
accuracy/network-load trade-off — without quantifying them.  Each
function here sweeps one knob on a fixed scenario and returns
``(value, time, migrations)`` rows, so ``python -m repro ablations`` can
print the actual trade-off curves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Sequence

from repro.analysis.reporting import format_table
from repro.core.config import LBConfig, SolverConfig
from repro.core.lb import run_balanced_aiac
from repro.core.solver import run_aiac
from repro.workloads.scenarios import Figure5Scenario

__all__ = [
    "AblationResult",
    "sweep_lb_period",
    "sweep_threshold_ratio",
    "sweep_accuracy",
    "sweep_estimator",
    "sweep_min_components",
    "compare_adaptive_period",
    "compare_detection_protocols",
    "compare_skip_optimisation",
]


@dataclass(slots=True)
class AblationResult:
    """Rows of one ablation sweep."""

    name: str
    parameter: str
    values: list[Any]
    times: list[float]
    migrations: list[int]
    extra: dict[str, list[Any]]

    def best(self) -> Any:
        """Parameter value with the lowest time."""
        return self.values[self.times.index(min(self.times))]

    def report(self) -> str:
        headers = [self.parameter, "time (s)", "migrations"]
        columns = [self.values, self.times, self.migrations]
        for key, col in self.extra.items():
            headers.append(key)
            columns.append(col)
        rows = list(zip(*columns))
        return f"{self.name}\n" + format_table(headers, rows) + (
            f"\nbest: {self.parameter} = {self.best()}"
        )


def _fold(
    name: str,
    parameter: str,
    values: Sequence[Any],
    payloads: Sequence[dict[str, Any]],
    extra: dict[str, str] | None = None,
) -> AblationResult:
    """One result row per payload; ``extra`` maps a report column to the
    payload field it shows."""
    return AblationResult(
        name=name,
        parameter=parameter,
        values=list(values),
        times=[payload["time"] for payload in payloads],
        migrations=[payload["migrations"] for payload in payloads],
        extra={
            column: [payload[key] for payload in payloads]
            for column, key in (extra or {}).items()
        },
    )


def _balanced_run(scenario: Figure5Scenario, n_procs: int, lb: LBConfig):
    """AIAC+LB on the ablation scenario at ``n_procs`` under ``lb`` (a
    knob setting, not the scenario's own ``lb_config()``)."""
    return run_balanced_aiac(
        scenario.problem(),
        scenario.platform(n_procs),
        scenario.solver_config(),
        lb,
    )


def _sweep_task(
    scenario: Figure5Scenario,
    n_procs: int,
    parameter: str,
    value: Any,
    fixed: dict[str, Any],
) -> dict[str, Any]:
    """Engine task: one balanced run at one knob setting.

    The whole setup is rebuilt from the (deterministic, RNG-free)
    scenario inside the task, so the worker-pool path computes exactly
    what the serial loop computed.
    """
    lb = replace(scenario.lb_config(), **{parameter: value}, **fixed)
    run = _balanced_run(scenario, n_procs, lb)
    if not run.converged:
        raise RuntimeError(f"ablation run with {parameter}={value} diverged")
    return {"time": run.time, "migrations": run.n_migrations}


def _sweep(
    name: str,
    parameter: str,
    values: Sequence[Any],
    *,
    n_procs: int = 8,
    engine=None,
    **fixed,
) -> AblationResult:
    from repro.exec import sweep

    payloads = sweep(
        engine,
        "ablation-sweep",
        Figure5Scenario.quick(),
        _sweep_task,
        [
            {
                "n_procs": n_procs,
                "parameter": parameter,
                "value": value,
                "fixed": dict(fixed),
            }
            for value in values
        ],
    )
    return _fold(name, parameter, values, payloads)


def sweep_lb_period(
    values: Sequence[int] = (1, 5, 20, 80, 320),
    *,
    n_procs: int = 8,
    engine=None,
) -> AblationResult:
    """§6: frequency "neither too high ... nor too low"."""
    return _sweep(
        "LB frequency (OkToTryLB period)", "period", values,
        n_procs=n_procs, engine=engine,
    )


def sweep_threshold_ratio(
    values: Sequence[float] = (1.2, 2.0, 3.0, 8.0, 64.0),
    *,
    n_procs: int = 8,
    engine=None,
) -> AblationResult:
    """Trigger sensitivity (Algorithm 5's ThresholdRatio)."""
    return _sweep(
        "trigger threshold (ThresholdRatio)",
        "threshold_ratio",
        values,
        n_procs=n_procs,
        engine=engine,
    )


def sweep_accuracy(
    values: Sequence[float] = (0.1, 0.25, 0.5, 1.0),
    *,
    n_procs: int = 8,
    engine=None,
) -> AblationResult:
    """§6: coarse vs accurate balancing (amount of data migrated)."""
    return _sweep(
        "migration accuracy", "accuracy", values,
        n_procs=n_procs, engine=engine,
    )


def sweep_min_components(
    values: Sequence[int] = (2, 4, 8, 16), *, n_procs: int = 8, engine=None
) -> AblationResult:
    """Famine guard (Algorithm 5's ThresholdData)."""
    return _sweep(
        "famine threshold (ThresholdData)",
        "min_components",
        values,
        n_procs=n_procs,
        engine=engine,
    )


def sweep_estimator(
    values: Sequence[str] = (
        "residual",
        "residual_max",
        "iteration_time",
        "component_count",
    ),
    *,
    n_procs: int = 8,
    engine=None,
) -> AblationResult:
    """§5.2: the residual against the estimators the paper dismisses."""
    return _sweep(
        "load estimator", "estimator", values, n_procs=n_procs, engine=engine
    )


def _candidate_task(
    scenario: Figure5Scenario, n_procs: int, name: str, lb: dict[str, Any]
) -> dict[str, Any]:
    """Engine task: one named LB-config candidate run (``lb`` is the
    candidate's ``asdict``, the form its cache key carries)."""
    run = _balanced_run(scenario, n_procs, LBConfig(**lb))
    if not run.converged:
        raise RuntimeError(f"adaptive ablation: {name} diverged")
    return {
        "time": run.time,
        "migrations": run.n_migrations,
        "offers": run.meta["offers_sent"],
    }


def compare_adaptive_period(*, n_procs: int = 8, engine=None) -> AblationResult:
    """Fixed trial periods vs the adaptive controller (paper future work).

    The adaptive variant should be competitive with the best fixed
    period while sending fewer offers once the system is balanced.
    """
    from repro.exec import sweep

    scenario = Figure5Scenario.quick()
    base_lb = scenario.lb_config()
    candidates: dict[str, LBConfig] = {
        "fixed-5": replace(base_lb, period=5),
        "fixed-20": replace(base_lb, period=20),
        "fixed-80": replace(base_lb, period=80),
        # A bounded ceiling keeps the controller's worst-case
        # reaction lag at 20 sweeps; with an unbounded ceiling the
        # quiet early phase parks the period at its maximum and the
        # onset of imbalance is caught late (measured: ~35% slower).
        "adaptive": replace(
            base_lb, period=5, adaptive=True, period_min=2, period_max=20
        ),
    }
    payloads = sweep(
        engine,
        "ablation-adaptive",
        scenario,
        _candidate_task,
        [
            {"n_procs": n_procs, "candidate": name, "lb": asdict(lb)}
            for name, lb in candidates.items()
        ],
    )
    return _fold(
        "adaptive LB frequency (paper's future work)",
        "mode",
        list(candidates),
        payloads,
        {"offers": "offers"},
    )


def _skip_task(skip: bool) -> dict[str, Any]:
    """Engine task: one Brusselator run with/without the converged skip."""
    from repro.grid.host import Host
    from repro.grid.link import Link
    from repro.grid.network import Network
    from repro.grid.platform import Platform
    from repro.problems.brusselator import BrusselatorProblem

    def problem(skip_converged: bool) -> BrusselatorProblem:
        # skip_threshold sits *above* the solver tolerance (1e-7): a
        # skipped component's inputs change by < 1e-5, a staleness the
        # refresh period bounds; with the threshold below the tolerance
        # the skip could never engage before the run ends (measured).
        return BrusselatorProblem(
            48,
            t_end=4.0,
            n_steps=30,
            skip_converged=skip_converged,
            skip_threshold=1e-5,
            refresh_period=20,
        )

    network = Network(Link(latency=1e-4, bandwidth=1e8))
    platform = Platform(
        hosts=[
            Host("fast-0", 40_000.0),
            Host("fast-1", 40_000.0),
            Host("fast-2", 40_000.0),
            Host("slow", 5_000.0),
        ],
        network=network,
    )
    # The throttle keeps fully-skipped ranks from spinning thousands of
    # near-free sweeps per virtual second (see SolverConfig docs).
    config = SolverConfig(
        tolerance=1e-7,
        max_iterations=40_000,
        trace=True,
        min_sweep_duration=0.01,
    )
    run = run_aiac(problem(skip), platform, config)
    if not run.converged:
        raise RuntimeError(f"skip={skip} run diverged")
    reference = problem(False).reference_solution()
    return {
        "time": run.time,
        "migrations": run.n_migrations,
        "work": sum(span.work for span in run.tracer.iterations),
        "max_error": run.max_error_vs(reference),
    }


def compare_skip_optimisation(*, engine=None) -> AblationResult:
    """Brusselator with/without the converged-component skip.

    On a *homogeneous* platform the Brusselator's components quiesce
    together and the skip never engages (measured: identical work — the
    honest finding of EXPERIMENTS.md).  The regime where it bites is
    asynchrony-induced non-uniformity: on a two-speed platform the fast
    ranks' components sit fully converged while the slow rank grinds,
    and skipping makes those verification sweeps nearly free.  The skip
    variant must produce the same trajectories with less total numerical
    work.
    """
    from repro.exec import SweepEngine, Task

    # Not exec.sweep: the run builds its own platform and problem, so
    # there is no scenario dataclass to key it by.
    engine = engine if engine is not None else SweepEngine()
    payloads = engine.map(
        [
            Task(
                fn=_skip_task,
                args=(skip,),
                key={"experiment": "ablation-skip", "skip": skip},
                label=f"ablation-skip/{skip}",
            )
            for skip in (False, True)
        ]
    )
    return _fold(
        "Brusselator converged-component skip",
        "skip_converged",
        (False, True),
        payloads,
        {"total work": "work", "max error": "max_error"},
    )


def _detection_task(
    scenario: Figure5Scenario, n_procs: int, detection: str
) -> dict[str, Any]:
    """Engine task: one run under one convergence-detection protocol."""
    run = run_aiac(
        scenario.problem(),
        scenario.platform(n_procs),
        replace(scenario.solver_config(), detection=detection),
    )
    if not run.converged:
        raise RuntimeError(f"detection={detection} run diverged")
    oracle_time = run.meta["oracle_detection_time"]
    overhead = (
        run.time - oracle_time if oracle_time is not None else float("nan")
    )
    return {
        "time": run.time,
        "migrations": run.n_migrations,
        "messages": run.meta["detection_messages"],
        "overhead": overhead,
    }


def compare_detection_protocols(
    *, n_procs: int = 8, engine=None
) -> AblationResult:
    """Oracle vs decentralized token-ring convergence detection."""
    from repro.exec import sweep

    protocols = ("oracle", "token_ring")
    payloads = sweep(
        engine,
        "ablation-detection",
        Figure5Scenario.quick(),
        _detection_task,
        [{"n_procs": n_procs, "detection": detection} for detection in protocols],
    )
    return _fold(
        "convergence detection protocol",
        "detection",
        protocols,
        payloads,
        {"detection messages": "messages", "overhead (s)": "overhead"},
    )
