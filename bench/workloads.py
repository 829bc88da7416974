"""The five benchmark workloads.

Each workload is one class with the same steps:

``setup()``
    build the scenario, problem, platform (and, for ``served_sweeps``,
    start the daemon) — everything ``setup_s`` covers after the imports;
``body()``
    the timed, untraced run of the **public experiment entry point**
    (``run_table1``, ``run_figure5``, ``run_sisc_batched``,
    ``run_integrity``, a ``ServeDaemon`` driven by ``ServeClient``\\ s);
``outcome(raw)``
    untimed: operations attempted/failed, the modelled time
    (``virtual_time_s``), ``lb_ratio``, a digest and the deterministic
    counts the untraced path exposes;
``traced(recorder)``
    timed like the body: the same runs expressed against the layers'
    public functions (``run_aiac``, ``run_balanced_aiac``, ``run_sisc``,
    ...) with a :class:`~proxies.TimedProblem` handed to the solver, a
    ``SimProfiler`` / ``InvariantMonitor`` attached and a span around
    each solver call.  Its result goes through ``outcome`` too and the
    digest must equal the untraced one — the proof that neither the
    re-expression nor the proxies perturb the simulation;
``layers(recorder, raw)``
    untimed: the per-layer metrics of the traced run, the checks only
    it can make (solution error against the sequential reference,
    served digests against offline execution) and this workload's
    isolated drivers.

One child process repeats ``body()`` for the whole measuring window
(``begin_rep()`` / ``end_rep()`` bracket each repeat, untimed) and
reports the median, so every full-size body is cut to 2-4 s: the same
entry points and code paths as the paper-sized experiments, at the
largest size that still gives a run five or more samples.

The simulated scenarios are frozen: ``--seed`` only orders the served
jobs and deals them to their tenants.  The paper's experiments are single fixed configurations whose
own seed is part of the experiment (another ``Table1Scenario.seed`` is
another grid: its ``lb_ratio`` ranges over 1.2-2.1 and its run time
over 2x), so letting the benchmark seed reach them would drown every
bound in input variation.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import tempfile
import threading
import warnings
from collections import defaultdict
from dataclasses import replace
from time import perf_counter
from typing import Any

from drivers import Drivers
from proxies import TimedProblem, traced_scenario
from spans import SpanRecorder

__all__ = ["OUT_DIR", "WORKLOADS", "Workload", "make_workload", "timed_call"]

#: ``bench/out``: traces and scratch state, inside the checkout, gitignored.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def timed_call(fn, *, strict_warnings: bool) -> tuple[Any, float, str | None]:
    """``(result, wall seconds, error)`` of ``fn()``.

    With ``strict_warnings`` any Python warning raised inside the call
    is an error, so it fails the workload's operations instead of
    scrolling past.
    """
    with warnings.catch_warnings():
        if strict_warnings:
            warnings.simplefilter("error")
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - a failed body is a result
            return None, perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        return result, perf_counter() - t0, None


class RunLedger:
    """Adds up the deterministic counters of a workload's solver runs."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)
        self._busy = 0.0
        self._idle = 0.0
        self._imbalances: list[float] = []

    def add(self, result: Any, events: int) -> None:
        """Account one finished run; ``events`` is its DES dispatch count."""
        c = self.counts
        meta = result.meta
        c["des.events"] += events
        # Network.arrival_time is the only thing that counts messages_sent.
        c["grid.arrival_calls"] += meta["network_messages"]
        c["runtime.messages"] += result.tracer.n_messages()
        c["runtime.bytes"] += meta["network_bytes"]
        for entry in meta["transport_per_rank"]:
            c["runtime.retries"] += entry["retries"]
            c["runtime.sends_failed"] += entry["sends_failed"]
            c["runtime.duplicates_suppressed"] += entry["duplicates_suppressed"]
        c["core.sweeps"] += result.total_iterations
        c["core.migrations"] += result.n_migrations
        c["core.components_migrated"] += result.components_migrated
        c["core.offers_sent"] += sum(
            s["offers_sent"] for s in meta.get("lb_rank_stats", ())
        )
        c["core.stale_halos_dropped"] += meta["stale_halos_dropped"]
        per_sweep = []
        for rank in range(result.n_ranks):
            busy = result.tracer.busy_time_of(rank)
            self._busy += busy
            self._idle += result.tracer.idle_time_of(rank)
            if result.iterations[rank]:
                per_sweep.append(busy / result.iterations[rank])
        if per_sweep:
            self._imbalances.append(max(per_sweep) / statistics.fmean(per_sweep))

    def metrics(self) -> dict[str, float]:
        c = self.counts
        out = dict(c)
        messages = c["runtime.messages"]
        # Wire copies that were a message's first and reached an ack,
        # over all copies put on the wire.
        out["runtime.delivery_ratio"] = (
            (messages - c["runtime.retries"] - c["runtime.sends_failed"]) / messages
            if messages
            else 0.0
        )
        out["core.offer_accept_ratio"] = (
            c["core.migrations"] / c["core.offers_sent"]
            if c["core.offers_sent"]
            else 0.0
        )
        total = self._busy + self._idle
        out["core.idle_share"] = self._idle / total if total else 0.0
        # Slowest rank's virtual seconds per sweep over the mean rank's,
        # averaged over the runs: what balancing is meant to push to 1.
        out["core.imbalance"] = (
            statistics.fmean(self._imbalances) if self._imbalances else 0.0
        )
        return out


def problem_layer(
    recorder: SpanRecorder, proxies: list[TimedProblem]
) -> dict[str, float]:
    """``problems.*`` / ``numerics.work_units`` from the proxy spans."""
    totals = recorder.totals()
    calls, iterate_s = totals.get("problems.iterate", (0, 0.0))
    sweeps, sweep_s = totals.get("problems.batched_sweep", (0, 0.0))
    return {
        "numerics.work_units": sum(p.work_units for p in proxies),
        "problems.iterate_calls": calls,
        "problems.iterate_s": iterate_s,
        "problems.iterate_us": 1e6 * iterate_s / calls if calls else 0.0,
        "problems.migrate_s": totals.get("problems.migrate", (0, 0.0))[1],
        "problems.halo_s": totals.get("problems.halo", (0, 0.0))[1],
        "problems.copy_state_s": totals.get("problems.copy_state", (0, 0.0))[1],
        "problems.batched_sweep_us": 1e6 * sweep_s / sweeps if sweeps else 0.0,
    }


def core_layer(recorder: SpanRecorder) -> dict[str, float]:
    """``core.run_s`` and its self time (run span minus problem spans)."""
    return {
        "core.run_s": recorder.total("core.run"),
        "core.self_s": recorder.self_times().get("core.run", 0.0),
    }


class Workload:
    """Base: the steps described in the module docstring."""

    name = ""
    #: Warnings raised inside the body fail its operations.
    strict_warnings = True
    #: Imported before ``setup()`` so that import cost lands in
    #: ``setup.import_s``, not in the timed body.
    modules: tuple[str, ...] = ()
    #: Whether ``--seed`` reaches this workload's inputs (see the module
    #: docstring); rows of the others record ``seed_used: null``.
    uses_seed = False

    def __init__(self, size: str, seed: int) -> None:
        if size not in ("full", "tiny"):
            raise ValueError(f"size must be 'full' or 'tiny', got {size!r}")
        self.size = size
        self.seed = seed
        # The tiny size exists to exercise the harness, not to measure.
        self.drivers = (
            Drivers() if size == "full" else Drivers(budget_s=0.002, passes=1)
        )
        #: Failures only the traced run can see, filled by ``layers()``.
        self.trace_failures: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def n_operations(self) -> int:
        """Operations the body attempts (known before it runs, so a body
        that dies still reports how many it failed)."""
        raise NotImplementedError

    def begin_rep(self) -> None:
        """Untimed, before each ``body()``: state a repeat may not share
        with the one before it."""

    def body(self) -> Any:
        raise NotImplementedError

    def end_rep(self) -> None:
        """Untimed, after each ``body()`` and its ``outcome()``."""

    def outcome(self, raw: Any) -> dict[str, Any]:
        """``attempted``, ``failures`` (one line per failed operation),
        ``virtual_time_s``, ``lb_ratio``, ``digest``, ``counts``."""
        raise NotImplementedError

    def traced(self, recorder: SpanRecorder) -> Any:
        """The traced body; returns what :meth:`outcome` accepts."""
        raise NotImplementedError

    def layers(self, recorder: SpanRecorder, raw: Any) -> dict[str, float]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


class SolverSweep(Workload):
    """Shared by the workloads whose traced body is a list of DES solver
    runs on a traced scenario: accounts each run, keeps the proxies."""

    def start_trace(self, recorder: SpanRecorder) -> Any:
        self.ledger = RunLedger()
        self.traced_scenario = traced_scenario(self.scenario, recorder)
        return self.traced_scenario

    def solve(
        self, recorder: SpanRecorder, model: str, platform: Any, **hooks: Any
    ) -> Any:
        """One solver run of ``model`` on the traced scenario, under a
        ``core.run`` span; ``hooks`` go to the solver (``host_order``,
        ``profiler``, ``injector``, ``guard``)."""
        from repro.core.lb import run_balanced_aiac
        from repro.core.solver import run_aiac
        from repro.models.siac import run_siac
        from repro.models.sisc import run_sisc

        scenario = self.traced_scenario
        args = [scenario.problem(), platform, scenario.solver_config()]
        if model == "aiac+lb":
            args.append(scenario.lb_config())
        solver = {
            "aiac": run_aiac, "aiac+lb": run_balanced_aiac,
            "siac": run_siac, "sisc": run_sisc,
        }[model]
        with recorder.span("core.run"):
            return solver(*args, **hooks)

    def solver_layers(self, recorder: SpanRecorder) -> dict[str, float]:
        return {
            **self.ledger.metrics(),
            **problem_layer(recorder, self.traced_scenario.proxies),
            **core_layer(recorder),
        }

    def des_drivers(self, n_procs: int) -> dict[str, float]:
        return {
            "des.dispatch_us": self.drivers.des_dispatch_us(n_procs),
            # Each rank keeps a resume, a halo or two and a timer queued.
            "des.queue_op_us": self.drivers.des_queue_op_us(4 * n_procs),
        }

    def grid_drivers(self) -> dict[str, float]:
        return {
            "grid.arrival_us": self.drivers.grid_arrival_us(
                self.platform, self.problem.halo_nbytes()
            ),
            "grid.duration_us": self.drivers.grid_duration_us(self.platform, 500.0),
            "runtime.send_us": self.drivers.runtime_send_us(resilient=False),
            "exec.map_overhead_us": self.drivers.exec_map_overhead_us(),
        }


# ----------------------------------------------------------------------
# table1_grid
# ----------------------------------------------------------------------
class Table1Grid(SolverSweep):
    name = "table1_grid"
    modules = ("repro.experiments", "repro.workloads", "repro.obs")

    def setup(self) -> None:
        from repro.workloads import Table1Scenario

        # 3 components per host instead of quick()'s 7: a fifth of the
        # host time, the same 15 hosts, 3 sites and load traces.
        scenario = replace(Table1Scenario.quick(), n_points=45)
        if self.size == "tiny":
            scenario = replace(scenario, n_points=45, n_steps=10, tolerance=1e-3)
        self.scenario = scenario
        # The body rebuilds these per run (as `repro table1` does); one
        # build here puts their cost, and the imports they trigger, in
        # setup_s rather than wall_s.
        self.platform = scenario.platform()
        self.problem = scenario.problem()

    def n_operations(self) -> int:
        return 2

    def body(self) -> Any:
        from repro.experiments import run_table1

        return run_table1(self.scenario)

    def outcome(self, raw: Any) -> dict[str, Any]:
        from repro.analysis.perf import stable_digest

        return {
            "attempted": 2,
            "failures": [],
            "virtual_time_s": raw.time_unbalanced + raw.time_balanced,
            "lb_ratio": raw.ratio,
            "digest": stable_digest(
                {
                    "time_unbalanced": raw.time_unbalanced,
                    "time_balanced": raw.time_balanced,
                    "migrations": raw.migrations,
                    "components_migrated": raw.components_migrated,
                    "final_sizes": list(raw.final_sizes),
                }
            ),
            "counts": {
                "core.migrations": raw.migrations,
                "core.components_migrated": raw.components_migrated,
            },
        }

    def traced(self, recorder: SpanRecorder) -> Any:
        from repro.experiments.table1 import Table1Result
        from repro.obs import SimProfiler

        scenario = self.start_trace(recorder)
        self.results = {}
        for version, model in (("unbalanced", "aiac"), ("balanced", "aiac+lb")):
            platform = scenario.platform()
            profiler = SimProfiler()
            result = self.solve(
                recorder, model, platform,
                host_order=scenario.host_order(platform), profiler=profiler,
            )
            if not result.converged:
                raise RuntimeError(f"table1 {version} run did not converge")
            self.ledger.add(result, profiler.n_dispatched)
            self.results[version] = result
        balanced = self.results["balanced"]
        return Table1Result(
            time_unbalanced=self.results["unbalanced"].time,
            time_balanced=balanced.time,
            migrations=balanced.n_migrations,
            components_migrated=balanced.components_migrated,
            final_sizes=balanced.meta["final_sizes"],
        )

    def layers(self, recorder: SpanRecorder, raw: Any) -> dict[str, float]:
        scenario, problem = self.scenario, self.problem
        n_procs = len(self.platform.hosts)
        reference = problem.reference_solution()
        error = max(r.max_error_vs(reference) for r in self.results.values())
        # The waveform relaxation stops on a residual, so the distance to
        # the fixed point is a multiple of the tolerance, not below it.
        band = 100.0 * scenario.tolerance
        if error > band:
            self.trace_failures.append(
                f"solution error {error:.3g} vs the sequential reference "
                f"exceeds {band:.3g}"
            )
        return {
            **self.solver_layers(recorder),
            "problems.max_error": error,
            **self.des_drivers(n_procs),
            **self.grid_drivers(),
            "numerics.newton_us": self.drivers.numerics_newton_us(
                max(1, scenario.n_points // n_procs), dt=problem.dt, c=problem.c
            ),
        }


# ----------------------------------------------------------------------
# figure5_cluster
# ----------------------------------------------------------------------
class Figure5Cluster(SolverSweep):
    name = "figure5_cluster"
    modules = ("repro.experiments", "repro.workloads", "repro.obs")

    def setup(self) -> None:
        from repro.workloads import Figure5Scenario

        if self.size == "tiny":
            self.scenario = Figure5Scenario.tiny()
        else:
            # quick()'s p = 4, 8, 16, stopped four decades earlier.
            self.scenario = replace(Figure5Scenario.quick(), tolerance=1e-4)
        self.platform = self.scenario.platform(self.scenario.proc_counts[-1])
        self.problem = self.scenario.problem()

    def n_operations(self) -> int:
        return 2 * len(self.scenario.proc_counts)

    def body(self) -> Any:
        from repro.experiments import run_figure5

        return run_figure5(self.scenario)

    def outcome(self, raw: Any) -> dict[str, Any]:
        return {
            "attempted": self.n_operations(),
            "failures": [],
            "virtual_time_s": sum(raw.time_unbalanced) + sum(raw.time_balanced),
            "lb_ratio": raw.mean_ratio,
            "digest": raw.digest(),
            "counts": {"core.migrations": sum(raw.migrations)},
        }

    def traced(self, recorder: SpanRecorder) -> Any:
        from repro.experiments.figure5 import Figure5Result
        from repro.obs import SimProfiler

        scenario = self.start_trace(recorder)
        raw = Figure5Result(
            proc_counts=list(scenario.proc_counts),
            time_unbalanced=[], time_balanced=[], migrations=[],
        )
        for p in scenario.proc_counts:
            for model in ("aiac", "aiac+lb"):
                profiler = SimProfiler()
                result = self.solve(
                    recorder, model, scenario.platform(p), profiler=profiler
                )
                if not result.converged:
                    raise RuntimeError(
                        f"figure5 {model} run did not converge at p={p}"
                    )
                self.ledger.add(result, profiler.n_dispatched)
                if model == "aiac+lb":
                    raw.time_balanced.append(result.time)
                    raw.migrations.append(result.n_migrations)
                else:
                    raw.time_unbalanced.append(result.time)
        return raw

    def layers(self, recorder: SpanRecorder, raw: Any) -> dict[str, float]:
        scenario = self.scenario
        os.makedirs(OUT_DIR, exist_ok=True)
        return {
            **self.solver_layers(recorder),
            **self.des_drivers(scenario.proc_counts[-1]),
            **self.grid_drivers(),
            **self.drivers.obs_overheads(scenario, scenario.proc_counts[1], OUT_DIR),
        }


# ----------------------------------------------------------------------
# lockstep_sisc
# ----------------------------------------------------------------------
class LockstepSisc(Workload):
    name = "lockstep_sisc"
    modules = ("repro.models.lockstep", "repro.workloads", "repro.analysis.perf")

    def setup(self) -> None:
        from repro.workloads.scenarios import ScaleScenario

        ranks, per_rank = (8, 4) if self.size == "tiny" else (48, 6)
        self.scenario = ScaleScenario(
            problem_kind="brusselator", n_ranks=ranks, components_per_rank=per_rank
        )
        self.problem = self.scenario.problem()
        self.platform = self.scenario.platform()
        self.config = self.scenario.solver_config()

    def n_operations(self) -> int:
        return 1

    def body(self) -> Any:
        from repro.models.lockstep import run_sisc_batched

        return run_sisc_batched(self.problem, self.platform, self.config)

    def outcome(self, raw: Any) -> dict[str, Any]:
        from repro.analysis.perf import run_fingerprint

        failures = []
        if not raw.converged:
            failures.append("lockstep run did not converge")
        if raw.meta.get("engine") != "lockstep":
            failures.append(
                f"lockstep replay fell back to engine {raw.meta.get('engine')!r}"
            )
        return {
            "attempted": 1,
            "failures": failures,
            "virtual_time_s": raw.time,
            # No balanced arm exists on this path: the ratio of the run
            # to itself, there so that every workload reports every
            # metric and a balancer on the lockstep path has a place to
            # show up.
            "lb_ratio": 1.0,
            "digest": run_fingerprint(raw),
            "counts": {
                "models.lockstep_rounds": max(raw.iterations),
                "models.lockstep_events_equiv": raw.meta.get("events_dispatched", 0),
                "core.sweeps": raw.total_iterations,
            },
        }

    def traced(self, recorder: SpanRecorder) -> Any:
        from repro.models.lockstep import run_sisc_batched

        self.proxy = TimedProblem(self.scenario.problem(), recorder)
        with recorder.span("models.lockstep_run"):
            return run_sisc_batched(self.proxy, self.platform, self.config)

    def layers(self, recorder: SpanRecorder, raw: Any) -> dict[str, float]:
        scenario, problem = self.scenario, self.problem
        ledger = RunLedger()
        ledger.add(raw, 0)  # the replay dispatches no DES event
        rounds = max(raw.iterations)
        error = raw.max_error_vs(problem.reference_solution())
        band = 1e4 * scenario.tolerance
        if error > band:
            self.trace_failures.append(
                f"solution error {error:.3g} vs the sequential reference "
                f"exceeds {band:.3g}"
            )
        return {
            **ledger.metrics(),
            **problem_layer(recorder, [self.proxy]),
            "problems.max_error": error,
            "models.lockstep_rounds": rounds,
            "models.lockstep_events_equiv": raw.meta.get("events_dispatched", 0),
            "models.lockstep_round_us": (
                1e6 * recorder.total("models.lockstep_run") / rounds
            ),
            "models.lockstep_self_s": recorder.self_times()["models.lockstep_run"],
            "models.fallbacks": 0 if raw.meta.get("engine") == "lockstep" else 1,
            "numerics.newton_us": self.drivers.numerics_newton_us(
                scenario.n_components, dt=problem.dt, c=problem.c
            ),
            "numerics.ragged_reduce_us": self.drivers.numerics_ragged_reduce_us(
                scenario.n_ranks, scenario.components_per_rank
            ),
        }


# ----------------------------------------------------------------------
# faulted_guarded
# ----------------------------------------------------------------------
#: Row fields both the experiment's rows and the traced re-expression
#: carry; ``outcome`` is left out because its classifier is private.
_ROW_FIELDS = (
    "schedule", "model", "converged", "time", "iterations", "max_error",
    "corruptions_injected", "corruptions_detected", "corruption_rollbacks",
    "retries",
)


class FaultedGuarded(SolverSweep):
    name = "faulted_guarded"
    modules = ("repro.experiments.integrity", "repro.workloads")

    def setup(self) -> None:
        from repro.workloads.scenarios import IntegrityScenario

        # quick(): clean, wire rot, live-state rot, checkpoint rot +
        # crash; for the two models lb_ratio compares.
        scenario = replace(
            IntegrityScenario.quick(), arms=("detect",), models=("aiac+lb", "aiac")
        )
        if self.size == "tiny":
            scenario = replace(IntegrityScenario.tiny(), arms=("detect",))
        self.scenario = scenario
        self.platform = scenario.platform()
        self.problem = scenario.problem()

    def n_operations(self) -> int:
        return len(self.scenario.grid())

    def body(self) -> Any:
        from repro.experiments.integrity import run_integrity

        return run_integrity(self.scenario).rows

    def is_wrong(self, row: dict[str, Any]) -> bool:
        """Converged, yet farther from the reference than ``error_tol``."""
        return row["converged"] and (
            row["max_error"] is None or row["max_error"] > self.scenario.error_tol
        )

    def outcome(self, raw: Any) -> dict[str, Any]:
        from repro.analysis.perf import stable_digest

        rows = raw
        failures = []
        for row in rows:
            label = f"{row['schedule']}/{row['model']}"
            if not row["converged"]:
                failures.append(f"{label} did not converge")
            elif row.get("outcome") == "WRONG" or self.is_wrong(row):
                failures.append(f"{label} converged to a wrong answer")

        def total(model: str) -> float:
            return sum(r["time"] for r in rows if r["model"] == model)

        return {
            "attempted": len(rows),
            "failures": failures,
            "virtual_time_s": sum(r["time"] for r in rows),
            # Time without LB / time with LB over the same corruption
            # schedules: the AIAC and AIAC+LB columns of the sweep.
            "lb_ratio": total("aiac") / total("aiac+lb"),
            "digest": stable_digest(
                [{key: row[key] for key in _ROW_FIELDS} for row in rows]
            ),
            "counts": {
                "faults.injected": sum(r["corruptions_injected"] for r in rows),
                "integrity.detected": sum(r["corruptions_detected"] for r in rows),
                "guard.rollbacks": sum(r["corruption_rollbacks"] for r in rows),
                "runtime.retries": sum(r["retries"] for r in rows),
            },
        }

    def traced(self, recorder: SpanRecorder) -> Any:
        from repro.faults import FaultInjector
        from repro.guard import InvariantMonitor

        scenario = self.start_trace(recorder)
        reference = self.problem.reference_solution()
        self.guard_counts: dict[str, float] = defaultdict(float)
        rows = []
        for arm, schedule, model in scenario.grid():
            injector = FaultInjector(
                scenario.schedule(schedule, detect=(arm == "detect"))
            )
            guard = InvariantMonitor(scenario.guard_config())
            result = self.solve(
                recorder, model, scenario.platform(), injector=injector, guard=guard
            )
            # The monitor sits in the dispatch loop's observer slot, so it
            # has seen every event: the run's DES dispatch count.
            stats = guard.stats()
            self.ledger.add(result, stats["events_seen"])
            self.guard_counts["guard.events_seen"] += stats["events_seen"]
            self.guard_counts["guard.checks_run"] += stats["checks_run"]
            error = float(result.max_error_vs(reference))
            rows.append(
                {
                    "schedule": schedule,
                    "model": model,
                    "converged": bool(result.converged),
                    "time": float(result.time),
                    "iterations": int(result.total_iterations),
                    "max_error": error if math.isfinite(error) else None,
                    **{
                        key: int(injector.stats.get(key, 0))
                        for key in _ROW_FIELDS[-4:]
                    },
                }
            )
        return rows

    def layers(self, recorder: SpanRecorder, raw: Any) -> dict[str, float]:
        from repro.faults.models import PayloadCorruption

        scenario, rows = self.scenario, raw
        on_the_wire = [
            r for r in rows
            if any(
                isinstance(fault, PayloadCorruption)
                for fault in scenario.faults_for(r["schedule"])
            )
        ]
        injected = sum(r["corruptions_injected"] for r in on_the_wire)
        detected = sum(r["corruptions_detected"] for r in on_the_wire)
        # Every payload damaged on the wire must trip a checksum.
        recall = detected / injected if injected else 1.0
        if recall != 1.0:
            self.trace_failures.append(f"payload-corruption recall {recall!r} != 1.0")
        counts = self.outcome(rows)["counts"]
        return {
            **self.solver_layers(recorder),
            **self.guard_counts,
            "guard.rollbacks": counts["guard.rollbacks"],
            "faults.injected": counts["faults.injected"],
            "integrity.detected": counts["integrity.detected"],
            "integrity.recall": recall,
            "integrity.wrong_undetected": sum(self.is_wrong(r) for r in rows),
            "problems.max_error": max(
                (r["max_error"] for r in rows if r["max_error"] is not None),
                default=0.0,
            ),
            **self.des_drivers(scenario.n_procs),
            "runtime.send_resilient_us": self.drivers.runtime_send_us(resilient=True),
            "numerics.banded_solve_us": self.drivers.numerics_banded_solve_us(
                scenario.n_points
            ),
            "integrity.checksum_us": self.drivers.integrity_checksum_us(scenario),
            "guard.overhead": self.drivers.guard_overhead(scenario),
            "integrity.overhead": self.drivers.integrity_overhead(scenario),
        }


# ----------------------------------------------------------------------
# served_sweeps
# ----------------------------------------------------------------------
def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spec_key(spec: dict[str, Any]) -> str:
    return repr(sorted(spec.items()))


class ServedSweeps(Workload):
    name = "served_sweeps"
    modules = ("repro.serve", "repro.experiments", "repro.workloads")
    # Client threads share the interpreter's warning filters with the
    # daemon's dispatcher; a process-wide "error" filter would turn a
    # warning into a failed job, which is the daemon's business to report.
    strict_warnings = False
    uses_seed = True

    N_CLIENTS = 2

    def specs(self) -> list[dict[str, Any]]:
        if self.size == "tiny":
            return [
                {"kind": "figure5", "mode": "tiny"},
                {"kind": "sleep", "seconds": 0.01, "tasks": 1},
            ]
        # One cold simulation and 23 replays of it from the run cache:
        # per job the service layers do the same work either way, and
        # here they are a sixth of the wall instead of a hundredth.
        return [{"kind": "figure5", "mode": "tiny"}]

    def setup(self) -> None:
        copies = 2 if self.size == "tiny" else 24
        rng = random.Random(self.seed)
        self.jobs = self.specs() * copies
        rng.shuffle(self.jobs)
        # The seed orders the jobs and deals them to two tenants, which
        # the daemon's fair-share scheduler keeps apart.
        self.tenants = [rng.choice(("bench-a", "bench-b")) for _ in self.jobs]
        self.offline = None
        self.start_daemon()

    def start_daemon(self) -> None:
        """A daemon on a fresh state dir: empty queue, WAL and run cache."""
        from repro.serve import ServeClient, ServeConfig, ServeDaemon

        os.makedirs(OUT_DIR, exist_ok=True)
        # Relative to the working directory: a unix socket path is capped
        # near 100 bytes, and the checkout may live under a long prefix.
        self.state_dir = os.path.relpath(
            tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
        )
        self.daemon = ServeDaemon(
            ServeConfig(state_dir=self.state_dir, workers=1, durable=True)
        )
        self.daemon.start()
        self.address = self.daemon.config.resolved_address()
        ServeClient(self.address).wait_until_up()

    def stop_daemon(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
            shutil.rmtree(self.state_dir, ignore_errors=True)

    def begin_rep(self) -> None:
        # The first repeat drains the daemon setup() started; each later
        # one gets its own, or every job would be cache-warm.
        if self.daemon is None:
            self.start_daemon()

    def end_rep(self) -> None:
        self.stop_daemon()

    def teardown(self) -> None:
        self.stop_daemon()

    def n_operations(self) -> int:
        return len(self.jobs)

    def body(self) -> Any:
        return self.drain(None)

    def traced(self, recorder: SpanRecorder) -> Any:
        with recorder.span("serve.drain"):
            return self.drain(recorder)

    def drain(self, recorder: SpanRecorder | None) -> dict[str, Any]:
        """Closed loop: each client submits its next job only after the
        previous one's result arrived."""
        from repro.serve import ServeClient

        rows: list[dict[str, Any]] = []
        errors: list[str] = []
        lock = threading.Lock()
        queue = iter(enumerate(zip(self.jobs, self.tenants)))
        parent = recorder.current() if recorder is not None else -1

        def submit_and_wait(client, index: int, job: tuple) -> None:
            spec, tenant = job
            t0 = perf_counter()
            job_id = client.submit(spec, tenant=tenant)
            ack_s = perf_counter() - t0
            job = client.result(job_id, follow=True, timeout=140.0)
            row = {
                "index": index,
                "job_id": job_id,
                "spec": spec,
                "state": job["state"],
                "result": job.get("result") or {},
                "ack_s": ack_s,
                "latency_s": perf_counter() - t0,
            }
            with lock:
                rows.append(row)

        def client_loop() -> None:
            client = ServeClient(self.address, timeout=140.0)
            while True:
                with lock:
                    item = next(queue, None)
                if item is None:
                    return
                try:
                    if recorder is None:
                        submit_and_wait(client, *item)
                    else:
                        with recorder.span("serve.job", parent=parent):
                            submit_and_wait(client, *item)
                except Exception as exc:  # noqa: BLE001 - one failed job, not a dead client
                    with lock:
                        errors.append(f"job {item[0]}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=client_loop, name=f"bench-client-{i}")
            for i in range(self.N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = self.daemon.engine.stats
        return {
            "rows": sorted(rows, key=lambda r: r["index"]),
            "errors": errors,
            "engine": {
                "exec.tasks": stats.tasks,
                "exec.cache_hits": stats.hits,
                "exec.cache_misses": stats.misses,
            },
            "busy_share": _median(list(stats.utilization().values())),
        }

    def outcome(self, raw: Any) -> dict[str, Any]:
        from repro.analysis.perf import stable_digest
        from repro.experiments import run_figure5
        from repro.workloads import Figure5Scenario

        rows = raw["rows"]
        failures = list(raw["errors"])
        by_spec: dict[str, set[str]] = defaultdict(set)
        for row in rows:
            if row["state"] != "done":
                failures.append(f"job {row['job_id']} ended {row['state']}")
            by_spec[_spec_key(row["spec"])].add(row["result"].get("digest", ""))
        for key, digests in by_spec.items():
            if len(digests) != 1:
                failures.append(f"spec {key} served {len(digests)} distinct digests")
        # The modelled time of the served figure5 job: recomputed offline
        # (the served payload carries only the ratio; once per process)
        # and tied to what the daemon served by the result digest.
        if self.offline is None:
            self.offline = run_figure5(Figure5Scenario.tiny())
        offline = self.offline
        served = [r["result"] for r in rows if r["spec"]["kind"] == "figure5"]
        if any(r.get("digest") != offline.digest() for r in served):
            failures.append("served figure5 digest differs from the offline run")
        return {
            "attempted": len(self.jobs),
            "failures": failures,
            "virtual_time_s": sum(offline.time_unbalanced) + sum(offline.time_balanced),
            "lb_ratio": served[0]["mean_ratio"] if served else offline.mean_ratio,
            "digest": stable_digest(
                sorted(
                    (_spec_key(r["spec"]), r["result"].get("digest", ""))
                    for r in rows
                )
            ),
            "counts": {"serve.jobs": len(rows), **raw["engine"]},
        }

    def layers(self, recorder: SpanRecorder, raw: Any) -> dict[str, float]:
        from repro.serve import ServeClient, ServeDaemon, audit_replay, execute_spec

        rows = raw["rows"]
        seen: set[str] = set()
        cold, warm = [], []
        for row in rows:
            key = _spec_key(row["spec"])
            (warm if key in seen else cold).append(row["latency_s"])
            seen.add(key)
        # Every job is terminal and the dispatcher idle: the table is quiet.
        jobs = list(self.daemon.table.jobs.values())
        engine = raw["engine"]
        lookups = engine["exec.cache_hits"] + engine["exec.cache_misses"]
        acks = [row["ack_s"] for row in rows]
        out = {
            **engine,
            "exec.hit_ratio": engine["exec.cache_hits"] / lookups if lookups else 0.0,
            "exec.busy_share": raw["busy_share"],
            "serve.jobs": len(rows),
            "serve.submit_ack_p50_ms": 1e3 * _median(acks),
            "serve.submit_ack_max_ms": 1e3 * max(acks, default=0.0),
            "serve.job_cold_p50_s": _median(cold),
            "serve.job_warm_p50_s": _median(warm),
            "serve.queue_wait_p50_s": _median(
                [j.started_at - j.submitted_at for j in jobs if j.started_at]
            ),
            "serve.requeues": sum(max(0, j.attempts - 1) for j in jobs),
        }
        # Each distinct spec re-executed offline must reproduce the
        # served digest, and the audit log must replay clean.
        for row in {_spec_key(r["spec"]): r for r in rows}.values():
            if execute_spec(row["spec"])["digest"] != row["result"].get("digest"):
                self.trace_failures.append(
                    f"served digest of {row['spec']} differs from offline execute_spec"
                )
        t0 = perf_counter()
        report = audit_replay(
            os.path.join(self.state_dir, "audit.jsonl"),
            sample=1 if self.size == "tiny" else 2,
            seed=self.seed,
        )
        out["serve.audit_replay_s"] = perf_counter() - t0
        if not report.ok:
            self.trace_failures.append("audit replay found a digest mismatch")
        # A second daemon over the populated state dir: WAL replay and
        # recovery, up to the first answered health check.
        self.daemon.stop()
        t0 = perf_counter()
        self.daemon = ServeDaemon(self.daemon.config)
        self.daemon.start()
        ServeClient(self.address).wait_until_up()
        out["serve.restart_s"] = perf_counter() - t0
        out.update(self.drivers.exec_costs(OUT_DIR))
        out["serve.wal_append_us"] = self.drivers.serve_wal_append_us(OUT_DIR)
        return out


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Table1Grid, Figure5Cluster, LockstepSisc, FaultedGuarded, ServedSweeps)
}


def make_workload(name: str, size: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](size, seed)
