"""Observed experiment runs: metrics sidecars and the CLI verbs' engine.

Glue between the experiment harnesses (:mod:`repro.experiments`) and the
observability primitives:

* :func:`collect_result_metrics` scrapes one finished
  :class:`~repro.core.records.RunResult` — tracer aggregates, per-rank
  transport counters, LB protocol counters, network totals, injector
  stats — into a :class:`~repro.obs.registry.MetricsRegistry`;
* :class:`MetricsSidecar` accumulates those scrapes across a whole sweep
  and writes the ``*.metrics.jsonl`` sidecar whose ``stable_digest`` CI
  regression-checks like the ``BENCH_*.json`` reports;
* :func:`run_observed` runs one named experiment (``figure5`` /
  ``table1`` / ``resilience``) with a sidecar attached plus one traced
  headline run, and returns an :class:`ObsRun` that can write the
  JSONL + Chrome-trace pair.

Everything recorded is a function of virtual time and seeded randomness:
running the same experiment twice produces byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.records import RunResult
from repro.obs.export import write_chrome_trace, write_metrics_jsonl
from repro.obs.profile import SimProfiler
from repro.obs.registry import MetricsRegistry
from repro.runtime.tracer import TRANSPORT_COUNTERS

__all__ = [
    "MetricsSidecar",
    "ObsRun",
    "collect_result_metrics",
    "run_observed",
]

#: Experiments `run_observed` knows how to drive.
EXPERIMENTS = ("figure5", "table1", "resilience")

#: Per-rank LB protocol counters copied from ``meta["lb_rank_stats"]``.
_LB_KEYS = (
    "offers_sent",
    "offers_rejected",
    "offers_timed_out",
    "migrations_out",
    "reabsorbed",
)


def collect_result_metrics(
    registry: MetricsRegistry,
    result: RunResult,
    *,
    run: str = "",
    injector: Any = None,
) -> None:
    """Scrape everything one finished run measured into ``registry``.

    ``run`` labels every metric (e.g. ``"p8/balanced"`` or
    ``"loss10/aiac"``) so a sweep's runs coexist in one registry.
    ``injector`` optionally adds the fault injector's counters.
    """
    result.tracer.export_metrics(registry, run=run)
    registry.gauge("run.time", run=run).set(result.time)
    registry.gauge("run.converged", run=run).set(1.0 if result.converged else 0.0)
    meta = result.meta
    if "network_bytes" in meta:
        registry.counter("net.bytes_sent", run=run).add(meta["network_bytes"])
        registry.counter("net.messages_sent", run=run).add(
            meta["network_messages"]
        )
    for entry in meta.get("transport_per_rank", ()):
        rank = entry["rank"]
        for key in TRANSPORT_COUNTERS:
            registry.counter(f"transport.{key}", rank=rank, run=run).add(
                entry[key]
            )
    for entry in meta.get("lb_rank_stats", ()):
        rank = entry["rank"]
        for key in _LB_KEYS:
            registry.counter(f"lb.{key}", rank=rank, run=run).add(entry[key])
        registry.gauge("lb.final_estimate", rank=rank, run=run).set(
            entry["final_estimate"]
        )
    if injector is not None:
        injector.export_metrics(registry, run=run)


class MetricsSidecar:
    """Accumulates per-run metric scrapes across one experiment sweep.

    Experiment harnesses accept an optional sidecar and call
    :meth:`collect` after each solve; :meth:`write` then emits the
    ``*.metrics.jsonl`` file with the registry's ``stable_digest`` in
    its header line.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.n_runs = 0

    def collect(
        self, result: RunResult, *, run: str = "", injector: Any = None
    ) -> None:
        collect_result_metrics(
            self.registry, result, run=run, injector=injector
        )
        self.n_runs += 1

    def digest(self) -> str:
        return self.registry.digest()

    def write(self, path: str, header: Mapping[str, Any] | None = None) -> str:
        """Write the sidecar JSONL to ``path``; returns the digest."""
        head = {"n_runs": self.n_runs, **dict(header or {})}
        return write_metrics_jsonl(path, self.registry.snapshot(), head)


@dataclass(slots=True)
class ObsRun:
    """One observed experiment: metrics sidecar + traced headline run."""

    experiment: str
    mode: str
    sidecar: MetricsSidecar
    report_text: str
    traced: RunResult | None = None
    traced_label: str = ""
    profiler: SimProfiler | None = None

    def write(self, prefix: str) -> dict[str, str]:
        """Write ``{prefix}.metrics.jsonl`` (+ ``.trace.json`` if traced).

        Returns ``{path: digest-or-event-count}`` for everything written.
        """
        written: dict[str, str] = {}
        metrics_path = f"{prefix}.metrics.jsonl"
        written[metrics_path] = self.sidecar.write(
            metrics_path,
            {
                "experiment": self.experiment,
                "mode": self.mode,
                "profiled": self.profiler is not None,
            },
        )
        if self.traced is not None:
            trace_path = f"{prefix}.trace.json"
            n_events = write_chrome_trace(
                trace_path,
                self.traced.tracer,
                metadata={
                    "experiment": self.experiment,
                    "mode": self.mode,
                    "run": self.traced_label,
                },
            )
            written[trace_path] = f"{n_events} events"
        return written

    def report(self) -> str:
        lines = [
            self.report_text,
            f"metrics: {self.sidecar.n_runs} runs, "
            f"{len(self.sidecar.registry)} series, "
            f"digest {self.sidecar.digest()}",
        ]
        if self.traced is not None:
            lines.append(f"traced headline run: {self.traced_label}")
        if self.profiler is not None:
            lines.append(self.profiler.summary())
        return "\n".join(lines)


def run_observed(
    experiment: str,
    *,
    mode: str = "quick",
    profile: bool = False,
    with_trace: bool = True,
) -> ObsRun:
    """Run one experiment with full observability attached.

    The sweep itself runs exactly as the plain harness would (obs is
    scrape-only), with every run's metrics collected into one sidecar.
    One extra *headline* run is then repeated with tracing enabled (and,
    with ``profile=True``, a :class:`SimProfiler` on the DES kernel) to
    produce the Chrome trace.
    """
    from repro.models import run_model
    from repro.sweeps import SWEEP_VERBS

    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}"
        )
    verb = SWEEP_VERBS[experiment]
    # Table 1 has no tiny variant; quick is already CI-sized.
    tiny_means_quick = mode == "tiny" and not hasattr(
        verb.scenario_class(), "tiny"
    )
    scenario = verb.preset("quick" if tiny_means_quick else mode)
    sidecar = MetricsSidecar()
    profiler = SimProfiler() if profile else None
    traced: RunResult | None = None
    traced_label = ""

    report = verb.run(scenario, sidecar=sidecar).report()
    if with_trace:
        platform = host_order = injector = None
        if experiment == "figure5":
            p = scenario.proc_counts[-1]
            platform = scenario.platform(p)
            traced_label = f"p{p}/balanced"
        elif experiment == "table1":
            platform = scenario.platform()
            host_order = scenario.host_order(platform)
            traced_label = "balanced"
        else:  # resilience
            from repro.faults import FaultInjector

            injector = FaultInjector(scenario.schedule(scenario.headline))
            traced_label = f"{scenario.headline}/aiac+lb"
        traced = run_model(
            "aiac+lb",
            scenario,
            platform=platform,
            trace=True,
            host_order=host_order,
            injector=injector,
            profiler=profiler,
        )
        if injector is not None:
            sidecar.collect(
                traced, run=f"headline/{traced_label}", injector=injector
            )

    if profiler is not None:
        profiler.export_metrics(sidecar.registry)
    return ObsRun(
        experiment=experiment,
        mode=mode,
        sidecar=sidecar,
        report_text=report,
        traced=traced,
        traced_label=traced_label,
        profiler=profiler,
    )
