"""Observability: metrics registry, trace export, simulator profiling.

The paper's headline numbers (Figures 1-4 idle structure, Figure 5's
~6.8x load-balancing ratio, Table 1's grid ratio) are *observability*
claims: they hang on accurate per-rank busy/idle/migration accounting.
This package gives that accounting a first-class home:

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms keyed by name + labels, scraped from the
  tracer, the transport layer, the network, the load balancer and the
  fault injector;
* :mod:`repro.obs.export` — streaming export of
  :class:`~repro.runtime.tracer.Tracer` records and metric snapshots to
  JSONL and Chrome trace-event JSON (viewable in Perfetto);
* :class:`~repro.obs.profile.SimProfiler` — per-event-kind dispatch
  counts and sim-time histograms for the DES kernel, attached via
  :meth:`repro.des.simulator.Simulator.attach_profiler` (zero overhead
  when not attached);
* :mod:`repro.obs.harness` — the `repro metrics` CLI verb and the
  metrics sidecars the experiment harnesses emit.

Everything exported is a pure function of virtual time and seeded
randomness, so two runs of the same scenario produce byte-identical
sidecars — CI regression-checks the ``stable_digest`` exactly like the
``BENCH_*.json`` reports.  See ``docs/observability.md``.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "MetricsRegistry": "registry",
        "Counter": "registry",
        "Gauge": "registry",
        "Histogram": "registry",
        "iter_trace_events": "export",
        "metrics_jsonl_lines": "export",
        "write_chrome_trace": "export",
        "write_metrics_jsonl": "export",
        "SimProfiler": "profile",
        "MetricsSidecar": "harness",
        "ObsRun": "harness",
        "collect_result_metrics": "harness",
        "run_observed": "harness",
    },
)
