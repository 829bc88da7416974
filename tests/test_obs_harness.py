"""Integration tests: profiler invisibility, sidecars, run_observed.

The two load-bearing guarantees:

* attaching a :class:`SimProfiler` leaves the DES event trace
  bit-identical (reuses the fingerprint harness of
  ``test_perf_kernels``);
* an observed experiment produces byte-identical sidecar files across
  repeated runs, and the files ``repro metrics figure5 --tiny --profile``
  writes are pinned byte for byte.
"""

import hashlib
import json
from pathlib import Path

from repro.obs import MetricsSidecar, SimProfiler, run_observed
from repro.obs.harness import collect_result_metrics
from repro.obs.registry import MetricsRegistry

from tests.test_perf_kernels import _aiac_fingerprint


# ----------------------------------------------------------------------
# Profiler: zero observable effect
# ----------------------------------------------------------------------
def test_profiler_is_observationally_invisible():
    profiler = SimProfiler()
    assert _aiac_fingerprint(profiler=profiler) == _aiac_fingerprint()
    assert profiler.n_dispatched > 0
    assert "Process._step" in profiler.counts


def test_profiler_export_and_summary():
    profiler = SimProfiler()
    _aiac_fingerprint(profiler=profiler)
    reg = MetricsRegistry()
    profiler.export_metrics(reg)
    records = {r["name"] for r in reg.snapshot()}
    assert "sim.dispatches" in records
    assert "sim.event_time" in records
    assert "sim.dispatches_total" in records
    total = next(
        r for r in reg.snapshot() if r["name"] == "sim.dispatches_total"
    )
    assert total["value"] == profiler.n_dispatched
    assert str(profiler.n_dispatched) in profiler.summary()


# ----------------------------------------------------------------------
# Result scraping
# ----------------------------------------------------------------------
def _small_balanced_run():
    from repro.core.lb import run_balanced_aiac
    from repro.workloads.scenarios import Figure5Scenario

    sc = Figure5Scenario.tiny()
    return run_balanced_aiac(
        sc.problem(), sc.platform(4), sc.solver_config(), sc.lb_config()
    )


def test_collect_result_metrics_scrapes_all_layers():
    result = _small_balanced_run()
    reg = MetricsRegistry()
    collect_result_metrics(reg, result, run="t")
    by_name = {}
    for rec in reg.snapshot():
        by_name.setdefault(rec["name"], []).append(rec)
    assert "trace.busy_time" in by_name
    assert "trace.migrations" in by_name
    assert "transport.retries" in by_name
    assert "lb.offers_sent" in by_name
    assert "net.bytes_sent" in by_name
    assert by_name["run.time"][0]["value"] == result.time
    # Untraced run: always-on aggregates still populate real values.
    busy = sum(r["value"] for r in by_name["trace.busy_time"])
    assert busy > 0
    # Every metric carries the run label.
    assert all(
        rec["labels"].get("run") == "t"
        for recs in by_name.values()
        for rec in recs
    )


def test_sidecar_accumulates_and_digests(tmp_path):
    result = _small_balanced_run()
    sidecar = MetricsSidecar()
    sidecar.collect(result, run="a")
    sidecar.collect(result, run="b")
    assert sidecar.n_runs == 2
    path = str(tmp_path / "m.jsonl")
    digest = sidecar.write(path, {"experiment": "test"})
    head = json.loads(Path(path).read_text().splitlines()[0])
    assert head["digest"] == digest == sidecar.digest()
    assert head["n_runs"] == 2


# ----------------------------------------------------------------------
# run_observed: determinism end to end
# ----------------------------------------------------------------------
def test_run_observed_figure5_is_reproducible(tmp_path):
    obs1 = run_observed("figure5", mode="tiny", with_trace=False)
    obs2 = run_observed("figure5", mode="tiny", with_trace=False)
    assert obs1.sidecar.digest() == obs2.sidecar.digest()
    assert obs1.sidecar.n_runs == 4  # 2 proc counts x (unbalanced, balanced)
    p1 = str(tmp_path / "a")
    p2 = str(tmp_path / "b")
    obs1.write(p1)
    obs2.write(p2)
    assert (
        Path(p1 + ".metrics.jsonl").read_text()
        == Path(p2 + ".metrics.jsonl").read_text()
    )


def test_run_observed_emits_trace_and_profile(tmp_path, observed_run):
    obs = observed_run("figure5", "tiny", profile=True)
    assert obs.traced is not None
    assert obs.traced.tracer.enabled
    assert obs.profiler is not None and obs.profiler.n_dispatched > 0
    written = obs.write(str(tmp_path / "obs"))
    trace_path = str(tmp_path / "obs.trace.json")
    assert trace_path in written
    doc = json.loads(Path(trace_path).read_text())
    assert doc["metadata"]["experiment"] == "figure5"
    assert len(doc["traceEvents"]) > 0
    # What ``repro metrics figure5 --tiny --profile --out obs`` writes.
    assert {
        Path(path).name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in written
    } == {
        "obs.metrics.jsonl": "e1b02c8375277527a4c642d327234547015cfe40a5a3c0fce9101f9f1da7070e",
        "obs.trace.json": "f6f262fd2a65e1337e3881759b75ec5f9925595b8d5f726e6e410e600764ce80",
    }
    # The profiled run contributed sim.* series to the sidecar.
    names = {r["name"] for r in obs.sidecar.registry.snapshot()}
    assert "sim.dispatches_total" in names
    assert obs.sidecar.digest() in obs.report()
    assert "sim profile" in obs.report()


def test_run_observed_rejects_unknown_inputs():
    import pytest

    with pytest.raises(ValueError, match="unknown experiment"):
        run_observed("nope")
    with pytest.raises(ValueError, match="unknown mode"):
        run_observed("figure5", mode="huge")


def test_sidecar_scale_telemetry_header(tmp_path):
    # The header stays fully deterministic: no wall-side RSS headline,
    # nothing machine-dependent, only the run count and the caller's keys.
    sidecar = MetricsSidecar()
    sidecar.registry.counter("trace.iterations", run="a").add(3)
    path = str(tmp_path / "m.metrics.jsonl")
    sidecar.write(path, {"experiment": "x"})
    header = json.loads(Path(path).read_text().splitlines()[0])
    assert set(header) == {"schema", "n_runs", "experiment", "n_records", "digest"}
    assert header["experiment"] == "x"
    assert header["digest"] == sidecar.digest()
