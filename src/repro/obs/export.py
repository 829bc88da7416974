"""Streaming trace export: Tracer records -> JSONL / Chrome trace events.

Two output formats:

* **metrics JSONL** — one canonical-JSON line per metric record, with a
  header line carrying the schema version, run identity and the
  ``stable_digest`` of the records.  Line-oriented so million-metric
  sidecars stream without building one giant document.
* **Chrome trace-event JSON** — the ``traceEvents`` format consumed by
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  Ranks
  map to threads, iteration/idle spans to complete (``X``) events,
  messages to async begin/end pairs, migrations and faults to instant
  events.  Timestamps are virtual microseconds.

Both outputs contain only virtual-time quantities, so byte-identical
files across repeated runs are the expected (and CI-checked) behaviour.
"""

from __future__ import annotations

import json
from typing import IO, Any, Iterable, Iterator, Mapping

from repro.analysis.perf import canonical_json, stable_digest
from repro.runtime.tracer import Tracer

__all__ = [
    "iter_trace_events",
    "metrics_jsonl_lines",
    "write_metrics_jsonl",
    "write_chrome_trace",
]

#: Schema tag stamped on every metrics sidecar header line.
METRICS_SCHEMA = "repro-obs-metrics/1"

#: Virtual seconds -> Chrome trace microseconds.
_US = 1e6


# ----------------------------------------------------------------------
# Chrome trace events
# ----------------------------------------------------------------------
def iter_trace_events(
    tracer: Tracer, *, pid: int = 0
) -> Iterator[dict[str, Any]]:
    """Yield Chrome trace events for every record held by ``tracer``.

    Events are yielded in deterministic record order (the tracer's lists
    are append-ordered by the deterministic DES); callers that need
    global time order sort on ``ts`` afterwards —
    :func:`write_chrome_trace` does.
    """
    for span in tracer.iterations:
        yield {
            "name": f"iter {span.iteration}",
            "cat": "compute",
            "ph": "X",
            "pid": pid,
            "tid": span.rank,
            "ts": span.t0 * _US,
            "dur": (span.t1 - span.t0) * _US,
            "args": {"iteration": span.iteration, "work": span.work},
        }
    for idle in tracer.idles:
        yield {
            "name": f"idle ({idle.reason})",
            "cat": "idle",
            "ph": "X",
            "pid": pid,
            "tid": idle.rank,
            "ts": idle.t0 * _US,
            "dur": (idle.t1 - idle.t0) * _US,
            "args": {"reason": idle.reason},
        }
    for i, msg in enumerate(tracer.messages):
        base = {
            "name": msg.kind,
            "cat": "message",
            "id": i,
            "pid": pid,
            "args": {
                "src": msg.src_rank,
                "dst": msg.dst_rank,
                "bytes": msg.size_bytes,
            },
        }
        yield {**base, "ph": "b", "tid": msg.src_rank, "ts": msg.send_time * _US}
        yield {**base, "ph": "e", "tid": msg.dst_rank, "ts": msg.arrival_time * _US}
    for mig in tracer.migrations:
        yield {
            "name": f"migrate {mig.n_components}",
            "cat": "lb",
            "ph": "i",
            "s": "p",
            "pid": pid,
            "tid": mig.src_rank,
            "ts": mig.time * _US,
            "args": {
                "dst": mig.dst_rank,
                "n_components": mig.n_components,
                "src_residual": mig.src_residual,
                "dst_residual": mig.dst_residual,
            },
        }
    for fault in tracer.faults:
        tid = fault.rank if fault.rank is not None else -1
        event = {
            "name": f"fault:{fault.kind}",
            "cat": "fault",
            "pid": pid,
            "tid": tid,
            "ts": fault.time * _US,
            "args": {"detail": fault.detail},
        }
        if fault.t_end > fault.time and fault.t_end != float("inf"):
            yield {**event, "ph": "X", "dur": (fault.t_end - fault.time) * _US}
        else:
            yield {**event, "ph": "i", "s": "t"}


def write_chrome_trace(
    fh_or_path: IO[str] | str,
    tracer_or_events: Tracer | Iterable[Mapping[str, Any]],
    *,
    metadata: Mapping[str, Any] | None = None,
) -> int:
    """Write a Chrome trace JSON file; returns the number of events.

    Accepts either a :class:`~repro.runtime.tracer.Tracer` (converted
    via :func:`iter_trace_events`) or an iterable of prepared events.
    Events are sorted by ``(ts, name,
    ph)`` so the byte output is independent of record-list interleaving.
    """
    if isinstance(tracer_or_events, Tracer):
        events: Iterable[Mapping[str, Any]] = iter_trace_events(tracer_or_events)
    else:
        events = tracer_or_events
    ordered = sorted(
        events, key=lambda e: (e["ts"], e["name"], e.get("ph", ""))
    )
    doc = {
        "traceEvents": ordered,
        "displayTimeUnit": "ms",
        "metadata": dict(metadata or {}),
    }
    if isinstance(fh_or_path, str):
        with open(fh_or_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    else:
        json.dump(doc, fh_or_path, sort_keys=True, separators=(",", ":"))
        fh_or_path.write("\n")
    return len(ordered)


# ----------------------------------------------------------------------
# Metrics JSONL
# ----------------------------------------------------------------------
def metrics_jsonl_lines(
    records: list[dict[str, Any]], header: Mapping[str, Any] | None = None
) -> list[str]:
    """The lines of a metrics sidecar: header + one line per record.

    The header embeds ``stable_digest(records)`` so a consumer (or CI)
    can verify integrity / reproducibility without re-parsing the body.
    """
    head = {
        "schema": METRICS_SCHEMA,
        **dict(header or {}),
        "n_records": len(records),
        "digest": stable_digest(records),
    }
    return [canonical_json(head)] + [canonical_json(r) for r in records]


def write_metrics_jsonl(
    fh_or_path: IO[str] | str,
    records: list[dict[str, Any]],
    header: Mapping[str, Any] | None = None,
) -> str:
    """Write a metrics JSONL sidecar; returns the records' digest."""
    lines = metrics_jsonl_lines(records, header)
    text = "\n".join(lines) + "\n"
    if isinstance(fh_or_path, str):
        with open(fh_or_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        fh_or_path.write(text)
    return json.loads(lines[0])["digest"]
