"""repro.serve — persistent job-queue service over the sweep engine.

Turns the one-shot sweep CLI into a long-lived daemon (``repro
serve``): a durable job queue (append-only JSONL WAL with
crash-recovery replay), priority + fair-share scheduling across a
persistent :class:`~repro.exec.SweepEngine` worker pool, per-tenant
quotas, streaming result delivery over a unix-socket JSON-lines
protocol (``repro submit`` / ``jobs`` / ``result --follow``), and an
append-only audit log of ``config digest → result digest`` that makes
every served workload byte-replayable offline (``repro audit-replay``).
The guard layer's role here is health: admission gates, a stall
watchdog with kill + requeue-with-backoff, and a ``/healthz``-style
status verb.  See ``docs/serving.md``.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "AUDIT_SCHEMA": "audit",
        "AdmissionError": "spec",
        "AuditLog": "audit",
        "AuditReplayReport": "audit",
        "FairShareScheduler": "scheduler",
        "Job": "jobs",
        "JobTable": "jobs",
        "JobWAL": "wal",
        "KINDS": "spec",
        "PROTOCOL_SCHEMA": "protocol",
        "QuotaError": "jobs",
        "STATES": "jobs",
        "ServeClient": "protocol",
        "ServeConfig": "daemon",
        "ServeDaemon": "daemon",
        "ServeError": "protocol",
        "TERMINAL_STATES": "jobs",
        "WALError": "wal",
        "WAL_SCHEMA": "wal",
        "audit_replay": "audit",
        "config_digest": "spec",
        "execute_spec": "spec",
        "fold": "wal",
        "read_audit": "audit",
        "record_crc": "wal",
        "replay": "wal",
        "validate_spec": "spec",
    },
)
