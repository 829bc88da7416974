"""Append-only audit log + the ``repro audit-replay`` verifier.

Every job the daemon finishes — done, failed or killed — appends one
record to ``audit.jsonl``::

    {"crc": 812530941, "schema": "repro-serve-audit/2", "seq": 9,
     "job_id": "j000009", "tenant": "alice", "spec": {...},
     "config_digest": "...", "result_digest": "..." | null,
     "state": "done"}

``crc`` and ``seq`` are the WAL's: the audit log is a second
:class:`~repro.serve.wal.Journal`, so an audit line whose bytes rotted
is quarantined on read (skipped and reported, never silently accepted,
counted by the daemon as ``serve.audit_quarantined``) while an intact
record of a different audit schema version raises
:class:`~repro.serve.wal.WALError` (an operator error, not corruption).

``config_digest`` is the :func:`~repro.serve.spec.config_digest` of the
validated spec; ``result_digest`` the served payload's ``digest``.
Because every workload is a pure function of its spec
(:func:`~repro.serve.spec.execute_spec`), the pair is a *replayable
claim*: anyone holding the audit log can re-run the spec offline and
byte-verify that the daemon served the deterministic answer — across
crashes, restarts, cache hits, pool sizes and machines.

:func:`audit_replay` does exactly that over a seeded random sample of
the log's ``done`` records (replaying a full production log would cost
as much as serving it did).  It is pure offline code: no daemon, no
socket — just the log file and the simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.serve.spec import execute_spec
from repro.serve.wal import Journal

__all__ = ["AUDIT_SCHEMA", "AuditLog", "AuditReplayReport", "audit_replay", "read_audit"]

AUDIT_SCHEMA = "repro-serve-audit/2"


class AuditLog(Journal):
    """The audit journal: one record per finished job."""

    SCHEMA = AUDIT_SCHEMA
    LEGACY = frozenset({"repro-serve-audit/1"})

    def append(
        self,
        *,
        job_id: str,
        tenant: str,
        spec: dict[str, Any],
        config_digest: str,
        result_digest: str | None,
        state: str,
    ) -> int:
        return self._append(
            {
                "job_id": job_id,
                "tenant": tenant,
                "spec": spec,
                "config_digest": config_digest,
                "result_digest": result_digest,
                "state": state,
            }
        )


def read_audit(
    path: str, *, quarantine: list[dict[str, Any]] | None = None
) -> list[dict[str, Any]]:
    """All verified audit records at ``path`` (see :meth:`Journal.read`)."""
    return AuditLog.read(path, quarantine=quarantine)


@dataclass
class AuditReplayReport:
    """Outcome of re-running a sampled audit window offline."""

    path: str
    n_records: int
    n_done: int
    sample: int
    seed: int
    n_quarantined: int = 0
    rows: list[dict[str, Any]] = field(default_factory=list)

    @property
    def mismatches(self) -> list[dict[str, Any]]:
        return [row for row in self.rows if not row["ok"]]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def report(self) -> str:
        lines = [
            f"audit-replay: {self.path}",
            f"  {self.n_records} record(s), {self.n_done} done; replayed "
            f"{len(self.rows)} sampled (seed {self.seed})",
        ]
        if self.n_quarantined:
            lines.append(
                f"  {self.n_quarantined} corrupted line(s) quarantined"
            )
        for row in self.rows:
            status = "ok" if row["ok"] else "MISMATCH"
            lines.append(
                f"  {row['job_id']}  {row['spec']['kind']:<10} "
                f"{row['config_digest'][:12]} -> "
                f"{(row['replayed_digest'] or '?')[:12]}  {status}"
            )
        lines.append(
            f"  {len(self.mismatches)} mismatch(es) in {len(self.rows)} "
            f"replayed record(s)"
        )
        return "\n".join(lines)


def audit_replay(
    path: str, *, sample: int = 5, seed: int = 0
) -> AuditReplayReport:
    """Replay a seeded sample of the audit log's ``done`` records.

    Each sampled record's spec is re-executed offline (serial engine,
    no cache — the replay must not be able to hit the very cache that
    produced the audited run) and its fresh result digest compared to
    the recorded one.
    """
    quarantine: list[dict[str, Any]] = []
    records = read_audit(path, quarantine=quarantine)
    done = [r for r in records if r["state"] == "done" and r["result_digest"]]
    picked = done
    if sample < len(done):
        rng = random.Random(seed)
        picked = [done[i] for i in sorted(rng.sample(range(len(done)), sample))]
    out = AuditReplayReport(
        path=path,
        n_records=len(records),
        n_done=len(done),
        sample=sample,
        seed=seed,
        n_quarantined=len(quarantine),
    )
    for record in picked:
        payload = execute_spec(record["spec"])
        out.rows.append(
            {
                "job_id": record["job_id"],
                "spec": record["spec"],
                "config_digest": record["config_digest"],
                "recorded_digest": record["result_digest"],
                "replayed_digest": payload["digest"],
                "ok": payload["digest"] == record["result_digest"]
                and payload["config_digest"] == record["config_digest"],
            }
        )
    return out
