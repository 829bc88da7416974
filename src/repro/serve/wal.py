"""Durable journals: the job queue's write-ahead log and its mechanics.

Every externally visible job transition the daemon makes — submission,
state changes, results — is appended to ``wal.jsonl`` *before* it is
acknowledged to any client, so the queue survives ``kill -9``: on
startup :func:`replay` folds the log back into the job table and any
job that was ``queued`` or ``running`` at the crash is requeued exactly
once (attempt counts preserved), while terminal jobs keep serving their
recorded results.  The audit log (:mod:`repro.serve.audit`) is a second
:class:`Journal` with its own schema and record shape.

Record format (one canonical-JSON object per line)::

    {"crc": 3094873502, "schema": "repro-serve-wal/2", "seq": 17,
     "type": "submit", "job": {...}}
    {"crc": 193475381, "schema": "repro-serve-wal/2", "seq": 18,
     "type": "state", "job_id": "j000004", "state": "running", ...}

``seq`` is strictly increasing across the whole file; ``submit``
carries the full job record, ``state`` a delta (new state plus any of
:data:`STATE_FIELDS`).  ``crc`` is :func:`record_crc` over the record
*without* its crc field — the at-rest integrity stamp of schema v2.

Crash consistency and corruption
--------------------------------
Appends are a single ``write`` of one line followed by ``flush`` +
``fsync`` (fsync elidable via ``durable=False`` for benchmarks).  A
crash can therefore only tear the *final* line; a :class:`Journal`
truncates such a torn tail when it reopens the file (the record was
never acknowledged, so dropping it is the safe direction) and reads
tolerate one if they see it first.

Anything else that fails to verify — unparsable JSON, a record whose
CRC does not match its bytes, a record without a CRC — is *silent
corruption* (bit rot, a stray writer, disk damage) and is
**quarantined**: skipped, reported through the reader's ``quarantine``
parameter, and counted by the daemon (``serve.wal_quarantined``,
``serve.audit_quarantined``), so one rotten record neither takes the
whole queue down nor is ever silently accepted.  :class:`WALError` is
the loud failure for problems quarantine must not paper over: a record
of a *different schema version* that is provably intact (its CRC
verifies, or its schema is a known legacy one — v1 never carried
CRCs), and ``seq`` regressions among verified records.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, ClassVar, Iterable

from repro.analysis.perf import canonical_json

__all__ = [
    "WAL_SCHEMA",
    "JobWAL",
    "Journal",
    "STATE_FIELDS",
    "WALError",
    "fold",
    "record_crc",
    "replay",
]

WAL_SCHEMA = "repro-serve-wal/2"

#: The job fields a ``state`` record may carry besides the new state.
STATE_FIELDS = ("attempts", "error", "result", "not_before")


class WALError(RuntimeError):
    """A journal is corrupt in a way crash-recovery must not paper over."""


def record_crc(record: dict[str, Any]) -> int:
    """CRC32 of a record's canonical JSON form, ``crc`` field excluded."""
    content = {k: v for k, v in record.items() if k != "crc"}
    return zlib.crc32(canonical_json(content).encode("utf-8"))


class Journal:
    """Append-only, CRC-stamped JSONL file; owns the ``seq`` counter.

    A subclass names its :attr:`SCHEMA` and the :attr:`LEGACY` schemas
    recognised as *ours* though they fail verification (they predate
    the CRC stamp), and builds its record shape on :meth:`_append`.

    Not thread-safe by itself — the daemon serialises appends under its
    state lock, which also makes (seq assignment, write) atomic.

    Opening the file heals a torn tail (a final line without ``\\n``,
    left by a crashed appender) by truncating it: the bytes were never
    acknowledged and appending after them would weld the next record
    onto the fragment.  Damaged lines met during the opening read are
    retained in :attr:`quarantined`.
    """

    SCHEMA: ClassVar[str]
    LEGACY: ClassVar[frozenset[str]]

    def __init__(self, path: str, *, durable: bool = True) -> None:
        self.path = path
        self.durable = durable
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self.tail_healed = False
        try:
            with open(path, "rb+") as fh:
                data = fh.read()
                if data and not data.endswith(b"\n"):
                    fh.truncate(data.rfind(b"\n") + 1)
                    self.tail_healed = True
        except FileNotFoundError:
            pass
        self.quarantined: list[dict[str, Any]] = []
        existing = self.read(path, quarantine=self.quarantined)
        self.seq = existing[-1]["seq"] if existing else 0
        self._fh = open(path, "a", encoding="utf-8")

    @classmethod
    def read(
        cls, path: str, *, quarantine: list[dict[str, Any]] | None = None
    ) -> list[dict[str, Any]]:
        """Every verified record of the journal at ``path``.

        A missing file is an empty journal; a torn final line is
        ignored.  Damaged lines are skipped and, when ``quarantine`` is
        given, described into it as ``{"lineno", "line", "reason"}``
        entries.  Version mismatches and ``seq`` regressions raise
        :class:`WALError` (see the module docstring).
        """
        records: list[dict[str, Any]] = []
        try:
            # errors="replace": bit rot can produce invalid UTF-8, and a
            # strict decode would crash the whole read on one bad byte.
            # The replacement character breaks that line's JSON parse
            # (and its CRC), routing it to quarantine like any damage.
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                lines = fh.read().split("\n")
        except FileNotFoundError:
            return records
        # A well-formed file ends with "\n", so split() yields a trailing
        # empty string; anything else in the last slot is a torn append,
        # dropped like the healing on open drops it.
        for lineno, line in enumerate(lines[:-1], start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                record, reason = None, f"malformed JSON: {exc}"
            else:
                reason = "record is not an object"
            if isinstance(record, dict):
                schema = record.get("schema")
                if record.get("crc") == record_crc(record):
                    # Bit-exact as some appender wrote it: a schema
                    # mismatch here is a version problem, not damage.
                    if schema != cls.SCHEMA:
                        raise WALError(
                            f"{path}:{lineno}: unsupported schema "
                            f"{schema!r} (want {cls.SCHEMA!r})"
                        )
                    records.append(record)
                    continue
                if schema in cls.LEGACY:
                    raise WALError(
                        f"{path}:{lineno}: written by schema {schema!r}; "
                        f"this build reads {cls.SCHEMA!r} — migrate or "
                        "remove the old log"
                    )
                reason = (
                    "CRC mismatch" if "crc" in record else "missing CRC stamp"
                )
            if quarantine is not None:
                quarantine.append(
                    {"lineno": lineno, "line": line, "reason": reason}
                )
        seqs = [r["seq"] for r in records]
        if seqs != sorted(set(seqs)):
            raise WALError(f"{path}: seq numbers not strictly increasing")
        return records

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def _append(self, fields: dict[str, Any]) -> int:
        """Durably append one CRC-stamped record; returns its ``seq``."""
        self.seq += 1
        record = {"schema": self.SCHEMA, "seq": self.seq, **fields}
        record["crc"] = record_crc(record)
        self._fh.write(canonical_json(record) + "\n")
        self._fh.flush()
        if self.durable:
            os.fsync(self._fh.fileno())
        return self.seq


class JobWAL(Journal):
    """The job queue's write-ahead log: ``submit`` and ``state`` records."""

    SCHEMA = WAL_SCHEMA
    LEGACY = frozenset({"repro-serve-wal/1"})

    def append(self, type_: str, **fields: Any) -> int:
        """Durably append one CRC-stamped record; returns its ``seq``."""
        return self._append({"type": type_, **fields})

    def submit(self, job: dict[str, Any]) -> int:
        return self.append("submit", job=job)

    def state(self, job_id: str, state: str, **fields: Any) -> int:
        return self.append("state", job_id=job_id, state=state, **fields)


def replay(
    path: str, *, quarantine: list[dict[str, Any]] | None = None
) -> list[dict[str, Any]]:
    """Every verified record of the WAL at ``path`` (see :meth:`Journal.read`)."""
    return JobWAL.read(path, quarantine=quarantine)


def fold(
    records: Iterable[dict[str, Any]],
    *,
    orphan_states: list[dict[str, Any]] | None = None,
) -> dict[str, dict[str, Any]]:
    """Fold WAL records into ``{job_id: job_record}``.

    ``submit`` creates the job; each ``state`` record overlays the new
    state plus any :data:`STATE_FIELDS` it carries.  A state record for
    an unknown job normally raises :class:`WALError` (the daemon always
    writes the submit first, so this is a logic bug) — but when the
    caller quarantined damaged lines the missing submit may simply be
    one of them: pass ``orphan_states`` to collect such records instead
    of raising (the job is unrecoverable either way; collecting keeps
    recovery of every *other* job alive).
    """
    jobs: dict[str, dict[str, Any]] = {}
    for record in records:
        if record["type"] == "submit":
            job = dict(record["job"])
            jobs[job["job_id"]] = job
        elif record["type"] == "state":
            job_id = record["job_id"]
            if job_id not in jobs:
                if orphan_states is not None:
                    orphan_states.append(record)
                    continue
                raise WALError(
                    f"state record for unknown job {job_id!r} "
                    f"(seq {record['seq']})"
                )
            job = jobs[job_id]
            job["state"] = record["state"]
            for field in STATE_FIELDS:
                if field in record:
                    job[field] = record[field]
        else:
            raise WALError(f"unknown WAL record type {record['type']!r}")
    return jobs
