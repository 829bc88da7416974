"""The audit log reads and writes through the WAL's journal."""

import json

import pytest

from repro.serve import AUDIT_SCHEMA, AuditLog, WALError, read_audit, record_crc


def stamped_line(schema=AUDIT_SCHEMA, **fields):
    record = {"schema": schema, **fields}
    record["crc"] = record_crc(record)
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def audit_record(seq):
    return stamped_line(
        seq=seq, job_id=f"j{seq:06d}", tenant="alice", spec={"kind": "sleep"},
        config_digest="c", result_digest="r", state="done",
    )


def test_audit_seq_resumes_and_regressions_raise(tmp_path):
    path = tmp_path / "audit.jsonl"
    path.write_text(audit_record(1) + audit_record(2))
    log = AuditLog(str(path), durable=False)
    assert log.seq == 2
    log.close()
    path.write_text(audit_record(2) + audit_record(1))
    with pytest.raises(WALError, match="increasing"):
        read_audit(str(path))


@pytest.mark.parametrize(
    "line",
    [
        '{"schema": "repro-serve-audit/1", "seq": 1, "job_id": "j000001"}\n',
        stamped_line(schema="repro-serve-wal/2", seq=1, type="submit"),
    ],
    ids=["legacy-v1", "intact-foreign"],
)
def test_audit_version_mismatch_raises_the_wal_error(tmp_path, line):
    path = tmp_path / "audit.jsonl"
    path.write_text(line)
    with pytest.raises(WALError, match="schema"):
        read_audit(str(path))
