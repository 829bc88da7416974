"""End-to-end tests for the serve daemon over its unix-socket protocol."""

import contextlib
import errno
import time
from pathlib import Path

import pytest

from repro.serve import (
    Job,
    JobWAL,
    ServeClient,
    ServeConfig,
    ServeDaemon,
    ServeError,
    audit_replay,
    execute_spec,
    read_audit,
)


@contextlib.contextmanager
def running_daemon(tmp_path, **overrides):
    """A started daemon on a tmp state dir + a connected client."""
    state_dir = str(tmp_path / "serve")
    config = ServeConfig(
        state_dir=state_dir,
        workers=2,
        durable=False,  # tests don't need fsync latency
        **overrides,
    )
    daemon = ServeDaemon(config)
    daemon.start()
    client = ServeClient(config.resolved_address())
    client.wait_until_up()
    try:
        yield daemon, client
    finally:
        daemon.stop()


SLEEP = {"kind": "sleep", "seconds": 0.01, "tasks": 2}


# ----------------------------------------------------------------------
# Submit / result / digest equality
# ----------------------------------------------------------------------
#: A job of each kind whose payload is a pure function of the spec; the
#: two experiments are the served forms of ``figure5-tiny`` and ``soak-2``
#: (tests/test_experiment_pins.py).
SERVED_SPECS = [
    SLEEP,
    {"kind": "figure5", "mode": "tiny"},
    {"kind": "soak", "schedules": 2, "seed": 0},
]


def test_served_digest_equals_direct_execution(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        job_ids = [client.submit(spec) for spec in SERVED_SPECS]
        for spec, job_id in zip(SERVED_SPECS, job_ids):
            job = client.result(job_id, follow=True, timeout=600)
            assert job["state"] == "done", job
            # The serving contract: a served result digest is byte-equal
            # to an offline run of the same spec (wall-clock never enters
            # the digest).
            assert job["result"]["digest"] == execute_spec(spec)["digest"], spec

            # Terminal results are served instantly without follow too.
            again = client.result(job_id)
            assert again["result"]["digest"] == job["result"]["digest"]


def test_follow_streams_transitions_then_result(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        job_id = client.submit(SLEEP)
        events = list(client.follow(job_id))
        assert events[-1]["event"] == "result"
        assert events[-1]["job"]["state"] == "done"
        assert all(e["event"] in ("state", "result") for e in events)


def test_jobs_listing_and_tenant_filter(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        a = client.submit(SLEEP, tenant="alice")
        b = client.submit(SLEEP, tenant="bob")
        client.result(a, follow=True, timeout=60)
        client.result(b, follow=True, timeout=60)
        assert {j["job_id"] for j in client.jobs()} == {a, b}
        assert [j["job_id"] for j in client.jobs(tenant="bob")] == [b]


# ----------------------------------------------------------------------
# Admission gates: bad specs and quotas never reach the queue
# ----------------------------------------------------------------------
def test_bad_spec_rejected_at_admission(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        with pytest.raises(ServeError, match="unknown job kind"):
            client.submit({"kind": "warp-drive"})
        assert client.jobs() == []


def test_tenant_quota_enforced(tmp_path):
    with running_daemon(tmp_path, quota=1) as (daemon, client):
        client.submit({"kind": "sleep", "seconds": 5.0, "tasks": 1})
        with pytest.raises(ServeError, match="quota"):
            client.submit(SLEEP)
        # Other tenants keep their own budget.
        client.submit(SLEEP, tenant="bob")


# ----------------------------------------------------------------------
# Kill verb
# ----------------------------------------------------------------------
def test_kill_queued_job(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        # A long sleeper occupies the dispatcher, so the next submit
        # stays queued long enough to kill deterministically.
        blocker = client.submit({"kind": "sleep", "seconds": 3.0, "tasks": 1})
        victim = client.submit(SLEEP)
        response = client.kill(victim)
        assert response["state"] == "killed"
        job = client.result(victim)
        assert job["state"] == "killed" and "operator" in job["error"]
        # The blocker is unaffected.
        assert client.result(blocker, follow=True, timeout=60)["state"] == "done"


def test_kill_running_job(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        job_id = client.submit({"kind": "sleep", "seconds": 30.0, "tasks": 1})
        deadline = time.monotonic() + 10.0
        while client.result(job_id)["state"] != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.02)
        assert client.kill(job_id)["state"] == "killing"
        job = client.result(job_id, follow=True, timeout=60)
        assert job["state"] == "killed"


# ----------------------------------------------------------------------
# Stall watchdog: kill + requeue with backoff, capped retries
# ----------------------------------------------------------------------
def test_watchdog_kills_and_requeues_stalled_job(tmp_path):
    with running_daemon(
        tmp_path, job_timeout_s=0.3, max_retries=1, retry_backoff_s=0.1
    ) as (daemon, client):
        job_id = client.submit({"kind": "sleep", "seconds": 30.0, "tasks": 1})
        job = client.result(job_id, follow=True, timeout=60)
        assert job["state"] == "killed"
        assert job["attempts"] == 2  # original + one requeued retry
        assert "watchdog" in job["error"]
        assert client.health()["watchdog_kills"] >= 2


# ----------------------------------------------------------------------
# Crash recovery: WAL replay requeues exactly the incomplete jobs
# ----------------------------------------------------------------------
def crash_state_dir(tmp_path, n_queued=2):
    """A state dir as a kill -9 would leave it: queued + running jobs."""
    state_dir = tmp_path / "serve"
    state_dir.mkdir()
    wal = JobWAL(str(state_dir / "wal.jsonl"), durable=False)
    for n in range(1, n_queued + 2):
        job = Job(
            job_id=f"j{n:06d}",
            tenant="alice",
            priority=0,
            spec=dict(SLEEP),
            max_retries=2,
            submitted_seq=n,
        )
        wal.submit(job.to_record())
    # The last one was mid-execution when the daemon died.
    wal.state(job.job_id, "running", attempts=1)
    wal.close()
    return str(state_dir)


def test_recovery_requeues_and_completes_interrupted_jobs(tmp_path):
    state_dir = crash_state_dir(tmp_path)
    config = ServeConfig(state_dir=state_dir, workers=2, durable=False)
    daemon = ServeDaemon(config)
    daemon.start()
    try:
        client = ServeClient(config.resolved_address())
        client.wait_until_up()
        jobs = {j["job_id"]: j for j in client.jobs()}
        assert set(jobs) == {"j000001", "j000002", "j000003"}
        for job_id in sorted(jobs):
            final = client.result(job_id, follow=True, timeout=60)
            assert final["state"] == "done"
        # The interrupted attempt stays visible in the attempt count.
        assert client.result("j000003")["attempts"] == 2
        # New submissions do not collide with recovered ids.
        assert client.submit(SLEEP) == "j000004"
    finally:
        daemon.stop()


def test_recovery_preserves_terminal_results(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        job_id = client.submit(SLEEP)
        done = client.result(job_id, follow=True, timeout=60)
    # Restart over the same state dir: the result is served from the WAL
    # without re-executing anything.
    config = ServeConfig(state_dir=daemon.config.state_dir, durable=False)
    daemon2 = ServeDaemon(config)
    daemon2.start()
    try:
        client2 = ServeClient(config.resolved_address())
        client2.wait_until_up()
        job = client2.result(job_id)
        assert job["state"] == "done"
        assert job["result"]["digest"] == done["result"]["digest"]
        assert client2.health()["states"]["queued"] == 0
    finally:
        daemon2.stop()


# ----------------------------------------------------------------------
# Audit log + offline replay
# ----------------------------------------------------------------------
def test_audit_log_replays_byte_identically(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        for _ in range(2):
            job_id = client.submit({"kind": "figure5", "mode": "tiny"})
            job = client.result(job_id, follow=True, timeout=600)
            assert job["state"] == "done"
        audit_path = daemon.audit.path
        # The repeat submission was served from the run cache...
        assert client.health()["cache_hit_rate"] > 0.0
    records = read_audit(audit_path)
    assert [r["state"] for r in records] == ["done", "done"]
    # ...and both served digests byte-verify against an offline replay
    # (serial engine, no cache — independent of how they were served).
    report = audit_replay(audit_path, sample=2)
    assert report.ok, report.report()


def test_audit_damage_is_quarantined_and_reported_after_restart(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        for seconds in (0.01, 0.02, 0.03):
            job_id = client.submit({**SLEEP, "seconds": seconds})
            assert client.result(job_id, follow=True, timeout=60)["state"] == "done"
        audit_path = daemon.audit.path
    lines = Path(audit_path).read_text().splitlines(keepends=True)
    assert len(lines) == 3
    # Bit rot in the middle record (valid JSON, wrong CRC), then a torn
    # append a crash left behind.
    lines[1] = lines[1].replace('"tenant":"default"', '"tenant":"mallory"')
    Path(audit_path).write_text(
        "".join(lines) + '{"schema":"repro-serve-audit/2","seq":4'
    )

    config = ServeConfig(state_dir=daemon.config.state_dir, durable=False)
    restarted = ServeDaemon(config)
    restarted.start()
    try:
        client = ServeClient(config.resolved_address())
        client.wait_until_up()
        health = client.health()
        assert health["audit_quarantined"] == 1
        assert health["audit_seq"] == 3
        counters = {r["name"]: r["value"] for r in client.metrics()}
        assert counters["serve.audit_quarantined"] == 1
        assert counters["serve.audit_tail_healed"] == 1
        (entry,) = restarted.audit.quarantined
        assert (entry["lineno"], entry["reason"]) == (2, "CRC mismatch")
        # The next finished job lands after the healed tail.
        job_id = client.submit(SLEEP)
        assert client.result(job_id, follow=True, timeout=60)["state"] == "done"
    finally:
        restarted.stop()

    quarantine = []
    records = read_audit(audit_path, quarantine=quarantine)
    assert [r["seq"] for r in records] == [1, 3, 4]
    assert len(quarantine) == 1
    report = audit_replay(audit_path, sample=3)
    assert report.n_quarantined == 1
    assert report.n_done == 3 and len(report.rows) == 3
    assert report.ok, report.report()


# ----------------------------------------------------------------------
# Health / metrics verbs
# ----------------------------------------------------------------------
def test_health_and_metrics_verbs(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        job_id = client.submit(SLEEP)
        client.result(job_id, follow=True, timeout=60)
        health = client.health()
        assert health["ok"] is True
        assert health["states"]["done"] == 1
        assert health["wal_seq"] >= 3  # submit + running + done
        assert health["engine"]["pool_starts"] >= 1

        names = {record["name"] for record in client.metrics()}
        assert {"serve.jobs_submitted", "serve.queue_depth",
                "serve.jobs_in_state", "serve.job_latency_s",
                "exec.tasks"} <= names


def test_unknown_verb_is_an_error(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        with pytest.raises(ServeError, match="verb"):
            client.request("teleport")
        with pytest.raises(ServeError, match="unknown job"):
            client.result("j999999")


# ----------------------------------------------------------------------
# Client connect timeouts and retry
# ----------------------------------------------------------------------
def test_client_retries_transient_connect_failures(tmp_path, monkeypatch):
    """The dial (and only the dial) is retried on transient errors."""
    import repro.serve.protocol as protocol

    with running_daemon(tmp_path) as (daemon, client):
        real_connect = protocol._connect
        failures = {"left": 2}

        def flaky_connect(address, timeout):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise ConnectionRefusedError("simulated restart window")
            return real_connect(address, timeout)

        monkeypatch.setattr(protocol, "_connect", flaky_connect)
        retrying = ServeClient(
            daemon.config.resolved_address(),
            connect_retries=3,
            retry_backoff=0.001,
        )
        assert retrying.health()["ok"] is True
        assert failures["left"] == 0


def test_client_retries_a_full_accept_backlog(tmp_path, monkeypatch):
    """EAGAIN from a unix socket's full backlog is a connect-phase error:
    one connects on the second attempt, and one that never clears gives
    ``ServeError`` after ``connect_retries + 1`` attempts."""
    import repro.serve.protocol as protocol

    with running_daemon(tmp_path) as (daemon, client):
        real_connect = protocol._connect
        attempts = []

        def backlogged_once(address, timeout):
            attempts.append(address)
            if len(attempts) == 1:
                raise BlockingIOError(errno.EAGAIN, "backlog full")
            return real_connect(address, timeout)

        monkeypatch.setattr(protocol, "_connect", backlogged_once)
        assert client.health()["ok"] is True
        assert len(attempts) == 2

        def always_backlogged(address, timeout):
            attempts.append(address)
            raise BlockingIOError(errno.EAGAIN, "backlog full")

        attempts.clear()
        monkeypatch.setattr(protocol, "_connect", always_backlogged)
        retrying = ServeClient(
            daemon.config.resolved_address(), connect_retries=2, retry_backoff=0.001
        )
        with pytest.raises(ServeError, match="after 3 attempt"):
            retrying.health()
        assert len(attempts) == 3


def test_client_connect_retries_exhausted_raises_serve_error(tmp_path):
    client = ServeClient(
        str(tmp_path / "nobody-home.sock"),
        connect_timeout=0.2,
        connect_retries=2,
        retry_backoff=0.001,
    )
    with pytest.raises(ServeError, match="after 3 attempt"):
        client.health()


def test_client_zero_retries_fails_fast(tmp_path):
    client = ServeClient(
        str(tmp_path / "nobody-home.sock"),
        connect_timeout=0.2,
        connect_retries=0,
        retry_backoff=0.001,
    )
    start = time.monotonic()
    with pytest.raises(ServeError, match="cannot connect"):
        client.health()
    assert time.monotonic() - start < 1.0
