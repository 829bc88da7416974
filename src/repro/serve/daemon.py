"""The ``repro serve`` daemon: durable queue + scheduler + health layer.

Thread architecture (all inside one process)::

    socket server (ThreadingMixIn)   one short-lived handler per request
        │  submit/jobs/result/kill/health/metrics/shutdown
        ▼
    JobTable + JobWAL + AuditLog     guarded by one lock (_state)
        ▲
        │ pick (priority + fair share)
    dispatcher thread ── executes one job at a time through the
        │                persistent SweepEngine (intra-job tasks fan
        │                out over its worker pool / run cache)
    watchdog thread ──── stall kills (engine.cancel → kill + requeue
                         with exponential backoff, capped retries),
                         idle pool reaping, queue-depth gauges

Durability contract: a ``submit`` is WAL-appended (fsync) *before* the
client sees its job id; every state transition is WAL-appended before
followers are woken.  ``kill -9`` at any point therefore loses at most
un-acked work: on restart, jobs that were queued or running are
requeued (the interrupted attempt is visible in ``attempts``), and
terminal jobs keep serving their recorded results.  Completed jobs are
additionally recorded in the append-only audit log as
``config_digest → result_digest`` for offline byte-verification
(:func:`repro.serve.audit.audit_replay`).

The guard subsystem is the service's health layer: admission gates
reject bad specs at the door (:func:`repro.serve.spec.validate_spec`),
the stall watchdog plays the same role as
:class:`repro.guard.watchdogs`'s virtual-time stall detector but in
wall-clock, and ``health`` is the ``/healthz``-style liveness verb.
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.exec import RunCache, SweepCancelled, SweepEngine
from repro.obs import MetricsRegistry
from repro.serve.audit import AuditLog
from repro.serve.jobs import Job, JobTable, QuotaError
from repro.serve.protocol import parse_address
from repro.serve.scheduler import FairShareScheduler
from repro.serve.spec import AdmissionError, config_digest, execute_spec, validate_spec
from repro.serve.wal import STATE_FIELDS, JobWAL, fold, replay

__all__ = ["ServeConfig", "ServeDaemon"]

#: Latency histogram buckets (seconds, wall-clock): sub-100ms acks out
#: to multi-minute full sweeps.
_LATENCY_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0)

#: Idle worker-pool teardown horizon (seconds, wall-clock).
IDLE_POOL_S = 60.0


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can set from the command line."""

    state_dir: str = ".repro-serve"
    #: Socket address: unix path, or ``tcp:HOST:PORT``.  Empty =
    #: ``{state_dir}/serve.sock``.
    address: str = ""
    #: Worker processes of the persistent sweep engine.
    workers: int = 2
    cache: bool = True
    cache_dir: str = ""
    cache_max_mb: float | None = None
    #: Per-tenant cap on outstanding (queued + running) jobs.
    quota: int = 16
    #: Stall watchdog: a job running longer than this is killed and
    #: requeued with backoff.
    job_timeout_s: float = 600.0
    max_retries: int = 2
    retry_backoff_s: float = 1.0
    #: fsync WAL/audit appends (benchmarks may relax this).
    durable: bool = True

    def resolved_address(self) -> str:
        return self.address or os.path.join(self.state_dir, "serve.sock")


class _Handler(socketserver.StreamRequestHandler):
    """One request per connection; dispatches into the daemon."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        daemon: "ServeDaemon" = self.server.daemon  # type: ignore[attr-defined]
        import json

        try:
            line = self.rfile.readline()
            if not line:
                return
            request = json.loads(line.decode("utf-8"))
        except (ValueError, OSError) as exc:
            self._send({"ok": False, "error": f"bad request: {exc}"})
            return
        try:
            daemon.handle(request, self._send)
        except BrokenPipeError:
            pass  # client went away mid-stream
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            try:
                self._send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
            except OSError:
                pass

    def _send(self, obj: dict[str, Any]) -> None:
        import json

        self.wfile.write((json.dumps(obj) + "\n").encode("utf-8"))
        self.wfile.flush()


class _ThreadingUnixServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True


class _ThreadingTCPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    daemon_threads = True
    allow_reuse_address = True


class ServeDaemon:
    """The long-lived job-queue service (see module docstring)."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        os.makedirs(cfg.state_dir, exist_ok=True)
        self._state = threading.Lock()
        #: Notified on every job state transition (followers wait here).
        self._changed = threading.Condition(self._state)
        self.wal = JobWAL(
            os.path.join(cfg.state_dir, "wal.jsonl"), durable=cfg.durable
        )
        self.audit = AuditLog(
            os.path.join(cfg.state_dir, "audit.jsonl"), durable=cfg.durable
        )
        self.table = JobTable(quota=cfg.quota)
        self.scheduler = FairShareScheduler()
        self.registry = MetricsRegistry()
        cache = None
        if cfg.cache:
            cache_dir = cfg.cache_dir or os.path.join(cfg.state_dir, "cache")
            max_bytes = (
                int(cfg.cache_max_mb * 1e6) if cfg.cache_max_mb else None
            )
            cache = RunCache(cache_dir, max_bytes=max_bytes)
        # min_pool_tasks=1: every job task runs in a worker process, so
        # the stall watchdog can actually kill it.
        self.engine = SweepEngine(
            jobs=cfg.workers, cache=cache, min_pool_tasks=1
        )
        self._recover()

        self._stop = threading.Event()
        self._server: socketserver.BaseServer | None = None
        self._threads: list[threading.Thread] = []
        self._current: Job | None = None  # job being executed, if any
        self._started_at = time.time()
        self._started_mono = time.monotonic()

    # ------------------------------------------------------------------
    # Startup / shutdown
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Fold the WAL back into the table; requeue interrupted jobs.

        Silent storage corruption surfaces here: lines the WAL and the
        audit log quarantined on open (damaged JSON, CRC mismatches) and
        healed torn tails are counted, and any ``state`` record whose
        ``submit`` was among the damage is tolerated as an orphan
        instead of aborting recovery of every healthy job.
        """
        orphans: list[dict[str, Any]] = []
        jobs = fold(
            replay(self.wal.path),
            orphan_states=orphans if self.wal.quarantined else None,
        )
        if orphans:
            self.registry.counter("serve.wal_orphan_states").inc(
                len(orphans)
            )
        for name, journal in (("wal", self.wal), ("audit", self.audit)):
            if journal.quarantined:
                self.registry.counter(f"serve.{name}_quarantined").inc(
                    len(journal.quarantined)
                )
            if journal.tail_healed:
                self.registry.counter(f"serve.{name}_tail_healed").inc()
        to_requeue = self.table.restore(jobs)
        for job in to_requeue:
            if job.state == "running":
                # The attempt died with the previous daemon process.
                job.state = "queued"
                job.not_before = 0.0
                self.wal.state(
                    job.job_id, "queued", attempts=job.attempts,
                    error="requeued by crash recovery",
                )
                self.registry.counter("serve.recovered_jobs").inc()
            # queued jobs need no new record: the WAL already says queued.

    def start(self) -> None:
        """Bind the socket and start dispatcher/watchdog/server threads."""
        address = self.config.resolved_address()
        family, target = parse_address(address)
        if family == "unix":
            try:
                os.unlink(target)
            except FileNotFoundError:
                pass
            self._server = _ThreadingUnixServer(target, _Handler)
        else:
            self._server = _ThreadingTCPServer(target, _Handler)
        self._server.daemon = self  # type: ignore[attr-defined]
        self._threads = [
            threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="serve-socket",
                daemon=True,
            ),
            threading.Thread(
                target=self._dispatch_loop, name="serve-dispatch", daemon=True
            ),
            threading.Thread(
                target=self._watchdog_loop, name="serve-watchdog", daemon=True
            ),
        ]
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        """Graceful shutdown: requeue the in-flight job, release the port."""
        if self._stop.is_set():
            return
        self._stop.set()
        self.engine.cancel()  # unblock the dispatcher if mid-job
        with self._changed:
            self._changed.notify_all()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self.engine.close()
        family, target = parse_address(self.config.resolved_address())
        if family == "unix":
            try:
                os.unlink(target)
            except OSError:
                pass
        self.wal.close()
        self.audit.close()

    def serve_forever(self) -> None:
        """Foreground mode for the CLI: start, then block until stopped."""
        self.start()
        try:
            while not self._stop.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()

    # ------------------------------------------------------------------
    # Request handling (socket threads)
    # ------------------------------------------------------------------
    def handle(self, request: dict[str, Any], send) -> None:
        verb = request.get("verb")
        if verb == "submit":
            send(self._handle_submit(request))
        elif verb == "jobs":
            send(self._handle_jobs(request))
        elif verb == "result":
            self._handle_result(request, send)
        elif verb == "kill":
            send(self._handle_kill(request))
        elif verb == "health":
            send({"ok": True, "health": self.health()})
        elif verb == "metrics":
            with self._state:
                self._scrape_locked()
                snapshot = self.registry.snapshot()
            send({"ok": True, "metrics": snapshot})
        elif verb == "shutdown":
            send({"ok": True})
            threading.Thread(target=self.stop, daemon=True).start()
        else:
            send({"ok": False, "error": f"unknown verb {verb!r}"})

    def _handle_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        tenant = str(request.get("tenant") or "default")
        priority = int(request.get("priority", 0))
        try:
            spec = validate_spec(request.get("spec", {}))
        except AdmissionError as exc:
            self.registry.counter(
                "serve.admission_rejected", reason="spec"
            ).inc()
            return {"ok": False, "error": f"admission: {exc}"}
        with self._changed:
            job = Job(
                job_id=self.table.new_job_id(),
                tenant=tenant,
                priority=priority,
                spec=spec,
                max_retries=self.config.max_retries,
                submitted_seq=self.wal.seq + 1,
            )
            try:
                self.table.admit(job)
            except QuotaError as exc:
                self.registry.counter(
                    "serve.admission_rejected", reason="quota"
                ).inc()
                return {"ok": False, "error": f"admission: {exc}"}
            # WAL before ack: the job id must never be handed out for a
            # job a crash could forget.
            self.wal.submit(job.to_record())
            self.registry.counter(
                "serve.jobs_submitted", tenant=tenant, kind=spec["kind"]
            ).inc()
            self._changed.notify_all()
        return {"ok": True, "job_id": job.job_id, "state": job.state}

    def _handle_jobs(self, request: dict[str, Any]) -> dict[str, Any]:
        tenant = request.get("tenant")
        with self._state:
            rows = [
                job.summary()
                for job in sorted(
                    self.table.jobs.values(), key=lambda j: j.job_id
                )
                if tenant is None or job.tenant == tenant
            ]
        return {"ok": True, "jobs": rows}

    def _job_payload(self, job: Job) -> dict[str, Any]:
        payload = job.summary()
        payload["result"] = job.result
        return payload

    def _handle_result(self, request: dict[str, Any], send) -> None:
        job_id = request.get("job_id", "")
        follow = bool(request.get("follow", False))
        with self._changed:
            job = self.table.jobs.get(job_id)
            if job is None:
                send({"ok": False, "error": f"unknown job {job_id!r}"})
                return
            if not follow or job.terminal:
                event = "result" if job.terminal else "state"
                send({"ok": True, "event": event, "job": self._job_payload(job)})
                return
            last_state = None
            while True:
                if job.state != last_state:
                    last_state = job.state
                    if job.terminal:
                        send(
                            {
                                "ok": True,
                                "event": "result",
                                "job": self._job_payload(job),
                            }
                        )
                        return
                    send(
                        {
                            "ok": True,
                            "event": "state",
                            "job_id": job.job_id,
                            "state": job.state,
                            "attempts": job.attempts,
                        }
                    )
                if self._stop.is_set():
                    send({"ok": False, "error": "daemon shutting down"})
                    return
                self._changed.wait(timeout=0.5)

    def _handle_kill(self, request: dict[str, Any]) -> dict[str, Any]:
        job_id = request.get("job_id", "")
        with self._changed:
            job = self.table.jobs.get(job_id)
            if job is None:
                return {"ok": False, "error": f"unknown job {job_id!r}"}
            if job.terminal:
                return {"ok": True, "job_id": job_id, "state": job.state}
            if job.state == "queued":
                self._transition_locked(job, "killed", error="killed by operator")
                return {"ok": True, "job_id": job_id, "state": job.state}
            # Running: flag it and cancel the engine; the dispatcher
            # observes kill_requested and finalises the state.
            job.kill_requested = True
            self.engine.cancel()
            return {"ok": True, "job_id": job_id, "state": "killing"}

    # ------------------------------------------------------------------
    # State transitions (hold the lock)
    # ------------------------------------------------------------------
    def _transition_locked(self, job: Job, state: str, **fields: Any) -> None:
        job.state = state
        for key in fields.keys() & STATE_FIELDS:
            setattr(job, key, fields[key])
        self.wal.state(job.job_id, state, **fields)
        if state in ("done", "failed", "killed"):
            job.finished_at = time.time()
            self.registry.counter("serve.jobs_completed", state=state).inc()
            self.audit.append(
                job_id=job.job_id,
                tenant=job.tenant,
                spec=job.spec,
                config_digest=config_digest(job.spec),
                result_digest=(job.result or {}).get("digest"),
                state=state,
            )
            if job.submitted_at:
                self.registry.histogram(
                    "serve.job_latency_s", buckets=_LATENCY_BUCKETS
                ).observe(min(job.finished_at - job.submitted_at, 300.0))
        self._changed.notify_all()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            with self._changed:
                job = self.scheduler.pick(
                    self.table.queued(), self.table.usage_s, time.time()
                )
                if job is None:
                    self._changed.wait(timeout=0.2)
                    continue
                job.attempts += 1
                job.started_at = time.time()
                self._transition_locked(job, "running", attempts=job.attempts)
                self._current = job
                # A cancel aimed at the *previous* job (watchdog firing
                # as it finished) must not leak into this one.  Never
                # reset during shutdown: stop()'s cancel must stick.
                if not self._stop.is_set():
                    self.engine.reset_cancel()
            self._execute(job)
            with self._state:
                self._current = None
        # Shutdown: requeue whatever was mid-flight so recovery resumes it.
        with self._changed:
            job = self._current
            if job is not None and job.state == "running":
                self._transition_locked(
                    job, "queued", error="requeued by daemon shutdown"
                )
                self._current = None

    def _execute(self, job: Job) -> None:
        artifacts = os.path.join(self.config.state_dir, "artifacts", job.job_id)
        os.makedirs(artifacts, exist_ok=True)
        t0 = time.perf_counter()
        try:
            payload = execute_spec(
                job.spec, engine=self.engine, artifacts_dir=artifacts
            )
        except SweepCancelled:
            elapsed = time.perf_counter() - t0
            with self._changed:
                if not self._stop.is_set():
                    self.engine.reset_cancel()
                self.table.charge(job.tenant, elapsed)
                if self._stop.is_set():
                    self._transition_locked(
                        job, "queued", error="requeued by daemon shutdown"
                    )
                elif job.kill_requested:
                    self._transition_locked(
                        job, "killed", error="killed by operator"
                    )
                elif job.attempts > job.max_retries:
                    self._transition_locked(
                        job,
                        "killed",
                        error=(
                            f"stall watchdog: attempt {job.attempts} "
                            f"exceeded {self.config.job_timeout_s:g}s; "
                            f"retries exhausted"
                        ),
                    )
                else:
                    backoff = self.config.retry_backoff_s * (
                        2.0 ** (job.attempts - 1)
                    )
                    self._transition_locked(
                        job,
                        "queued",
                        not_before=time.time() + backoff,
                        error=(
                            f"stall watchdog: attempt {job.attempts} "
                            f"killed after {self.config.job_timeout_s:g}s; "
                            f"requeued with {backoff:g}s backoff"
                        ),
                    )
            return
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            elapsed = time.perf_counter() - t0
            with self._changed:
                self.table.charge(job.tenant, elapsed)
                self._transition_locked(
                    job, "failed", error=f"{type(exc).__name__}: {exc}"
                )
            return
        elapsed = time.perf_counter() - t0
        with self._changed:
            self.table.charge(job.tenant, elapsed)
            self.registry.histogram(
                "serve.job_exec_s", buckets=_LATENCY_BUCKETS, kind=job.spec["kind"]
            ).observe(min(elapsed, 300.0))
            self._transition_locked(job, "done", result=payload)

    # ------------------------------------------------------------------
    # Watchdog (guard-as-health-layer)
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        while not self._stop.wait(timeout=0.1):
            with self._state:
                job = self._current
                stalled = (
                    job is not None
                    and job.state == "running"
                    and time.time() - job.started_at > self.config.job_timeout_s
                    and not job.kill_requested
                )
            if stalled:
                self.registry.counter("serve.watchdog_kills").inc()
                self.engine.cancel()
                # The dispatcher's SweepCancelled handler requeues/kills.
                time.sleep(0.2)
            self.engine.maybe_reap(IDLE_POOL_S)

    # ------------------------------------------------------------------
    # Health / metrics
    # ------------------------------------------------------------------
    def _scrape_locked(self) -> None:
        counts = self.table.counts()
        for state, count in counts.items():
            self.registry.gauge("serve.jobs_in_state", state=state).set(count)
        self.registry.gauge("serve.queue_depth").set(counts["queued"])
        self.registry.gauge("serve.wal_seq").set(self.wal.seq)
        fairness = self.scheduler.fairness(self.table.usage_s)
        self.registry.gauge("serve.fairness_max_over_min").set(
            fairness["max_over_min"]
        )
        for tenant, seconds in sorted(self.table.usage_s.items()):
            self.registry.gauge("serve.tenant_usage_s", tenant=tenant).set(
                seconds
            )
        stats = self.engine.stats
        lookups = stats.hits + stats.misses
        self.registry.gauge("serve.cache_hit_rate").set(
            stats.hits / lookups if lookups else 0.0
        )
        self.engine.export_metrics(self.registry, run="serve")

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` payload."""
        with self._state:
            counts = self.table.counts()
            threads_ok = all(t.is_alive() for t in self._threads[1:]) or not (
                self._threads
            )
            stats = self.engine.stats
            lookups = stats.hits + stats.misses
            return {
                "ok": bool(threads_ok and not self._stop.is_set()),
                "uptime_s": time.monotonic() - self._started_mono,
                "address": self.config.resolved_address(),
                "queue_depth": counts["queued"],
                "states": counts,
                "quota": self.config.quota,
                "tenants": dict(sorted(self.table.usage_s.items())),
                "fairness": self.scheduler.fairness(self.table.usage_s),
                "wal_seq": self.wal.seq,
                "wal_quarantined": len(self.wal.quarantined),
                "audit_seq": self.audit.seq,
                "audit_quarantined": len(self.audit.quarantined),
                "engine": stats.to_dict(),
                "cache_hit_rate": stats.hits / lookups if lookups else 0.0,
                "watchdog_kills": self.registry.counter(
                    "serve.watchdog_kills"
                ).value,
            }
