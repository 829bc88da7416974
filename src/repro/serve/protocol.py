"""JSON-lines protocol over a unix socket (or localhost TCP) + client.

Framing
-------
One request per connection: the client connects, sends exactly one
JSON object on one line, and reads newline-delimited JSON responses
until the server closes the connection.  Most verbs answer with a
single line; ``result`` with ``follow=true`` *streams* — one
``{"event": "state", ...}`` line per observed transition, then a final
``{"event": "result", ...}`` line when the job reaches a terminal
state.  Every response line carries ``"ok"``; a protocol-level failure
is ``{"ok": false, "error": "..."}``.

Verbs: ``submit``, ``jobs``, ``result``, ``kill``, ``health``,
``metrics``, ``shutdown`` — see :class:`repro.serve.daemon.ServeDaemon`
for semantics and ``docs/serving.md`` for the full request/response
catalogue.

Addresses
---------
A plain string is a unix-socket path; ``"tcp:HOST:PORT"`` selects
localhost TCP (for platforms or CI sandboxes where ``AF_UNIX`` paths
are too long — the kernel caps them at ~107 bytes).
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Any, Iterator

__all__ = ["PROTOCOL_SCHEMA", "ServeClient", "ServeError", "parse_address"]

PROTOCOL_SCHEMA = "repro-serve-proto/1"


class ServeError(RuntimeError):
    """The daemon answered ``ok: false`` (or the stream broke)."""


def parse_address(address: str) -> tuple[str, Any]:
    """``("unix", path)`` or ``("tcp", (host, port))``."""
    if address.startswith("tcp:"):
        _, host, port = address.split(":", 2)
        return "tcp", (host, int(port))
    return "unix", address


def _connect(address: str, timeout: float) -> socket.socket:
    family, target = parse_address(address)
    if family == "tcp":
        return socket.create_connection(target, timeout=timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(target)
    except BaseException:
        sock.close()  # a refused connect must not leak the descriptor
        raise
    return sock


#: Connect-phase errors that are safe to retry: nothing has been sent
#: yet, so a retry cannot duplicate a request.  Refused/reset covers a
#: daemon mid-restart; FileNotFoundError covers a unix socket path that
#: is not bound yet; TimeoutError covers a SYN lost to a saturated
#: accept queue (``socket.timeout`` is an alias since 3.10).
_TRANSIENT_CONNECT = (
    ConnectionRefusedError,
    ConnectionResetError,
    ConnectionAbortedError,
    FileNotFoundError,
    TimeoutError,
    InterruptedError,
)


class ServeClient:
    """Client for one serve daemon; every call is one connection.

    Connectionless-per-request keeps the daemon's handler model trivial
    (a request cannot interleave with another on the same socket) and
    makes the client trivially usable from many threads at once — the
    benchmark drives N submitting clients this way.

    ``connect_timeout`` bounds the dial separately from ``timeout``
    (the read deadline): a dead daemon fails in seconds instead of
    hanging for the full read budget.  Transient connect errors are
    retried up to ``connect_retries`` times with jittered exponential
    backoff — but only the dial is ever retried; once the request line
    has been written, a failure propagates (the daemon may already have
    acted on it, and verbs like ``submit`` are not idempotent).
    """

    def __init__(
        self,
        address: str,
        *,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        connect_retries: int = 3,
        retry_backoff: float = 0.05,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.connect_retries = connect_retries
        self.retry_backoff = retry_backoff

    # ------------------------------------------------------------------
    def _connect_with_retry(self) -> socket.socket:
        """Dial the daemon, retrying transient connect-phase failures."""
        attempt = 0
        while True:
            try:
                return _connect(self.address, self.connect_timeout)
            except _TRANSIENT_CONNECT as exc:
                attempt += 1
                if attempt > self.connect_retries:
                    raise ServeError(
                        f"cannot connect to daemon at {self.address!r} "
                        f"after {attempt} attempt(s): {exc}"
                    ) from exc
                delay = self.retry_backoff * (2 ** (attempt - 1))
                time.sleep(delay * (1.0 + random.random()))

    def _request_lines(
        self, request: dict[str, Any], timeout: float | None = None
    ) -> Iterator[dict[str, Any]]:
        sock = self._connect_with_retry()
        sock.settimeout(timeout if timeout is not None else self.timeout)
        try:
            with sock.makefile("rw", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(request) + "\n")
                fh.flush()
                sock.shutdown(socket.SHUT_WR)
                for line in fh:
                    if not line.strip():
                        continue
                    yield json.loads(line)
        finally:
            sock.close()

    def request(
        self, verb: str, *, timeout: float | None = None, **fields: Any
    ) -> dict[str, Any]:
        """Single-response verbs; raises :class:`ServeError` on failure."""
        for response in self._request_lines({"verb": verb, **fields}, timeout):
            if not response.get("ok", False):
                raise ServeError(response.get("error", "daemon error"))
            return response
        raise ServeError(f"daemon closed the connection on {verb!r}")

    # ------------------------------------------------------------------
    def submit(
        self,
        spec: dict[str, Any],
        *,
        tenant: str = "default",
        priority: int = 0,
    ) -> str:
        """Enqueue a job; returns its id (WAL-durable before the ack)."""
        response = self.request(
            "submit", spec=spec, tenant=tenant, priority=priority
        )
        return response["job_id"]

    def jobs(self, *, tenant: str | None = None) -> list[dict[str, Any]]:
        response = self.request("jobs", **({"tenant": tenant} if tenant else {}))
        return response["jobs"]

    def result(
        self,
        job_id: str,
        *,
        follow: bool = False,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Fetch a job's state/result.

        ``follow=True`` blocks (streaming transitions) until the job is
        terminal, then returns the final job record including its
        result payload.  Without ``follow`` the current state is
        returned immediately.
        """
        if not follow:
            return self.request("result", job_id=job_id)["job"]
        last: dict[str, Any] | None = None
        for response in self._request_lines(
            {"verb": "result", "job_id": job_id, "follow": True},
            timeout if timeout is not None else 3600.0,
        ):
            if not response.get("ok", False):
                raise ServeError(response.get("error", "daemon error"))
            if response.get("event") == "result":
                return response["job"]
            last = response
        raise ServeError(
            f"stream for {job_id} ended without a result "
            f"(last event: {last})"
        )

    def follow(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield raw stream events for ``repro result --follow``."""
        for response in self._request_lines(
            {"verb": "result", "job_id": job_id, "follow": True}, 3600.0
        ):
            if not response.get("ok", False):
                raise ServeError(response.get("error", "daemon error"))
            yield response
            if response.get("event") == "result":
                return

    def kill(self, job_id: str) -> dict[str, Any]:
        return self.request("kill", job_id=job_id)

    def health(self) -> dict[str, Any]:
        return self.request("health")["health"]

    def metrics(self) -> list[dict[str, Any]]:
        return self.request("metrics")["metrics"]

    def shutdown(self) -> None:
        self.request("shutdown")

    # ------------------------------------------------------------------
    def wait_until_up(self, *, timeout: float = 10.0) -> dict[str, Any]:
        """Poll ``health`` until the daemon answers (startup barrier)."""
        deadline = time.monotonic() + timeout
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            try:
                return self.health()
            except (OSError, ServeError, ValueError) as exc:
                last_error = exc
                time.sleep(0.05)
        raise ServeError(
            f"daemon at {self.address!r} not up after {timeout}s: {last_error}"
        )
