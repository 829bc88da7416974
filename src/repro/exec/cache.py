"""Content-addressed run cache for deterministic sweep tasks.

Every task the sweep engine (:mod:`repro.exec.engine`) runs is a pure
function of its *configuration* — scenario dataclass, fault schedule,
solver/LB knobs, all seeded through :class:`~repro.util.rng.RngTree` —
so its result can be addressed by content: the
:func:`~repro.analysis.perf.stable_digest` of the configuration plus a
code-version salt.  A second invocation of the same sweep then does zero
simulation work (``repro figure5 && repro figure5`` hits the cache for
every run of the second sweep).

Layout
------
``{root}/{digest[:2]}/{digest}.json`` — one small JSON envelope per run::

    {"schema": "repro-exec-cache/2", "digest": ..., "key": ...,
     "payload": ..., "crc": ...}

``key`` is the full cache-key material (kept for debuggability: a cache
entry is self-describing), ``payload`` the task's JSON result, ``crc``
a CRC32 over the payload's canonical JSON — the at-rest integrity
stamp: a bit-rotted payload reads back as a *miss*, never as a wrong
cached answer.

Invalidation
------------
The digest covers ``{"key": key, "salt": salt}``.  The default salt
(:func:`code_salt`) combines the envelope schema version, the package
version, :data:`CACHE_EPOCH` and :data:`STATE_LAYOUT_REV`; **bump**
:data:`CACHE_EPOCH` whenever a change alters what any cached run would
compute (solver numerics, fault semantics, payload fields) without
changing the scenario dataclasses, and :data:`STATE_LAYOUT_REV` when
the in-memory state layout changes (rank-batched arrays, checkpoint
snapshot format) in a way that could shift float associativity.
Any config change invalidates automatically because the key embeds the
full scenario ``asdict``.

Corruption tolerance
--------------------
A cache read that fails for *any* reason — missing file, truncated or
garbage JSON, wrong schema, foreign digest, payload CRC mismatch — is
a miss: the engine recomputes and overwrites the entry.  Writes go through a temp file +
:func:`os.replace`, so a crashed writer never leaves a half-written
entry under the final name; write errors (read-only filesystem, full
disk) are swallowed because the cache is strictly an accelerator.
Several processes may share one cache root: concurrent writers of the
same digest race benignly (both write valid, identical-payload
envelopes; ``os.replace`` is atomic, so readers see one or the other,
never a mix) — the interleaving contract
``tests/test_exec_cache_concurrent.py`` pins.

Eviction
--------
A long-running daemon (``repro serve``) puts entries forever, so the
cache can optionally cap its on-disk footprint: construct with
``max_bytes`` (CLI: ``--cache-max-mb``) and every :meth:`put` that
pushes the estimated total over the cap evicts least-recently-*used*
entries (file mtime order; :meth:`get` hits refresh an entry's mtime)
until the total fits again.  Eviction is best-effort and tolerant of
concurrent writers/evictors: a file that disappears mid-scan is simply
skipped.  ``evictions`` / ``evicted_bytes`` counters are scraped into
:class:`~repro.exec.engine.EngineStats` and exported through
``EngineStats.export_metrics``.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any

from repro.analysis.perf import canonical_json, stable_digest

__all__ = [
    "CACHE_EPOCH",
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "STATE_LAYOUT_REV",
    "RunCache",
    "code_salt",
]

#: v2 adds the per-entry payload ``crc``.  The schema string is part of
#: :func:`code_salt`, so every v1 entry self-invalidates on upgrade —
#: no migration or mixed-schema reads to handle.
CACHE_SCHEMA = "repro-exec-cache/2"

#: Bump when a code change alters cached results without changing any
#: scenario/config field (e.g. a solver numerics fix).
#: 2: repro.balancing determinism/stability fixes (canonical edge
#:    orientation in edge_colouring, degree-aware diffusion alpha
#:    validation) change any cached result computed through them.
CACHE_EPOCH = 2

#: Revision of the in-memory solver state layout (rank-batched arrays,
#: block tiling, checkpoint snapshot format).  Cached payloads are pure
#: virtual-time results, but a layout change is exactly the kind of
#: refactor that can shift float associativity without touching any
#: scenario field — bump this to invalidate instead of CACHE_EPOCH so
#: the two invalidation axes stay independently auditable.
STATE_LAYOUT_REV = 1

DEFAULT_CACHE_DIR = ".repro-cache"

#: Sentinel distinguishing "miss" from a cached ``None`` payload.
_MISS = object()


def _payload_crc(payload: Any) -> int:
    """CRC32 of a payload's canonical (sorted, compact) JSON bytes."""
    return zlib.crc32(canonical_json(payload).encode("utf-8"))


def code_salt() -> str:
    """The default code-version salt mixed into every cache digest."""
    from repro import __version__

    return (
        f"{CACHE_SCHEMA}:{__version__}:epoch{CACHE_EPOCH}"
        f":layout{STATE_LAYOUT_REV}"
    )


class RunCache:
    """Content-addressed store of task payloads under ``root``.

    The cache never decides *what* to key a run by — callers pass the
    key material (any JSON-serialisable structure) and the cache hashes
    it together with its salt.  See the module docstring for layout,
    invalidation and corruption semantics.
    """

    def __init__(
        self,
        root: str = DEFAULT_CACHE_DIR,
        *,
        salt: str | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = root
        self.salt = salt if salt is not None else code_salt()
        self.max_bytes = max_bytes
        #: Lifetime eviction counters (scraped into ``EngineStats``).
        self.evictions = 0
        self.evicted_bytes = 0
        #: Running estimate of the cache footprint, refreshed by a full
        #: scan whenever it crosses ``max_bytes`` (concurrent writers
        #: make any cheap estimate stale; the scan is the truth).
        self._approx_bytes: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunCache(root={self.root!r}, salt={self.salt!r}, "
            f"max_bytes={self.max_bytes!r})"
        )

    # ------------------------------------------------------------------
    def digest_for(self, key: Any) -> str:
        """Content address of ``key`` under this cache's salt."""
        return stable_digest({"key": key, "salt": self.salt})

    def path_for(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], f"{digest}.json")

    # ------------------------------------------------------------------
    def get(self, digest: str) -> tuple[bool, Any]:
        """Look ``digest`` up; returns ``(hit, payload)``.

        Every failure mode (missing, truncated, garbage, wrong schema,
        digest mismatch) returns ``(False, None)`` — the caller
        recomputes and the next :meth:`put` overwrites the bad entry.
        """
        path = self.path_for(digest)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                envelope = json.load(fh)
            if envelope["schema"] != CACHE_SCHEMA:
                return False, None
            if envelope["digest"] != digest:
                return False, None
            payload = envelope["payload"]
            if envelope["crc"] != _payload_crc(payload):
                return False, None
        except (OSError, ValueError, KeyError, TypeError):
            return False, None
        if self.max_bytes is not None:
            # Refresh recency so LRU eviction spares hot entries.  Best
            # effort: a concurrent evictor may have removed the file.
            try:
                os.utime(path)
            except OSError:
                pass
        return True, payload

    def put(self, digest: str, key: Any, payload: Any) -> None:
        """Store ``payload`` under ``digest`` (atomic, best-effort)."""
        path = self.path_for(digest)
        tmp = f"{path}.tmp.{os.getpid()}"
        envelope = {
            "schema": CACHE_SCHEMA,
            "digest": digest,
            "key": key,
            "payload": payload,
            "crc": _payload_crc(payload),
        }
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(envelope, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except OSError:  # pragma: no cover - cache is an accelerator only
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        if self.max_bytes is not None:
            self._account_put(path)

    # ------------------------------------------------------------------
    # Size-capped LRU eviction
    # ------------------------------------------------------------------
    def _scan(self) -> list[tuple[float, int, str]]:
        """All entry files as ``(mtime, size, path)``; tolerant of races."""
        entries: list[tuple[float, int, str]] = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return entries
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue  # leave foreign files and .tmp writers alone
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue  # concurrently evicted/replaced
                entries.append((st.st_mtime, st.st_size, path))
        return entries

    def _account_put(self, path: str) -> None:
        """Fold one written entry into the footprint estimate; evict if over."""
        try:
            size = os.stat(path).st_size
        except OSError:
            size = 0
        if self._approx_bytes is None:
            self._approx_bytes = sum(s for _, s, _ in self._scan())
        else:
            self._approx_bytes += size
        if self._approx_bytes > (self.max_bytes or 0):
            self._evict(keep=path)

    def _evict(self, *, keep: str | None = None) -> None:
        """Remove least-recently-used entries until under ``max_bytes``.

        ``keep`` (the entry just written) is never evicted — a cap
        smaller than one entry must still serve that entry.  Missing
        files are skipped: concurrent writers and evictors race
        benignly.
        """
        assert self.max_bytes is not None
        entries = sorted(self._scan())  # oldest mtime first
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and os.path.abspath(path) == os.path.abspath(keep):
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.evictions += 1
            self.evicted_bytes += size
        self._approx_bytes = total
