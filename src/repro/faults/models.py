"""Composable, declarative fault models and the schedule that groups them.

Every model is a frozen dataclass of plain numbers/strings, so a
:class:`FaultSchedule` round-trips through JSON (``to_dict`` /
``from_dict``) and can be loaded from experiment config files.  The
semantics live in :mod:`repro.faults.injector`, which compiles a
schedule against a concrete :class:`~repro.core.solver.ChainRun`.

Taxonomy (see ``docs/faults.md``)
---------------------------------
* **Message faults** — consulted per transmission attempt:
  :class:`MessageLoss`, :class:`MessageDuplication`,
  :class:`MessageReordering`, :class:`LinkPartition`.
* **Timed faults** — compiled to DES events that toggle platform state:
  :class:`HostCrash` (with optional restart after a downtime
  distribution), :class:`HostSlowdown` (stepwise ramp),
  :class:`LatencySpike`.
* **Corruption faults** (see ``docs/robustness.md``, *Data integrity*):
  :class:`PayloadCorruption` (in-flight value damage, consulted per
  delivery), :class:`StateCorruption` (in-memory block/checkpoint
  poisoning at a virtual time).

Determinism: all randomness (loss coin flips, extra reorder delays,
downtime draws, retry jitter) comes from named
:class:`~repro.util.rng.RngTree` streams keyed by the schedule's seed,
and every draw happens inside a deterministically ordered DES event —
two runs of the same schedule and seed are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from repro.util.validation import (
    check_disjoint_intervals,
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = [
    "ResilienceConfig",
    "MessageLoss",
    "MessageDuplication",
    "MessageReordering",
    "LinkPartition",
    "HostCrash",
    "HostSlowdown",
    "LatencySpike",
    "PayloadCorruption",
    "StateCorruption",
    "FaultSchedule",
    "FAULT_TYPES",
    "CORRUPTION_MODES",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning of the resilient transport and recovery machinery.

    Attributes
    ----------
    ack_bytes, heartbeat_bytes:
        Wire sizes of acknowledgements and liveness beacons.
    heartbeat_period:
        Virtual seconds between liveness beacons to chain neighbours.
    liveness_timeout:
        A peer unheard-of for longer is presumed dead; the load balancer
        then refuses to shed load toward it.
    base_timeout, backoff, jitter:
        Retransmission timer: attempt ``k`` waits
        ``base_timeout * backoff**k * (1 + jitter * u)`` with
        ``u ~ U[0, 1)`` from the per-rank retry stream.
    max_attempts:
        Transmission attempts before a transfer is declared failed and
        the kind's failure handler runs.
    protocol_timeout:
        Load-balancing handshake expiry: an unanswered offer (or an
        accepted offer whose data never arrives) is abandoned after this
        long, so a lost protocol message cannot wedge a rank forever.
    checkpoint_every:
        Sweeps between block-state checkpoints (crash-restart recovery
        restores the last checkpoint).  Checkpoints are also taken at
        every migration so the partition bookkeeping never rolls back.
    max_halo_staleness:
        Convergence-detection freshness gate: a rank whose halo input
        lags its neighbour's progress by more than this many sweeps
        reports an infinite residual to the oracle.  Without the gate, a
        drop-starved rank quiesces against its frozen boundary, its
        residual collapses, and detection can declare a wrong solution
        converged.
    integrity_checks:
        Arms the detection half of the data-integrity layer when a
        corruption fault is scheduled: per-message checksums
        (verify-on-receive, mismatch treated as loss so the retransmit
        path re-requests), CRC-stamped checkpoints (verified before any
        restore), and the numerical-plausibility guard.  ``False``
        measures what asynchronism *silently absorbs* — the
        escaped-corruption arm of ``repro integrity``.  With no
        corruption fault scheduled this flag is inert: checksums are
        never stamped and the fault-free byte-stream is unchanged.
    """

    ack_bytes: float = 32.0
    heartbeat_bytes: float = 16.0
    heartbeat_period: float = 5.0
    liveness_timeout: float = 15.0
    base_timeout: float = 1.0
    backoff: float = 2.0
    jitter: float = 0.2
    max_attempts: int = 5
    protocol_timeout: float = 30.0
    checkpoint_every: int = 20
    max_halo_staleness: int = 10
    integrity_checks: bool = True

    def __post_init__(self) -> None:
        check_non_negative("ack_bytes", self.ack_bytes)
        check_non_negative("heartbeat_bytes", self.heartbeat_bytes)
        check_positive("heartbeat_period", self.heartbeat_period)
        check_positive("liveness_timeout", self.liveness_timeout)
        check_positive("base_timeout", self.base_timeout)
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        check_in_range("jitter", self.jitter, 0.0, 1.0)
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        check_positive("protocol_timeout", self.protocol_timeout)
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.max_halo_staleness < 1:
            raise ValueError(
                f"max_halo_staleness must be >= 1, got {self.max_halo_staleness}"
            )


def _check_window(t0: float, t1: float) -> None:
    check_non_negative("t0", t0)
    if t1 < t0:
        raise ValueError(f"fault window must have t1 >= t0, got [{t0}, {t1}]")


def _crash_window(crash: "HostCrash") -> tuple[float, float]:
    """Conservative ``[crash, latest possible restart]`` interval."""
    downtime = crash.downtime
    if downtime is None:
        return (crash.at, math.inf)
    hi = downtime[1] if isinstance(downtime, tuple) else downtime
    return (crash.at, crash.at + hi)


@dataclass(frozen=True)
class MessageLoss:
    """Drop each transmission attempt with probability ``rate``.

    ``kinds`` restricts the fault to specific message kinds (None = all);
    the window ``[t0, t1]`` bounds it in virtual time.  Acknowledgements
    are subject to the same loss (a lost ack forces a retransmission that
    the receiver then suppresses as a duplicate).
    """

    rate: float
    t0: float = 0.0
    t1: float = math.inf
    kinds: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        check_in_range("rate", self.rate, 0.0, 1.0)
        _check_window(self.t0, self.t1)

    def matches(self, kind: str, now: float) -> bool:
        if not self.t0 <= now <= self.t1:
            return False
        return self.kinds is None or kind in self.kinds


@dataclass(frozen=True)
class MessageDuplication:
    """Deliver an extra wire copy with probability ``rate``."""

    rate: float
    t0: float = 0.0
    t1: float = math.inf
    kinds: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        check_in_range("rate", self.rate, 0.0, 1.0)
        _check_window(self.t0, self.t1)

    matches = MessageLoss.matches


@dataclass(frozen=True)
class MessageReordering:
    """Add ``U[0, max_extra_delay)`` to a message's arrival with
    probability ``rate`` — *after* FIFO clamping, so a delayed message
    can genuinely overtake or be overtaken (the out-of-order delivery
    that newest-wins sequence numbers exist to absorb)."""

    rate: float
    max_extra_delay: float
    t0: float = 0.0
    t1: float = math.inf
    kinds: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        check_in_range("rate", self.rate, 0.0, 1.0)
        check_positive("max_extra_delay", self.max_extra_delay)
        _check_window(self.t0, self.t1)

    matches = MessageLoss.matches


@dataclass(frozen=True)
class LinkPartition:
    """Total loss between two rank groups during ``[t0, t1]``.

    Models a WAN cut: every transmission (and ack) crossing the groups
    inside the window is dropped.  The resilient transport keeps
    retrying with backoff, so traffic resumes once the partition heals.
    """

    t0: float
    t1: float
    ranks_a: tuple[int, ...]
    ranks_b: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_window(self.t0, self.t1)
        if not self.ranks_a or not self.ranks_b:
            raise ValueError("partition groups must be non-empty")
        if set(self.ranks_a) & set(self.ranks_b):
            raise ValueError(
                f"partition groups overlap: {self.ranks_a} / {self.ranks_b}"
            )

    def severs(self, src_rank: int, dst_rank: int, now: float) -> bool:
        if not self.t0 <= now <= self.t1:
            return False
        return (src_rank in self.ranks_a and dst_rank in self.ranks_b) or (
            src_rank in self.ranks_b and dst_rank in self.ranks_a
        )


@dataclass(frozen=True)
class HostCrash:
    """Fail-stop crash of one rank's host at ``at``.

    ``downtime`` selects the restart behaviour: ``None`` = never
    restarts; a float = deterministic downtime; ``(lo, hi)`` = downtime
    drawn from ``U[lo, hi)`` at crash time (the schedule's crash
    stream).  On restart the rank's process resumes from its last
    checkpoint; deliveries attempted during the downtime are dropped
    and recovered by the senders' retransmissions.
    """

    rank: int
    at: float
    downtime: float | tuple[float, float] | None = None

    def __post_init__(self) -> None:
        check_non_negative("rank", self.rank)
        check_non_negative("at", self.at)
        if isinstance(self.downtime, tuple):
            lo, hi = self.downtime
            check_positive("downtime lo", lo)
            if hi < lo:
                raise ValueError(f"downtime range must have hi >= lo, got {self.downtime}")
        elif self.downtime is not None:
            check_positive("downtime", self.downtime)


@dataclass(frozen=True)
class HostSlowdown:
    """Ramp one rank's host down to ``factor`` of its speed over
    ``[t0, t1]``, in ``ramp_steps`` equal steps, then restore.

    ``factor`` is the *floor* multiplier (0.25 = the host ends up 4×
    slower); intermediate steps interpolate linearly, modelling external
    load building up rather than arriving at once.
    """

    rank: int
    t0: float
    t1: float
    factor: float
    ramp_steps: int = 1

    def __post_init__(self) -> None:
        check_non_negative("rank", self.rank)
        _check_window(self.t0, self.t1)
        if self.t1 == self.t0:
            raise ValueError("slowdown window must have positive length")
        if not math.isfinite(self.t1):
            raise ValueError("slowdown window must be finite")
        check_in_range("factor", self.factor, 1e-9, 1.0)
        if self.ramp_steps < 1:
            raise ValueError(f"ramp_steps must be >= 1, got {self.ramp_steps}")


@dataclass(frozen=True)
class LatencySpike:
    """Multiply link latency by ``factor`` during ``[t0, t1]``.

    ``sites`` names one inter-site link (pair of site labels); ``None``
    spikes every registered site link *and* the default link.
    """

    t0: float
    t1: float
    factor: float
    sites: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        _check_window(self.t0, self.t1)
        if not math.isfinite(self.t1):
            raise ValueError("latency spike window must be finite")
        if self.factor <= 1.0:
            raise ValueError(f"spike factor must be > 1, got {self.factor}")


#: Value-damage modes shared by the corruption fault models.
#: ``bitflip`` flips one mantissa bit of one float (a hardware upset);
#: ``perturb`` adds a relative error of size ``amplitude`` (an analog
#: glitch / torn half-write); ``truncate`` drops a payload field
#: entirely (a short read).
CORRUPTION_MODES = ("bitflip", "perturb", "truncate")


def _check_mode(mode: str, allowed: tuple[str, ...] = CORRUPTION_MODES) -> None:
    if mode not in allowed:
        raise ValueError(
            f"unknown corruption mode {mode!r}; choose from {allowed}"
        )


@dataclass(frozen=True)
class PayloadCorruption:
    """Silently damage a delivered message's values with probability
    ``rate``.

    Consulted once per *delivery* (not per transmission attempt): the
    wire copy that reaches the receiver carries corrupted numbers while
    the sender's buffered original stays pristine — exactly the fault a
    checksum + retransmit protocol can recover from.  ``kinds`` and the
    ``[t0, t1]`` window filter like :class:`MessageLoss`; ``mode``
    selects the damage (``bitflip``/``perturb``/``truncate``) and
    ``amplitude`` scales the relative error of ``perturb``.
    """

    rate: float
    t0: float = 0.0
    t1: float = math.inf
    kinds: tuple[str, ...] | None = None
    mode: str = "bitflip"
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        check_in_range("rate", self.rate, 0.0, 1.0)
        _check_window(self.t0, self.t1)
        _check_mode(self.mode)
        check_positive("amplitude", self.amplitude)

    matches = MessageLoss.matches


@dataclass(frozen=True)
class StateCorruption:
    """Poison one rank's in-memory solver block (or its checkpoint) at
    virtual time ``at`` — the resident-memory upset that no transport
    checksum can see.

    ``target="state"`` damages the live block values (caught, if at
    all, by the numerical-plausibility guard); ``target="checkpoint"``
    damages the saved snapshot so a later restore would resurrect bad
    state (caught by the checkpoint CRC before any rollback).
    """

    rank: int
    at: float
    target: str = "state"
    mode: str = "perturb"
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative("rank", self.rank)
        check_non_negative("at", self.at)
        if self.target not in ("state", "checkpoint"):
            raise ValueError(
                f"unknown state-corruption target {self.target!r}; "
                "choose from ('state', 'checkpoint')"
            )
        _check_mode(self.mode, ("bitflip", "perturb"))
        check_positive("amplitude", self.amplitude)


#: Registry for (de)serialisation; keys are the ``type`` field of the
#: dict form.
FAULT_TYPES: dict[str, type] = {
    "message_loss": MessageLoss,
    "message_duplication": MessageDuplication,
    "message_reordering": MessageReordering,
    "link_partition": LinkPartition,
    "host_crash": HostCrash,
    "host_slowdown": HostSlowdown,
    "latency_spike": LatencySpike,
    "payload_corruption": PayloadCorruption,
    "state_corruption": StateCorruption,
}
_TYPE_NAMES = {cls: name for name, cls in FAULT_TYPES.items()}

#: Fields that JSON represents as lists but the dataclasses as tuples.
_TUPLE_FIELDS = ("kinds", "ranks_a", "ranks_b", "downtime", "sites")


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, declarative collection of fault models.

    The schedule is pure data; hand it to
    :class:`~repro.faults.injector.FaultInjector` to arm it against a
    run.  ``seed`` keys every random stream the faults (and the
    resilient transport's retry jitter) draw from.
    """

    faults: tuple[Any, ...] = ()
    seed: int = 0
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for f in self.faults:
            if type(f) not in _TYPE_NAMES:
                raise TypeError(f"unknown fault model {f!r}")
        self._check_cross_fault_consistency()

    def _check_cross_fault_consistency(self) -> None:
        """Strict whole-schedule validation (beyond per-fault checks).

        Two shapes compile into silently broken schedules and are
        rejected at construction time:

        * **overlapping crash intervals for one host** — the injector
          absorbs a crash that lands while the host is already down, so
          the second crash (and its restart) silently never happens;
        * **a partition isolating a single rank that lies entirely
          within that rank's crash window** — the cut can never be
          observed (the host is down for its whole duration and the
          partition has healed by the earliest possible restart), yet
          the schedule reads as if connectivity loss were exercised.

        Crash windows are conservative ``[at, at + max downtime]``
        intervals (``math.inf`` for no-restart crashes).
        """
        windows: dict[int, list[tuple[float, float]]] = {}
        for fault in self.faults:
            if isinstance(fault, HostCrash):
                windows.setdefault(fault.rank, []).append(_crash_window(fault))
        for rank, intervals in sorted(windows.items()):
            check_disjoint_intervals(f"rank {rank} crash", intervals)
        for fault in self.faults:
            if not isinstance(fault, LinkPartition):
                continue
            for group in (fault.ranks_a, fault.ranks_b):
                if len(group) != 1:
                    continue
                (rank,) = group
                for w0, w1 in windows.get(rank, ()):
                    if w0 <= fault.t0 and fault.t1 <= w1:
                        raise ValueError(
                            f"partition [{fault.t0:g}, {fault.t1:g}] severs "
                            f"rank {rank}'s only link but lies entirely "
                            f"within its crash window [{w0:g}, {w1:g}]; "
                            "the cut is unobservable — widen the partition "
                            "or move the crash"
                        )

    # ------------------------------------------------------------------
    # (De)serialisation — the config-file form
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "resilience": asdict(self.resilience),
            "faults": [
                {"type": _TYPE_NAMES[type(f)], **_jsonify(asdict(f))}
                for f in self.faults
            ],
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "FaultSchedule":
        resilience = ResilienceConfig(**data.get("resilience", {}))
        faults = []
        for entry in data.get("faults", []):
            entry = dict(entry)
            type_name = entry.pop("type", None)
            cls = FAULT_TYPES.get(type_name)
            if cls is None:
                raise ValueError(
                    f"unknown fault type {type_name!r}; "
                    f"choose from {sorted(FAULT_TYPES)}"
                )
            known = {f.name for f in fields(cls)}
            unknown = set(entry) - known
            if unknown:
                raise ValueError(
                    f"unknown field(s) {sorted(unknown)} for fault "
                    f"type {type_name!r}"
                )
            for key in _TUPLE_FIELDS:
                if isinstance(entry.get(key), list):
                    entry[key] = tuple(entry[key])
            faults.append(cls(**entry))
        return FaultSchedule(
            faults=tuple(faults),
            seed=int(data.get("seed", 0)),
            resilience=resilience,
        )


def _jsonify(data: dict[str, Any]) -> dict[str, Any]:
    """Make a fault model's asdict JSON-friendly (tuples -> lists)."""
    out: dict[str, Any] = {}
    for key, value in data.items():
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out
