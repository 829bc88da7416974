"""Metrics over :class:`~repro.core.records.RunResult` objects."""

from __future__ import annotations

from repro.core.records import RunResult

__all__ = ["idle_fraction"]


def idle_fraction(result: RunResult) -> float:
    """Fraction of total rank-time spent blocked (Figures 1–3's white space).

    Idle is recorded explicitly by the synchronous models; for AIAC it is
    zero by construction.  Requires tracing to have been enabled.
    """
    if not result.tracer.enabled:
        raise ValueError("idle_fraction needs a run with trace=True")
    total = result.time * result.n_ranks
    if total == 0:
        return 0.0
    idle = sum(result.tracer.idle_time_of(r) for r in range(result.n_ranks))
    return idle / total
