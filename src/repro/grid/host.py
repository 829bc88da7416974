"""Hosts: machines that turn work units into virtual time.

A host has a nominal ``speed`` (work units per virtual second, where a
work unit is one counted Newton component-step of the numerics — see
:mod:`repro.numerics.newton`) and an availability trace modelling
external multi-user load.  The effective speed at time ``t`` is
``speed * trace.value(t)``.
"""

from __future__ import annotations

from repro.grid.traces import AvailabilityTrace, ConstantTrace
from repro.util.validation import check_positive

__all__ = ["Host"]


class Host:
    """A simulated machine.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"belfort-03"``.
    speed:
        Nominal work units per virtual second.  For the heterogeneous
        experiments we map CPU frequency to speed directly (a PII-400 →
        400, an Athlon-1.4G → 1400), which preserves the paper's 3.5×
        hardware spread.
    trace:
        Availability trace; defaults to a dedicated machine.
    site:
        Site label used by the network to pick intra/inter-site links.
    """

    __slots__ = ("name", "speed", "trace", "site")

    def __init__(
        self,
        name: str,
        speed: float,
        trace: AvailabilityTrace | None = None,
        site: str = "local",
    ) -> None:
        self.name = name
        self.speed = check_positive("speed", speed)
        self.trace = trace if trace is not None else ConstantTrace(1.0)
        self.site = site

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Host({self.name!r}, speed={self.speed}, site={self.site!r})"

    def duration_for_work(self, work: float, t0: float) -> float:
        """Virtual seconds to complete ``work`` units starting at ``t0``.

        Integrates the effective speed over the availability trace's
        piecewise-constant segments, so the inversion is exact: one
        :meth:`~repro.grid.traces.AvailabilityTrace.segment` lookup per
        step.  A constant trace has one segment: the walk's first step,
        without the trace call.
        """
        if not work >= 0:  # check_non_negative, without the call
            raise ValueError(f"work must be >= 0, got {work!r}")
        if work == 0:
            return 0.0
        trace = self.trace
        if trace.__class__ is ConstantTrace:
            # The walk returns (t0 - t0) + work / rate: the same float.
            return work / (self.speed * trace.level)
        remaining = work
        segment = trace.segment
        t = t0
        while True:
            level, seg_end = segment(t)
            rate = self.speed * level
            if seg_end == float("inf"):
                return (t - t0) + remaining / rate
            capacity = rate * (seg_end - t)
            if capacity >= remaining:
                return (t - t0) + remaining / rate
            remaining -= capacity
            t = seg_end
