"""Network links: latency + bandwidth with optional fluctuation.

A link's transfer time for a message of ``nbytes`` at time ``t`` is::

    latency / lat_avail(t)  +  nbytes / (bandwidth * bw_avail(t))

where the two availability traces model the paper's networks "between
which the speed may sharply vary".  Conditions are sampled at send time
(messages are small relative to fluctuation time-scales; documented
simplification).
"""

from __future__ import annotations

from repro.grid.traces import AvailabilityTrace, ConstantTrace
from repro.util.validation import check_non_negative, check_positive

__all__ = ["Link"]


class Link:
    """A point-to-point (or shared per-class) network link.

    Parameters
    ----------
    latency:
        One-way base latency in virtual seconds.
    bandwidth:
        Base bandwidth in bytes per virtual second.
    latency_trace, bandwidth_trace:
        Optional availability multipliers in ``(0, 1]``; lower
        availability means *slower* (latency is divided by, bandwidth is
        multiplied by the availability).
    """

    __slots__ = ("name", "latency", "bandwidth", "latency_trace", "bandwidth_trace")

    def __init__(
        self,
        latency: float,
        bandwidth: float,
        latency_trace: AvailabilityTrace | None = None,
        bandwidth_trace: AvailabilityTrace | None = None,
        name: str = "",
    ) -> None:
        self.name = name
        self.latency = check_non_negative("latency", latency)
        self.bandwidth = check_positive("bandwidth", bandwidth)
        self.latency_trace = latency_trace or ConstantTrace(1.0)
        self.bandwidth_trace = bandwidth_trace or ConstantTrace(1.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Link({self.name!r}, latency={self.latency}, "
            f"bandwidth={self.bandwidth:g})"
        )

    def transfer_time(self, nbytes: float, t: float) -> float:
        """Seconds to move ``nbytes`` across this link starting at ``t``."""
        if not nbytes >= 0:  # check_non_negative, without the call
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        lat_trace, bw_trace = self.latency_trace, self.bandwidth_trace
        if (
            lat_trace.__class__ is ConstantTrace
            and bw_trace.__class__ is ConstantTrace
        ):
            # The same expression, without the trace calls.
            return self.latency / lat_trace.level + nbytes / (
                self.bandwidth * bw_trace.level
            )
        lat = self.latency / lat_trace.value(t)
        rate = self.bandwidth * bw_trace.value(t)
        return lat + nbytes / rate
