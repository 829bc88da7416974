"""Availability traces: piecewise-constant multipliers over virtual time.

A trace models the fraction of a resource available to the computation —
the paper's "machines subject to a multi-user utilization directly
influencing their load".  The same abstraction scales link capacity on
the fluctuating inter-site network.

All traces are piecewise constant, which lets hosts invert
work→duration exactly by walking segments (no numerical quadrature).
Stochastic traces draw from a seeded generator and extend themselves
lazily, so a trace is a deterministic function of its seed regardless of
query order (queries at time ``t`` force generation up to ``t``).
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod

import numpy as np

from repro.util.validation import check_in_range, check_positive

__all__ = ["AvailabilityTrace", "ConstantTrace", "MarkovTrace"]

#: Traces never report availability below this floor, guaranteeing that
#: any finite amount of work completes in finite virtual time.
MIN_AVAILABILITY = 0.01


class AvailabilityTrace(ABC):
    """A piecewise-constant function ``t -> availability in (0, 1]``."""

    @abstractmethod
    def value(self, t: float) -> float:
        """Availability at time ``t``."""

    @abstractmethod
    def next_change(self, t: float) -> float:
        """First time strictly after ``t`` at which the value may change.

        Returns ``inf`` if the trace is constant from ``t`` on.
        """


class ConstantTrace(AvailabilityTrace):
    """Full-time constant availability (dedicated machine)."""

    def __init__(self, level: float = 1.0) -> None:
        self.level = check_in_range("level", level, MIN_AVAILABILITY, 1.0)

    def value(self, t: float) -> float:
        return self.level

    def next_change(self, t: float) -> float:
        return float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConstantTrace({self.level})"


class MarkovTrace(AvailabilityTrace):
    """Stochastic multi-user load: exponential dwell times, random levels.

    Each segment's length is drawn from ``Exponential(mean_dwell)`` and
    its level uniformly from ``[low, high]`` (clipped to the global
    floor).  Segments are generated lazily and cached, so the trace is a
    pure function of its generator's seed.

    Parameters
    ----------
    rng:
        Seeded generator (use :class:`repro.util.RngTree` naming).
    mean_dwell:
        Average segment duration in virtual seconds.
    low, high:
        Bounds of the availability level per segment.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        mean_dwell: float,
        low: float = 0.2,
        high: float = 1.0,
    ) -> None:
        self._rng = rng
        self.mean_dwell = check_positive("mean_dwell", mean_dwell)
        self.low = check_in_range("low", low, MIN_AVAILABILITY, 1.0)
        self.high = check_in_range("high", high, low, 1.0)
        self._times: list[float] = [0.0]
        self._levels: list[float] = [self._draw_level()]

    def _draw_level(self) -> float:
        return float(self._rng.uniform(self.low, self.high))

    def _extend_to(self, t: float) -> None:
        while self._times[-1] <= t:
            dwell = float(self._rng.exponential(self.mean_dwell))
            # Guard against pathological zero-length segments.
            dwell = max(dwell, 1e-9)
            self._times.append(self._times[-1] + dwell)
            self._levels.append(self._draw_level())

    def value(self, t: float) -> float:
        self._extend_to(t)
        idx = bisect.bisect_right(self._times, t) - 1
        return self._levels[max(idx, 0)]

    def next_change(self, t: float) -> float:
        self._extend_to(t)
        idx = bisect.bisect_right(self._times, t)
        # _extend_to guarantees self._times[-1] > t, so idx is in range.
        return self._times[idx]
