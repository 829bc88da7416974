"""Load estimators: the scalar each node advertises to its neighbours.

Higher estimate = more loaded.  A node considers shipping components to
a neighbour when ``my_estimate / neighbour_estimate`` exceeds the
threshold ratio (:func:`surplus_fraction`, the paper's decision rule).

The paper (Section 5.2) argues for the **local residual**: "if a
processor has a low residual, all its components are not evolving so
far and its computations are not so useful for the overall progression"
— so it can take on more components.  The residual also captures
machine heterogeneity indirectly: a slow or externally-loaded machine
iterates less often in wall-clock time, so its residual lags behind its
neighbours'.

The alternatives the paper mentions and dismisses ("everyone could
think that taking the time to perform the k last iterations would give
a better criterion") are implemented for the ablation benchmarks.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

__all__ = [
    "surplus_fraction",
    "LoadEstimator",
    "ResidualEstimator",
    "IterationTimeEstimator",
    "ComponentCountEstimator",
    "make_estimator",
]


def surplus_fraction(mine: float, theirs: float, threshold_ratio: float) -> float:
    """Algorithm 5's decision: the share of its load a node should shed.

    ``mine`` and ``theirs`` are the estimates of a node and of the
    neighbour it considers.  ``0.0`` when they are balanced
    (``mine / theirs <= threshold_ratio``); otherwise ``1 - 1/ratio``,
    the share that would level the pair, reaching ``1.0`` when the
    neighbour reports no load at all (or so little the ratio overflows).
    """
    ratio = mine / theirs if theirs > 0.0 else math.inf
    if ratio <= threshold_ratio:
        return 0.0
    return 1.0 - 1.0 / ratio if math.isfinite(ratio) else 1.0


class LoadEstimator(ABC):
    """Per-node load estimate, updated after every sweep.  It holds only
    immutable values, so ``copy.copy`` of one is a snapshot."""

    @abstractmethod
    def update(
        self,
        residual: float,
        residual_l2: float,
        sweep_duration: float,
        n_local: int,
    ) -> None:
        """Record the outcome of one sweep.

        ``residual`` is the max-norm local residual (the convergence
        measure); ``residual_l2`` the Euclidean norm over the block's
        per-component residuals.
        """

    @abstractmethod
    def value(self) -> float:
        """Current estimate (higher = more loaded).  >= 0."""


class ResidualEstimator(LoadEstimator):
    """The paper's estimator: the local residual.

    ``norm="l2"`` (default) uses the Euclidean norm of the block's
    per-component residuals.  Unlike the max norm it is *mass*-aware: a
    block with sixty active components reports a larger load than one
    with two equally-stiff active components, so migration continues
    until the active mass — which is what drives per-sweep cost — is
    spread, not merely until every rank owns one active component.
    ``norm="max"`` gives the pure worst-component estimate (ablated).
    """

    def __init__(self, norm: str = "l2") -> None:
        if norm not in ("l2", "max"):
            raise ValueError(f"norm must be 'l2' or 'max', got {norm!r}")
        self.norm = norm
        self._value = float("inf")  # nothing computed yet: fully loaded

    def update(
        self,
        residual: float,
        residual_l2: float,
        sweep_duration: float,
        n_local: int,
    ) -> None:
        self._value = residual_l2 if self.norm == "l2" else residual

    def value(self) -> float:
        return self._value


class IterationTimeEstimator(LoadEstimator):
    """Mean wall-clock duration of the last ``window`` sweeps."""

    def __init__(self, window: int = 5) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._window = window
        self._durations: tuple[float, ...] = ()

    def update(
        self,
        residual: float,
        residual_l2: float,
        sweep_duration: float,
        n_local: int,
    ) -> None:
        self._durations = (*self._durations, sweep_duration)[-self._window :]

    def value(self) -> float:
        if not self._durations:
            return float("inf")
        return sum(self._durations) / len(self._durations)


class ComponentCountEstimator(LoadEstimator):
    """The naive estimator: how many components a node holds."""

    def __init__(self) -> None:
        self._n = float("inf")

    def update(
        self,
        residual: float,
        residual_l2: float,
        sweep_duration: float,
        n_local: int,
    ) -> None:
        self._n = float(n_local)

    def value(self) -> float:
        return self._n


def make_estimator(kind: str) -> LoadEstimator:
    """Factory used by the solver; ``kind`` matches ``LBConfig.estimator``."""
    if kind == "residual":
        return ResidualEstimator(norm="l2")
    if kind == "residual_max":
        return ResidualEstimator(norm="max")
    if kind == "iteration_time":
        return IterationTimeEstimator()
    if kind == "component_count":
        return ComponentCountEstimator()
    raise ValueError(f"unknown estimator kind {kind!r}")
