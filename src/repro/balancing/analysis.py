"""Imbalance metrics for load vectors."""

from __future__ import annotations

import numpy as np

__all__ = ["imbalance_ratio"]


def _as_loads(load) -> np.ndarray:
    arr = np.asarray(load, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"load must be a non-empty 1-D vector, got shape {arr.shape}")
    if np.any(arr < 0):
        raise ValueError("loads must be non-negative")
    return arr


def imbalance_ratio(load) -> float:
    """``max / mean`` — 1.0 means perfectly balanced.

    This is the quantity that bounds parallel completion time: with
    perfectly overlapped communication, makespan is proportional to the
    most loaded node.
    """
    arr = _as_loads(load)
    mean = arr.mean()
    if mean == 0:
        return 1.0
    return float(arr.max() / mean)
