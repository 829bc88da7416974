"""Centralized load balancing — the baseline the paper argues against.

A coordinator gathers every node's load, computes the average and
instructs transfers.  The *load vector* result is perfect in one round;
the *cost* is the global synchronisation: ``2 (n - 1)`` messages through
one coordinator per round plus the transfer messages, and every node
stalls while the round runs: ``2 (n - 1) (latency + bytes / bandwidth)``
of virtual time, where the neighbour-local scheme's per-migration cost
is independent of ``n``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["centralized_balance"]


def centralized_balance(load: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, float]]]:
    """One coordinator round: returns (balanced_load, transfer_plan).

    The plan is a list of ``(src, dst, amount)`` transfers computed with
    the classic two-pointer scheme over surpluses and deficits; the
    balanced vector equals the mean everywhere (up to rounding).
    """
    load = np.asarray(load, dtype=float)
    if load.ndim != 1 or load.size == 0:
        raise ValueError(f"load must be non-empty 1-D, got shape {load.shape}")
    mean = load.mean()
    surplus = [(i, load[i] - mean) for i in range(load.size) if load[i] > mean]
    deficit = [(i, mean - load[i]) for i in range(load.size) if load[i] < mean]
    plan: list[tuple[int, int, float]] = []
    si, di = 0, 0
    surplus = [list(x) for x in surplus]
    deficit = [list(x) for x in deficit]
    while si < len(surplus) and di < len(deficit):
        src, extra = surplus[si]
        dst, need = deficit[di]
        amount = min(extra, need)
        if amount > 0:
            plan.append((int(src), int(dst), float(amount)))
        surplus[si][1] -= amount
        deficit[di][1] -= amount
        if surplus[si][1] <= 1e-15:
            si += 1
        if deficit[di][1] <= 1e-15:
            di += 1
    return np.full_like(load, mean), plan

