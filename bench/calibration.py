"""The host's speed, measured next to everything the benchmark times.

The sandbox is a couple of vCPUs of a shared host whose speed drifts by
tens of percent over seconds to minutes, with the guest's CPU time equal
to its wall time throughout: nothing the guest can read says when it is
being slowed.  So the benchmark asks the host directly.  ``calibrate()``
runs a fixed piece of work shaped like the program — generators resumed
from a heap, a few small-array numpy calls and some dict traffic per
event — that shares no code with it, and returns how long that took.
One call sits between every two timed repeats, and a time is reported
as what it would have been had the calibration taken ``REFERENCE_S``::

    corrected = measured * REFERENCE_S / mean(calibrations around it)

A slower program still reads slower by exactly its slowdown; a slower
host, to the extent the calibration slows with it, does not.
"""

from __future__ import annotations

import heapq
from statistics import fmean
from time import perf_counter

import numpy as np

__all__ = ["REFERENCE_S", "calibrate", "corrected"]

#: What ``calibrate()`` takes on the 2-vCPU sandbox when the host is
#: quiet; corrected times are seconds on a host of that speed.
REFERENCE_S = 0.25

_PROCS = 24
_WIDTH = 60
_EVENTS = 12_000


def _relax(rank: int, state: list, inbox: list):
    """One rank of a chain relaxation; yields the time of its next step."""
    now = 0.0
    left, right = (rank - 1) % _PROCS, (rank + 1) % _PROCS
    while True:
        x = state[rank]
        box = inbox[rank]
        y = 0.5 * x + 0.25 * (np.roll(x, 1) + np.roll(x, -1))
        y[0] += 0.1 * box.get("l", 0.0)
        y[-1] += 0.1 * box.get("r", 0.0)
        residual = float(np.max(np.abs(y - x)))
        state[rank] = np.tanh(y)
        inbox[left]["r"] = float(y[0])
        inbox[right]["l"] = float(y[-1])
        now += 1.0 + 0.01 * rank + residual
        yield now


def calibrate() -> float:
    """Seconds the fixed calibration work takes right now."""
    t0 = perf_counter()
    rng = np.random.default_rng(1)
    state = [rng.random(_WIDTH) for _ in range(_PROCS)]
    inbox: list[dict] = [{} for _ in range(_PROCS)]
    ranks = [_relax(rank, state, inbox) for rank in range(_PROCS)]
    heap = [(next(proc), rank) for rank, proc in enumerate(ranks)]
    heapq.heapify(heap)
    recent: list[tuple[float, int]] = []
    for _ in range(_EVENTS):
        event = heapq.heappop(heap)
        recent.append(event)
        if len(recent) > 512:
            del recent[:256]
        rank = event[1]
        heapq.heappush(heap, (next(ranks[rank]), rank))
    return perf_counter() - t0


def corrected(seconds: float, calibrations: list[float]) -> float:
    """``seconds`` as it would read on a host where ``calibrate()``
    takes ``REFERENCE_S``, given the calibrations taken around it."""
    return seconds * REFERENCE_S / fmean(calibrations)
