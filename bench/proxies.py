"""Timing proxies: how the traced runs see inside ``repro.problems``.

The solver layers only ever talk to a problem through the public
:class:`repro.problems.base.Problem` surface, so a delegating object
that times each call is enough to split a solver run into "numerics the
problem did" and "everything the simulator did around it" without
touching ``src/``.  The proxies add no state the solver can observe and
draw no randomness; ``bench/tests/test_proxies.py`` and the traced-vs-
untraced digest check in every benchmark run pin that they leave the
simulation bit-identical.
"""

from __future__ import annotations

from dataclasses import fields
from time import perf_counter
from typing import Any

from spans import SpanRecorder

__all__ = ["TimedProblem", "TimedSweeper", "traced_scenario"]


class TimedSweeper:
    """Delegating wrapper around a batched chain sweeper."""

    def __init__(self, inner: Any, owner: "TimedProblem") -> None:
        self._inner = inner
        self._owner = owner

    def sweep(self):
        t0 = perf_counter()
        residual, work = self._inner.sweep()
        self._owner.recorder.leaf("problems.batched_sweep", t0, perf_counter())
        self._owner.work_units += float(work.sum())
        return residual, work

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TimedProblem:
    """Delegating wrapper around a :class:`~repro.problems.base.Problem`.

    Times the calls that do numerical or copying work (``iterate``,
    ``split``/``merge``, ``halo_out``, ``copy_state``) as leaf spans on
    ``recorder`` and counts the work units ``iterate`` reports; every
    other attribute is forwarded untouched.
    """

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self._inner = inner
        self.recorder = recorder
        #: Sum of ``IterationResult.work`` over every sweep (exact: the
        #: work arrays hold small integer-valued floats).
        self.work_units = 0.0

    def iterate(self, state, left_halo, right_halo):
        t0 = perf_counter()
        out = self._inner.iterate(state, left_halo, right_halo)
        self.recorder.leaf("problems.iterate", t0, perf_counter())
        self.work_units += out.total_work
        return out

    def split(self, state, n, side):
        t0 = perf_counter()
        out = self._inner.split(state, n, side)
        self.recorder.leaf("problems.migrate", t0, perf_counter())
        return out

    def merge(self, state, payload, side):
        t0 = perf_counter()
        self._inner.merge(state, payload, side)
        self.recorder.leaf("problems.migrate", t0, perf_counter())

    def halo_out(self, state, side):
        t0 = perf_counter()
        out = self._inner.halo_out(state, side)
        self.recorder.leaf("problems.halo", t0, perf_counter())
        return out

    def copy_state(self, state):
        t0 = perf_counter()
        out = self._inner.copy_state(state)
        self.recorder.leaf("problems.copy_state", t0, perf_counter())
        return out

    def batched_chain_sweeper(self, blocks):
        inner = self._inner.batched_chain_sweeper(blocks)
        return None if inner is None else TimedSweeper(inner, self)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def traced_scenario(scenario: Any, recorder: SpanRecorder) -> Any:
    """A benchmark-owned subclass of ``scenario``'s class, same field
    values, whose ``problem()`` hands the solver a :class:`TimedProblem`.

    Each ``problem()`` call returns a fresh proxy; the proxies created
    so far are listed on the returned scenario's ``proxies`` attribute
    so the caller can add up their work counters.
    """
    base = type(scenario)
    proxies: list[TimedProblem] = []

    class Traced(base):  # type: ignore[misc, valid-type]
        def problem(self):
            proxy = TimedProblem(base.problem(self), recorder)
            proxies.append(proxy)
            return proxy

    Traced.__name__ = f"Traced{base.__name__}"
    Traced.proxies = proxies
    return Traced(**{f.name: getattr(scenario, f.name) for f in fields(scenario)})
