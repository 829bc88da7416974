"""A controllable synthetic contraction problem.

For the large parameter sweeps (Figure 5 goes to ~100 processors) the
full Brusselator numerics are unnecessarily expensive; what the
experiments measure is the *interaction* between per-component activity,
per-component cost and the load balancer.  This problem models exactly
that, in closed form:

* component ``j`` carries an error ``e_j`` (distance to the fixed
  point), contracted each sweep by a per-component rate ``r_j``;
* spatial coupling mixes in the neighbours' errors with factor ``γ < 1``
  (a weighted-max-norm contraction, so asynchronous iterations converge
  by El Tarazi's theorem);
* sweep cost per component is ``base_cost`` plus ``active_cost`` while
  ``e_j`` exceeds ``active_threshold`` — the idealised version of the
  Brusselator's "converged components verify in one Newton iteration".

A *hard region* (components with ``r_j`` close to 1) reproduces the
paper's observation that "the progression towards the solution is not
the same for all the components": without load balancing the ranks
owning the hard region do expensive sweeps long after everyone else has
converged, which is precisely the imbalance the residual-driven
balancer removes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.problems import _compiled
from repro.problems.base import (
    BlockState,
    ChainSweeper,
    IterationResult,
    Problem,
    padded,
)
from repro.util.validation import check_in_range, check_positive

__all__ = ["SyntheticProblem"]

#: Where no compiled sweep loads, blocks of at most this many
#: components sweep on Python floats
#: (:meth:`SyntheticProblem._sweep_floats`).  With the solver's two
#: reductions the array route costs a flat 8.2-8.8 us a sweep from 2 to
#: 128 components, the float route 2.8 us at 2 plus ~0.26 us a
#: component: 8.75 us at 24, 10.8 at 32.  Recorded ``figure5_cluster``
#: traffic (blocks of 2, 16, 32 and 64 are 92 % of its calls) costs the
#: same at every bound from 16 to 28 and more at 32 (``docs/
#: performance.md``, "Per-sweep handoff of the small-block problems").
_FLOAT_SWEEP_MAX = 24


def _numpy_sum(values: list[float]) -> float:
    """``float(np.array(values).sum())`` for at most 128 values.

    NumPy adds fewer than eight values in order and up to 128 in eight
    interleaved partial sums combined pairwise; a left-to-right sum of
    non-integer costs differs from that in most draws from eight on.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for v in values[end:]:
        total += v
    return total


class SyntheticProblem(Problem):
    """Per-component contraction with activity-dependent cost: a block
    holds one error per component, ``traj`` of shape ``(n,)``.

    Parameters
    ----------
    rates:
        Per-component contraction rates, each in ``[0, 1)``; length
        defines ``n_components``.
    coupling:
        Neighbour mixing factor ``γ`` in ``[0, 1)``.
    init_error:
        Initial error of every component.
    active_threshold:
        Errors above this make a component "active" (expensive).
    base_cost, active_cost:
        Work units per component per sweep: ``base`` always, plus
        ``active`` while the component is active.
    """

    name = "synthetic"
    component_shape = ()

    def __init__(
        self,
        rates: np.ndarray,
        *,
        coupling: float = 0.3,
        init_error: float = 1.0,
        active_threshold: float = 1e-4,
        base_cost: float = 1.0,
        active_cost: float = 4.0,
    ) -> None:
        self.rates = np.asarray(rates, dtype=float, order="C")
        if self.rates.ndim != 1 or self.rates.size == 0:
            raise ValueError("rates must be a non-empty 1-D array")
        if np.any(self.rates < 0) or np.any(self.rates >= 1):
            raise ValueError("all rates must lie in [0, 1)")
        self.n_components = int(self.rates.size)
        self.coupling = check_in_range("coupling", coupling, 0.0, 1.0 - 1e-12)
        self.init_error = check_positive("init_error", init_error)
        self.active_threshold = check_positive("active_threshold", active_threshold)
        self.base_cost = check_positive("base_cost", base_cost)
        self.active_cost = float(active_cost)
        if self.active_cost < 0:
            raise ValueError(f"active_cost must be >= 0, got {active_cost!r}")

    @classmethod
    def with_hard_region(
        cls,
        n_components: int,
        *,
        easy_rate: float = 0.5,
        hard_rate: float = 0.97,
        region: tuple[float, float] = (0.4, 0.6),
        **kwargs,
    ) -> "SyntheticProblem":
        """Uniform rates except a hard (slowly converging) sub-interval.

        ``region`` is in relative coordinates of the component index
        space, e.g. ``(0.4, 0.6)`` makes the middle fifth hard.
        """
        lo, hi = region
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"invalid region {region!r}")
        rates = np.full(n_components, easy_rate, dtype=float)
        idx = np.arange(n_components) / max(n_components - 1, 1)
        rates[(idx >= lo) & (idx < hi)] = hard_rate
        return cls(rates, **kwargs)

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def initial_traj(self, lo: int, hi: int) -> np.ndarray:
        return np.full(hi - lo, self.init_error)

    def iterate(
        self,
        state: BlockState,
        left_halo: np.ndarray,
        right_halo: np.ndarray,
    ) -> IterationResult:
        return self._sweep(_compiled.synthetic, state, left_halo, right_halo)

    def _sweep(
        self, kernel, state: BlockState, left_halo, right_halo
    ) -> IterationResult:
        """:meth:`iterate` on the compiled ``kernel``
        (:mod:`repro.problems._compiled`: the loop of
        :meth:`_sweep_floats` for every block size, its work sum in
        NumPy's pairwise order), or on the Python routes when it is None:
        bit for bit the same."""
        # The synthetic problem's residual IS the true error (idealised
        # estimator; see module docstring).
        n = state.n
        if kernel is not None:
            out = np.empty(3 * n)
            top, total = kernel.synthetic(
                self.rates, state.lo, state.traj, left_halo, right_halo, out,
                self.coupling, self.active_threshold,
                self.base_cost, self.base_cost + self.active_cost,
            )
            state.traj = values = out[:n]
            if top is None:
                top = float(values.max())
            return IterationResult(out[n : 2 * n], out[2 * n :], top, total)
        if n <= _FLOAT_SWEEP_MAX:
            return self._sweep_floats(state, left_halo, right_halo)
        rates = self.rates[state.lo : state.lo + state.n]
        new, work = self._relax(rates, state.traj, left_halo, right_halo)
        state.traj = new
        return IterationResult.from_arrays(new.copy(), work)

    def _sweep_floats(
        self, state: BlockState, left_halo, right_halo
    ) -> IterationResult:
        """:meth:`_relax` of a small block on Python floats, with the
        reductions taken in the same loop.

        ``np.maximum(a, b)`` is ``a if a > b or a != a else b`` (of two
        signed zeros the second operand, of two NaNs the first), and the
        only arithmetic is a finite rate or coupling times one value, so
        the errors, NaN payloads included, and the work are bit-identical
        to the array route.  So is their max unless it is a signed zero
        or a NaN, whose sign or payload NumPy's reduction order picks:
        then it is taken from the array.  The work sum follows NumPy's
        pairwise order (:func:`_numpy_sum`).
        """
        n, lo = state.n, state.lo
        rates = self.rates[lo : lo + n].tolist()
        e = state.traj.tolist()
        # A halo is a float or a one-element array, read inline: no call.
        ext = [
            left_halo.item() if isinstance(left_halo, np.ndarray) else left_halo,
            *e,
            right_halo.item() if isinstance(right_halo, np.ndarray) else right_halo,
        ]
        g, threshold = self.coupling, self.active_threshold
        base = self.base_cost
        active = base + self.active_cost
        new = []
        work = []
        top = -math.inf
        nan = False
        for j in range(n):
            a, b = ext[j], ext[j + 2]
            x = e[j]
            u = rates[j] * x
            w = g * (a if a > b or a != a else b)
            v = u if u > w or u != u else w
            new.append(v)
            work.append(active if x > threshold else base)
            if v > top:
                top = v
            elif v != v:
                nan = True
        state.traj = values = np.array(new)
        if nan or top == 0.0:
            top = float(values.max())
        return IterationResult(values.copy(), np.array(work), top, _numpy_sum(work))

    def _relax(
        self, rates: np.ndarray, e: np.ndarray, left_halo, right_halo
    ) -> tuple[np.ndarray, np.ndarray]:
        """One sweep of the errors ``e`` between two halos: (new errors,
        per-component work).  Elementwise throughout, so a block's slice
        of a longer sweep is bit-equal to sweeping the block alone."""
        ext = padded(e, left_halo, right_halo)
        neighbour = np.maximum(ext[:-2], ext[2:])
        new = np.maximum(rates * e, self.coupling * neighbour)
        work = np.where(
            e > self.active_threshold,
            self.base_cost + self.active_cost,
            self.base_cost,
        )
        return new, work

    # ------------------------------------------------------------------
    # Halos
    # ------------------------------------------------------------------
    def initial_halo(self, global_index: int) -> np.ndarray:
        if global_index < 0 or global_index >= self.n_components:
            return np.zeros(1)  # domain edges are exact (converged)
        return np.full(1, self.init_error)

    # ------------------------------------------------------------------
    # Rank-batched sweeps (lockstep SISC engine)
    # ------------------------------------------------------------------
    def batched_chain_sweeper(self, blocks: list[tuple[int, int]]) -> ChainSweeper:
        return ChainSweeper(self, blocks)
