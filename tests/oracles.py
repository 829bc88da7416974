"""In-repo reference implementations the tests hold the product to.

None of this runs in a product path; each is the formulation a kernel
was written against (or rewritten from), kept here so a bitwise test
keeps its reference.  The scipy oracle is the ``scipy_banded`` fixture
in ``conftest.py``.

* :func:`implicit_euler_dense` — dense-Newton implicit Euler, the
  reference of :func:`repro.numerics.euler.implicit_euler_banded`;
* :func:`banded_from_dense`, :func:`banded_to_dense`,
  :func:`banded_matvec` — dense <-> band storage of
  :class:`~repro.numerics.banded.BandedMatrix`;
* :func:`lu_factor_scalar`, :func:`solve_scalar` — the closure-based
  factor and solve that ``BandedMatrix.lu_factor`` and
  ``BandedLU.solve`` reproduce bit for bit;
* :func:`work_capacity` — the work a host completes in an interval,
  the inverse :meth:`repro.grid.host.Host.duration_for_work` is held to;
* :class:`PiecewiseTrace` — an availability trace with scripted
  breakpoints, and :func:`mean_over`, a trace's time average;
* :func:`fault_free_view` and :func:`balance` — a zoo policy driven
  over a bare graph, every round, until the load is level (the §3
  comparison of the balancing families; :func:`repro.balancing.run_zoo`
  is the product's loop).
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from repro.grid.traces import MIN_AVAILABILITY, AvailabilityTrace
from repro.numerics.banded import _PIVOT_RTOL, BandedLU, BandedMatrix
from repro.util.validation import check_in_range


# ----------------------------------------------------------------------
# Dense implicit Euler
# ----------------------------------------------------------------------
def _step_newton_dense(rhs, jac, t_new, dt, y_prev, y_guess, tol, max_iter):
    y = y_guess.copy()
    identity = np.eye(y.shape[0])
    for _ in range(max_iter):
        residual = y - y_prev - dt * rhs(t_new, y)
        if np.max(np.abs(residual)) <= tol:
            return y
        jacobian = identity - dt * jac(t_new, y)
        y = y - np.linalg.solve(jacobian, residual)
    residual = y - y_prev - dt * rhs(t_new, y)
    if np.max(np.abs(residual)) > tol:
        raise RuntimeError(
            f"implicit Euler Newton failed to converge at t={t_new} "
            f"(|F|={np.max(np.abs(residual)):.3e} > tol={tol:.3e})"
        )
    return y


def implicit_euler_dense(
    rhs, jac, y0, t_grid, *, newton_tol=1e-10, newton_max_iter=50
) -> np.ndarray:
    """Integrate ``y' = rhs(t, y)`` over ``t_grid`` with implicit Euler,
    Newton on the dense Jacobian ``jac(t, y)``.

    Returns the trajectory array of shape ``(len(t_grid), len(y0))``
    (first row is ``y0``).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must be 1-D with at least two points")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    y0 = np.asarray(y0, dtype=float)
    out = np.empty((len(t_grid), y0.shape[0]))
    out[0] = y0
    for k in range(1, len(t_grid)):
        dt = t_grid[k] - t_grid[k - 1]
        out[k] = _step_newton_dense(
            rhs, jac, t_grid[k], dt, out[k - 1], out[k - 1],
            newton_tol, newton_max_iter,
        )
    return out


# ----------------------------------------------------------------------
# Band storage <-> dense
# ----------------------------------------------------------------------
def banded_from_dense(a: np.ndarray, kl: int, ku: int) -> BandedMatrix:
    """The bands of a dense square matrix; raises if ``a`` has nonzero
    entries outside the declared band."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got {a.shape}")
    i_idx, j_idx = np.nonzero(a)
    if np.any(i_idx - j_idx > kl) or np.any(j_idx - i_idx > ku):
        raise ValueError("dense matrix has entries outside the declared band")
    bands = np.zeros((kl + ku + 1, n))
    for offset in range(-kl, ku + 1):
        diag = np.diagonal(a, offset)
        row = ku - offset
        if offset >= 0:
            bands[row, offset : offset + len(diag)] = diag
        else:
            bands[row, : len(diag)] = diag
    return BandedMatrix(bands, kl, ku)


def banded_to_dense(m: BandedMatrix) -> np.ndarray:
    """Expand band storage to a dense matrix."""
    a = np.zeros((m.n, m.n))
    for offset in range(-m.kl, m.ku + 1):
        row = m.ku - offset
        length = m.n - abs(offset)
        if length <= 0:
            continue
        vals = (
            m.bands[row, offset : offset + length]
            if offset >= 0
            else m.bands[row, :length]
        )
        idx = np.arange(length)
        if offset >= 0:
            a[idx, idx + offset] = vals
        else:
            a[idx - offset, idx] = vals
    return a


def banded_matvec(m: BandedMatrix, x: np.ndarray) -> np.ndarray:
    """Banded matrix-vector product (one vectorised op per diagonal)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n,):
        raise ValueError(f"x must have shape ({m.n},), got {x.shape}")
    y = np.zeros(m.n)
    bands, kl, ku, n = m.bands, m.kl, m.ku, m.n
    for offset in range(-kl, ku + 1):
        row = ku - offset
        length = n - abs(offset)
        if length <= 0:
            continue
        if offset >= 0:
            y[:length] += bands[row, offset : offset + length] * x[offset:]
        else:
            y[-offset:] += bands[row, :length] * x[:length]
    return y


# ----------------------------------------------------------------------
# Scalar banded LU (the reference of the list sweeps)
# ----------------------------------------------------------------------
def lu_factor_scalar(m: BandedMatrix) -> BandedLU:
    """LU without pivoting through ``get`` / ``add`` / ``put`` closures
    on a band copy: the original implementation."""
    kl, ku, n = m.kl, m.ku, m.n
    # Work on a dense-band copy indexed [i, j] via band row ku+i-j.
    lu = m.bands.copy()
    scale = np.max(np.abs(lu[ku])) or 1.0

    def get(i: int, j: int) -> float:
        return lu[ku + i - j, j]

    def add(i: int, j: int, value: float) -> None:
        lu[ku + i - j, j] += value

    def put(i: int, j: int, value: float) -> None:
        lu[ku + i - j, j] = value

    for k in range(n - 1):
        pivot = get(k, k)
        if abs(pivot) <= _PIVOT_RTOL * scale:
            raise np.linalg.LinAlgError(
                f"near-zero pivot {pivot!r} at row {k}; "
                "banded LU without pivoting requires diagonal dominance"
            )
        for i in range(k + 1, min(k + kl + 1, n)):
            factor = get(i, k) / pivot
            put(i, k, factor)  # store L below the diagonal
            for j in range(k + 1, min(k + ku + 1, n)):
                add(i, j, -factor * get(k, j))
    if abs(get(n - 1, n - 1)) <= _PIVOT_RTOL * scale:
        raise np.linalg.LinAlgError("near-zero final pivot")
    return BandedLU(lu, kl, ku)


def solve_scalar(lu: BandedLU, b: np.ndarray) -> np.ndarray:
    """Forward / backward substitution on the packed factors, one
    array element at a time: the original implementation."""
    b = np.asarray(b, dtype=float)
    if b.shape != (lu.n,):
        raise ValueError(f"b must have shape ({lu.n},), got {b.shape}")
    kl, ku, n, packed = lu.kl, lu.ku, lu.n, lu._lu
    x = b.copy()
    # Forward substitution with unit-diagonal L.
    for i in range(n):
        j_lo = max(0, i - kl)
        for j in range(j_lo, i):
            x[i] -= packed[ku + i - j, j] * x[j]
    # Backward substitution with U.
    for i in range(n - 1, -1, -1):
        j_hi = min(n - 1, i + ku)
        for j in range(i + 1, j_hi + 1):
            x[i] -= packed[ku + i - j, j] * x[j]
        x[i] /= packed[ku, i]
    return x


def random_banded_dd(n: int, kl: int, ku: int, rng) -> np.ndarray:
    """Random strictly diagonally dominant banded matrix (dense)."""
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            if i != j:
                a[i, j] = rng.uniform(-1, 1)
        a[i, i] = np.sum(np.abs(a[i])) + rng.uniform(1.0, 2.0)
    return a


# ----------------------------------------------------------------------
# Host work capacity (the inverse of Host.duration_for_work)
# ----------------------------------------------------------------------
def work_capacity(host, t0: float, t1: float) -> float:
    """Work units ``host`` can complete in ``[t0, t1]``."""
    if t1 <= t0:
        return 0.0
    total = 0.0
    t = t0
    while t < t1:
        nxt = min(host.trace.next_change(t), t1)
        total += host.effective_speed(t) * (nxt - t)
        t = nxt
    return total


# ----------------------------------------------------------------------
# Scripted availability traces
# ----------------------------------------------------------------------
class PiecewiseTrace(AvailabilityTrace):
    """Explicit breakpoints: ``levels[i]`` holds on ``[times[i], times[i+1])``.

    ``times[0]`` must be 0, and the last level holds forever.
    """

    def __init__(self, times: Sequence[float], levels: Sequence[float]) -> None:
        if len(times) != len(levels):
            raise ValueError(
                f"times and levels must have equal length, "
                f"got {len(times)} and {len(levels)}"
            )
        if len(times) == 0:
            raise ValueError("need at least one segment")
        if times[0] != 0:
            raise ValueError(f"times[0] must be 0, got {times[0]!r}")
        times_arr = np.asarray(times, dtype=float)
        if np.any(np.diff(times_arr) <= 0):
            raise ValueError("times must be strictly increasing")
        for lv in levels:
            check_in_range("level", lv, MIN_AVAILABILITY, 1.0)
        # Plain lists of Python floats, as in MarkovTrace: bisecting an
        # ndarray boxes a NumPy scalar per probe.
        self._times: list[float] = times_arr.tolist()
        self._levels: list[float] = np.asarray(levels, dtype=float).tolist()

    def value(self, t: float) -> float:
        idx = bisect.bisect_right(self._times, t) - 1
        return self._levels[max(idx, 0)]

    def next_change(self, t: float) -> float:
        idx = bisect.bisect_right(self._times, t)
        if idx >= len(self._times):
            return float("inf")
        return self._times[idx]


def mean_over(trace: AvailabilityTrace, t0: float, t1: float) -> float:
    """Time-average availability of ``trace`` over ``[t0, t1]``.

    Raises ``RuntimeError`` if ``next_change`` fails its contract by not
    advancing past ``t`` — without the guard such a trace spins this
    loop forever instead of surfacing the defect.
    """
    if t1 <= t0:
        return trace.value(t0)
    total = 0.0
    t = t0
    while t < t1:
        nxt = min(trace.next_change(t), t1)
        if nxt <= t:
            raise RuntimeError(
                f"{type(trace).__name__}.next_change({t!r}) returned "
                f"{nxt!r}, which does not advance time; "
                f"next_change must return a value strictly after t"
            )
        total += trace.value(t) * (nxt - t)
        t = nxt
    return total / (t1 - t0)


# ----------------------------------------------------------------------
# A zoo policy on a fault-free graph, every round, until level
# ----------------------------------------------------------------------
def fault_free_view(graph):
    """The :class:`~repro.balancing.zoo.ActiveView` of all of ``graph``,
    its nodes indexed in iteration order."""
    from repro.balancing.zoo import ActiveView

    index = {node: i for i, node in enumerate(graph.nodes())}
    return ActiveView.over(
        (True,) * len(index),
        tuple((index[u], index[v]) for u, v in graph.edges()),
    )


def balance(graph, load, algorithm: str, *, tol: float = 1e-9, max_rounds=100_000):
    """Apply ``algorithm``'s plan over all of ``graph`` each round until the
    load's standard deviation is within ``tol``; ``(final_load, rounds)``.

    No trigger and no faults; a policy that needs the outflow limiter
    runs under it, as in :func:`repro.balancing.run_zoo`.  The caller's
    ``load`` is not touched.
    """
    from repro.balancing.zoo import _limit_outflow, make_policy

    view = fault_free_view(graph)
    policy = make_policy(algorithm)
    current = np.array(load, dtype=float)
    for rounds in range(max_rounds):
        if float(np.std(current)) <= tol:
            return current, rounds
        transfers = policy.plan(view, current)
        if policy.needs_limiter:
            transfers = _limit_outflow(current, transfers)
        for u, v, amount in transfers:
            current[u] -= amount
            current[v] += amount
    raise AssertionError(
        f"{algorithm} did not balance within {max_rounds} rounds "
        f"(stddev={float(np.std(current)):.3e})"
    )
