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
  is the product's loop);
* :func:`lockstep_round` — one SISC round of the lockstep replay in
  NumPy, the reference of ``_sweeps.c``'s ``lockstep_round`` (the
  loader's probe holds the compiled round to digests of its traces);
* :func:`payload_checksum` — the node-by-node structural walk that
  :func:`repro.integrity.payload_checksum` encodes with tabled key
  orders and array heads, here with no table.
"""

from __future__ import annotations

import bisect
import struct
import zlib
from typing import Any, Callable, Sequence

import numpy as np

# At module level only what the lockstep replay loads anyway: a process
# that stands this module's round in for the compiled one keeps the
# replay's module count (``test_import_hygiene.py``).
from repro.grid.traces import MIN_AVAILABILITY, AvailabilityTrace
from repro.models.lockstep import (
    ARR, BUSY, IDLE, ITERS, LAST, ORDER_ARR, ORDER_END, POS0, RESIDUAL, STREAK,
    T_MID, T_SE, _ends, _stop_scan,
)
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
    from repro.numerics.banded import BandedMatrix

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
    from repro.numerics.banded import _PIVOT_RTOL, BandedLU

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


# ----------------------------------------------------------------------
# The lockstep round in NumPy
# ----------------------------------------------------------------------
#: The round's buffer arguments, by name, as its errors give them.
ROUND_BUFFERS = ("state", "platform", "work", "residual", "out")


def lockstep_round(state, platform, work, residual, out, T, k, *run):
    """One round of ``n = len(work)`` ranks opening at ``T`` after ``k``
    rounds: ``(T_next, events)``, the round booked in ``state``, or None,
    ``state`` untouched, when the run ends inside it (a stop, or a
    barrier past the horizon).

    Rows (C-contiguous float64, else this raises before a write):
    ``state`` ``POS0`` (round-start scheduling order), ``STREAK``,
    ``BUSY``, ``IDLE``, ``ITERS``, ``RESIDUAL`` and from ``LAST`` the
    FIFO clamps r -> r-1, r -> r+1; ``platform`` the rates and the raw
    transfer times of those sends (-inf where no channel); ``out`` gets
    ``T_MID``, ``T_SE``, from ``ARR`` the clamped arrivals, ``ORDER_END``
    and, booked, ``ORDER_ARR``.  ``run``: ``(split, eps, min_sweep, tol,
    persistence, max_iterations, horizon)``, the horizon NaN for none.
    """
    split, eps, min_sweep, tol, persistence, max_iterations, horizon = run
    arrays = (state, platform, work, residual, out)
    sizes = []
    for name, array, writable in zip(ROUND_BUFFERS, arrays, (1, 0, 0, 0, 1)):
        view = memoryview(array)
        if not view.c_contiguous or (writable and view.readonly):
            raise ValueError(f"{name} must be a C-contiguous buffer")
        if view.format != "d":
            raise TypeError(f"{name} must be float64, got format {view.format!r}")
        sizes.append(view.nbytes // 8)
    n = sizes[2]
    if n < 1 or sizes != [8 * n, 3 * n, n, n, 6 * n]:
        raise ValueError("lockstep_round(): buffer lengths do not match the rank count")
    state, platform, work, residual, out = map(np.asarray, arrays)
    state, platform = state.reshape(8, n), platform.reshape(3, n)
    out = out.reshape(6, n)
    work, residual = work.reshape(n), residual.reshape(n)
    pos0, streak = state[POS0], state[STREAK]
    t_mid, t_se, arr = out[T_MID], out[T_SE], out[ARR:ORDER_END]
    t_mid[:], t_se[:] = _ends(T, work, platform[0], min_sweep, split)
    # The reference scheduler dispatches by (time, push sequence), and a
    # round's push tree is fixed: the mids are pushed as the round opens,
    # in pos0 order; each end by its own mid; each delivery by its
    # sender's end (the left send first); each wait-resume by the
    # delivery that triggered it.  So two events at one instant dispatch
    # in their parents' dispatch order, and a mid precedes anything
    # pushed inside the round.  Mids: (t_mid, pos0); ends: (t_se, their
    # mid's position).
    ranks = np.arange(n)
    pos = np.empty(n)
    pos[np.lexsort((pos0, t_mid))] = ranks
    order_end = np.lexsort((pos, t_se))
    out[ORDER_END] = order_end
    # Raw arrival times of this round's 2(n-1) halo sends, FIFO-clamped
    # against the previous round's.
    arr[:] = np.maximum(t_se + platform[1:], state[LAST:] + eps)
    stop, _, _, streak_new = _stop_scan(
        k, streak, residual, order_end, tol, persistence, max_iterations
    )
    if stop is not None and (horizon != horizon or t_se[order_end[stop]] <= horizon):
        return None
    # Inbound halos per receiver (r-1's send right, r+1's send left; the
    # chain's ends get a -inf slot, never late), and "late" = the
    # delivery dispatches after the receiver's end event (the receiver
    # must block for it).  On an exact arrival/end tie the two parents
    # decide: the sender's end and the receiver's mid.  The sender's end
    # dispatches first iff it is earlier in time (at one instant the mid,
    # pushed as the round opened, goes first).  Hence: late iff
    # t_se[s] >= t_mid[r].
    left, right = np.maximum(ranks - 1, 0), np.minimum(ranks + 1, n - 1)
    after = (ranks + 1) % n
    in_l, in_r = arr[1, ranks - 1], arr[0, after]
    late_l = (in_l > t_se) | ((in_l == t_se) & (t_se[left] >= t_mid))
    late_r = (in_r > t_se) | ((in_r == t_se) & (t_se[right] >= t_mid))
    A = np.maximum(np.where(late_l, in_l, t_se), np.where(late_r, in_r, t_se))
    T_next = float(A.max())
    if T_next > horizon:
        # ``max_time`` is a pure time cutoff: the barrier never opens.
        return None
    # Barrier arrival order (= dispatch order of each rank's arrival
    # event: its own end, or its final wait-resume).  One stable
    # ``np.lexsort`` on three columns:
    #
    #   no late halo:  (t_se, t_mid, pos0)    the end, as ordered above
    #                                         (A == t_se here);
    #   late halo:     (A,    A,     n + end_pos[s*])
    #                                         the resume at A, pushed by
    #                                         the delivery from s*.
    #
    # ``end_pos`` is each end's dispatch position, so same-instant
    # deliveries, and the resumes they push, follow their senders'
    # ends.  An end and a resume at one instant: the end's mid is no
    # later than the delivery and, at the same time, was pushed as the
    # round opened, so the end goes first — column 2, then column 3
    # (pos0 < n).  Two rows left tied have one sender s: they are s-1
    # and s+1, served by its left send then its right send, so the
    # stable sort's rank order is push order.  With both halos late the
    # governing delivery is the later one — or, at the same instant,
    # the one dispatched first: it pushes the single resume, which
    # dispatches after both halos are in.
    pos[order_end] = ranks
    e_l, e_r = pos[left], pos[right]
    same, both = in_l == in_r, late_l & late_r
    use_l = np.where(both, np.where(same, e_l < e_r, in_l > in_r), late_l)
    has_late = late_l | late_r
    key2 = np.where(has_late, np.where(use_l, e_l, e_r) + n, pos0)
    order_arr = np.lexsort((key2, np.where(has_late, A, t_mid), A))
    out[ORDER_ARR] = order_arr
    # n mids + n ends + 2(n-1) deliveries + (n-1) barrier resumes, and
    # one resume per late delivery, except that two late ones arriving
    # at the same instant trigger a single resume.
    events = 5 * n - 3 + int(late_l.sum() + late_r.sum() - (both & same).sum())
    # The tracer accumulates ``busy + t1 - t0`` left to right.
    state[BUSY] += t_se
    state[BUSY] -= T
    state[ITERS] += 1
    state[RESIDUAL] = residual
    state[LAST:] = arr
    streak[:] = streak_new
    state[IDLE] = np.where(T_next > t_se, (state[IDLE] + T_next) - t_se, state[IDLE])
    # Next round: the releaser restarts inline, the waiters resume in
    # arrival order — that is the push order of the next round's mids.
    pos0[order_arr] = after
    return T_next, events


# ----------------------------------------------------------------------
# The structural checksum, node by node
# ----------------------------------------------------------------------
_pack_double = struct.Struct("<d").pack


def _walk(emit: Callable[[bytes], None], obj: Any) -> None:
    """Serialise ``obj``'s structure through ``emit``, one node per call:
    every dict sorted afresh, every key, value and array head encoded
    afresh."""
    cls = type(obj)
    if cls is float:
        emit(b"f" + _pack_double(obj))
    elif cls is int:
        emit(b"i%d" % obj)
    elif cls is np.ndarray:
        emit(b"a%b#%b@" % (str(obj.dtype).encode(), repr(obj.shape).encode()))
        emit(obj.tobytes())
    elif cls is dict:
        emit(b"d%d" % len(obj))
        for key in sorted(obj):
            _walk(emit, key)
            _walk(emit, obj[key])
    elif obj is None:
        emit(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        emit(b"b\x01" if obj else b"b\x00")
    elif isinstance(obj, (int, np.integer)):
        _walk(emit, int(obj))
    elif isinstance(obj, (float, np.floating)):
        _walk(emit, float(obj))
    elif isinstance(obj, str):
        emit(b"s" + obj.encode())
    elif isinstance(obj, bytes):
        emit(b"y" + obj)
    elif isinstance(obj, np.ndarray):
        _walk(emit, obj.view(np.ndarray))
    elif isinstance(obj, dict):
        _walk(emit, dict(obj))
    elif isinstance(obj, (list, tuple)):
        emit(b"l%d" % len(obj))
        for item in obj:
            _walk(emit, item)
    else:
        raise TypeError(f"payload_checksum cannot fingerprint {cls.__name__!r}")


def payload_checksum(payload: Any) -> int:
    """CRC32 of ``payload``'s node-by-node encoding."""
    parts: list[bytes] = []
    _walk(parts.append, payload)
    return zlib.crc32(b"".join(parts))
