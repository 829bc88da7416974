"""Regression tests for the optimised kernels (banded LU, Newton, DES).

The performance rewrite (list-based banded kernels, counter-driven
Newton bookkeeping, slots-based DES events with batched dispatch) promises one
thing above all: **no observable change**.  These tests pin that promise
down:

* property tests of the banded LU against the scipy oracle over random
  bandwidths, including the degenerate shapes ``kl = 0``, ``ku = 0``,
  ``kl != ku`` and ``n = 1``;
* bit-identity of the list kernels to the scalar reference
  (``tests/oracles.py``: ``lu_factor_scalar`` / ``solve_scalar``) at
  every band width;
* ``newton_batched_2x2``'s default options are fresh per call;
* the event queue's live-only ``len()`` and tombstone compaction;
* determinism of a full AIAC run — the event trace and solution bytes
  are identical run-to-run.
"""

import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.event import EventQueue
from repro.numerics.banded import BandedMatrix, thomas_solve
from repro.numerics.newton import newton_batched_2x2
from tests.oracles import (
    banded_from_dense,
    lu_factor_scalar,
    random_banded_dd,
    solve_scalar,
)

scipy_linalg = pytest.importorskip("scipy.linalg")


# ----------------------------------------------------------------------
# Banded LU vs scipy oracle
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    kl=st.integers(min_value=0, max_value=5),
    ku=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_lu_matches_scipy_property(n, kl, ku, seed):
    rng = np.random.default_rng(seed)
    kl = min(kl, n - 1)
    ku = min(ku, n - 1)
    a = random_banded_dd(n, kl, ku, rng)
    b = rng.normal(size=n)
    m = banded_from_dense(a, kl, ku)
    x = m.lu_factor().solve(b)
    x_ref = scipy_linalg.solve_banded((kl, ku), m.bands, b)
    assert np.allclose(x, x_ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "n,kl,ku",
    [
        (1, 0, 0),  # scalar system
        (128, 0, 5),  # upper triangular band (no elimination)
        (128, 5, 0),  # lower triangular band (no back-band)
        (257, 12, 4),  # kl != ku
        (64, 3, 9),  # kl != ku the other way
        (513, 16, 16),  # wide symmetric band
        (40, 39, 39),  # full bandwidth (band == dense)
    ],
)
def test_lu_matches_scipy_edge_shapes(n, kl, ku):
    rng = np.random.default_rng(n * 1000 + kl * 10 + ku)
    a = random_banded_dd(n, kl, ku, rng)
    b = rng.normal(size=n)
    m = banded_from_dense(a, kl, ku)
    x = m.lu_factor().solve(b)
    x_ref = scipy_linalg.solve_banded((kl, ku), m.bands, b)
    assert np.allclose(x, x_ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "n,kl,ku",
    [
        (45, 2, 2),
        (200, 1, 3),
        (30, 0, 2),
        (1, 0, 0),  # scalar system
        (2, 2, 2),  # band wider than the matrix
        (3, 2, 2),
        (40, 0, 4),  # no elimination
        (40, 5, 0),  # no back-band
        (40, 7, 0),
        (40, 1, 1),
        (40, 3, 3),
        (40, 3, 4),
        (40, 1, 6),
        (40, 6, 1),
    ],
)
def test_narrow_paths_bit_identical_to_scalar_reference(n, kl, ku):
    """Factor/solve must reproduce the seed scalar path exactly.

    The Python-list sweeps perform the same scalar operations in the
    same order as the retained closure reference — the results are
    bitwise equal, which is what keeps the sequential reference (the
    kl=ku=2 case) bit-identical to the seed.
    """
    _assert_bit_identical_to_scalar_reference(n, kl, ku)


@pytest.mark.parametrize("n,kl,ku", [(64, 16, 16), (64, 8, 8), (64, 3, 7)])
def test_wide_bands_bit_identical_to_scalar_reference(n, kl, ku):
    """A wide band runs the same sweeps: slower, not different."""
    _assert_bit_identical_to_scalar_reference(n, kl, ku)


def _assert_bit_identical_to_scalar_reference(n, kl, ku):
    rng = np.random.default_rng(7)
    a = random_banded_dd(n, kl, ku, rng)
    b = rng.normal(size=n)
    m = banded_from_dense(a, kl, ku)
    lu_new = m.lu_factor()
    lu_ref = lu_factor_scalar(m)
    np.testing.assert_array_equal(lu_new._lu, lu_ref._lu)
    np.testing.assert_array_equal(lu_new.solve(b), solve_scalar(lu_ref, b))


def test_thomas_matches_banded():
    rng = np.random.default_rng(3)
    n = 50
    a = random_banded_dd(n, 1, 1, rng)
    b = rng.normal(size=n)
    m = banded_from_dense(a, 1, 1)
    x_thomas = thomas_solve(
        np.r_[0.0, np.diag(a, -1)], np.diag(a).copy(), np.r_[np.diag(a, 1), 0.0], b
    )
    x_banded = m.lu_factor().solve(b)
    assert np.allclose(x_thomas, x_banded, rtol=1e-12, atol=1e-14)


def test_singular_pivot_raises_on_both_paths():
    bands = np.zeros((3, 6))
    bands[1, :] = 1.0
    bands[1, 3] = 0.0  # exact zero pivot mid-matrix
    m = BandedMatrix(bands, 1, 1)
    with pytest.raises(np.linalg.LinAlgError):
        m.lu_factor()
    with pytest.raises(np.linalg.LinAlgError):
        lu_factor_scalar(m)


# ----------------------------------------------------------------------
# Newton defaults
# ----------------------------------------------------------------------
def _make_quadratic_problem(n, seed):
    """Independent 2x2 systems u^2 + v - a = 0, v^2 - u - b = 0."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.0, 3.0, size=n)
    b = rng.uniform(0.5, 2.0, size=n)

    def f(u, v):
        f1 = u * u + v - a
        f2 = v * v - u - b
        return f1, f2, 2.0 * u, np.ones_like(u), -np.ones_like(u), 2.0 * v

    return f, rng.uniform(0.5, 2.0, size=n), rng.uniform(0.5, 2.0, size=n)


def test_newton_default_options_not_shared():
    """options=None constructs fresh defaults (no mutable-default alias)."""
    f, u0, v0 = _make_quadratic_problem(10, seed=2)
    r1 = newton_batched_2x2(f, u0, v0)
    r2 = newton_batched_2x2(f, u0, v0, None)
    np.testing.assert_array_equal(r1.u, r2.u)
    np.testing.assert_array_equal(r1.iterations, r2.iterations)


# ----------------------------------------------------------------------
# Event queue: live len, compaction, batched pop
# ----------------------------------------------------------------------
def test_len_counts_only_live_events():
    q = EventQueue()
    events = [q.push_call(float(i), lambda: None, ()) for i in range(10)]
    assert len(q) == 10
    for e in events[:4]:
        e.cancel()
    assert len(q) == 6  # tombstones excluded (seed counted them)
    e = q.pop()
    assert e is events[4]
    assert len(q) == 5


def test_cancel_after_pop_does_not_corrupt_len():
    q = EventQueue()
    e1 = q.push_call(1.0, lambda: None, ())
    q.push_call(2.0, lambda: None, ())
    popped = q.pop()
    assert popped is e1
    popped.cancel()  # already out of the heap: must not decrement len
    assert len(q) == 1
    assert q.pop() is not None
    assert len(q) == 0


def test_cancel_is_idempotent_for_len():
    q = EventQueue()
    e = q.push_call(1.0, lambda: None, ())
    q.push_call(2.0, lambda: None, ())
    e.cancel()
    e.cancel()
    e.cancel()
    assert len(q) == 1


def test_compaction_keeps_order_and_bounds_heap():
    q = EventQueue()
    callbacks = [lambda i=i: i for i in range(300)]
    held = weakref.WeakSet(callbacks)  # callbacks some event still holds
    events = [q.push_call(float(i), cb, ()) for i, cb in enumerate(callbacks)]
    del callbacks
    # Cancel most of them; the queue should compact itself.
    for e in events[:250]:
        e.cancel()
    # Once ours are dropped, only the queue's backing store keeps a
    # tombstone (and through it the callback) alive.
    del events, e
    assert len(held) < 100  # tombstones physically removed
    assert len(q) == 50
    times = []
    while (e := q.pop()) is not None:
        times.append(e.time)
    assert times == [float(i) for i in range(250, 300)]


# ----------------------------------------------------------------------
# End-to-end AIAC determinism
# ----------------------------------------------------------------------
def _aiac_fingerprint(profiler=None):
    """Event-trace + solution fingerprint of a small deterministic run.

    ``profiler`` is forwarded to the solver so the obs tests can assert
    that an attached :class:`~repro.obs.profile.SimProfiler` leaves the
    trace bit-identical.
    """
    from repro.core.solver import run_aiac
    from repro.workloads.scenarios import Table1Scenario

    sc = Table1Scenario(
        n_points=30, t_end=1.0, n_steps=8, tolerance=1e-3, load_dwell=50.0
    )
    plat = sc.platform()
    res = run_aiac(
        sc.problem(), plat, sc.solver_config(trace=True),
        host_order=sc.host_order(plat), profiler=profiler,
    )
    h = hashlib.sha256()
    for blk in res.solution_blocks:
        h.update(np.ascontiguousarray(blk).tobytes())
    for rec in res.tracer.iterations:
        h.update(repr(rec).encode())
    for rec in res.tracer.messages:
        h.update(repr(rec).encode())
    for rec in res.tracer.residuals:
        h.update(repr(rec).encode())
    h.update(repr((res.time, res.converged, res.iterations)).encode())
    return h.hexdigest()


def test_aiac_run_is_deterministic():
    """Same scenario, two fresh simulators: byte-identical event trace.

    This is the guard-rail for the whole performance layer — tombstone
    compaction, batched same-time dispatch and the Newton fast paths
    must be invisible in the RunResult.
    """
    assert _aiac_fingerprint() == _aiac_fingerprint()
