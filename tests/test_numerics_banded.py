"""Tests for the from-scratch banded LU against dense and scipy oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.banded import BandedMatrix, thomas_solve
from tests.oracles import (
    banded_from_dense,
    banded_matvec,
    banded_to_dense,
    random_banded_dd,
)


def test_from_dense_roundtrip():
    rng = np.random.default_rng(0)
    a = random_banded_dd(7, 2, 1, rng)
    m = banded_from_dense(a, 2, 1)
    assert np.allclose(banded_to_dense(m), a)


def test_from_dense_rejects_out_of_band():
    a = np.eye(5)
    a[0, 4] = 1.0
    with pytest.raises(ValueError, match="outside"):
        banded_from_dense(a, 1, 1)


def test_bands_shape_validation():
    with pytest.raises(ValueError, match="rows"):
        BandedMatrix(np.zeros((2, 5)), kl=1, ku=1)
    with pytest.raises(ValueError):
        BandedMatrix(np.zeros((3, 5)), kl=-1, ku=3)


def test_matvec_matches_dense():
    rng = np.random.default_rng(1)
    a = random_banded_dd(9, 1, 2, rng)
    m = banded_from_dense(a, 1, 2)
    x = rng.standard_normal(9)
    assert np.allclose(banded_matvec(m, x), a @ x)


@pytest.mark.parametrize("n,kl,ku", [(1, 0, 0), (5, 1, 1), (8, 2, 2), (12, 3, 1)])
def test_lu_solve_matches_dense(n, kl, ku):
    rng = np.random.default_rng(n * 100 + kl * 10 + ku)
    a = random_banded_dd(n, kl, ku, rng)
    b = rng.standard_normal(n)
    m = banded_from_dense(a, kl, ku)
    x = m.lu_factor().solve(b)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)


def test_lu_factor_reusable_for_multiple_rhs():
    rng = np.random.default_rng(3)
    a = random_banded_dd(6, 1, 1, rng)
    m = banded_from_dense(a, 1, 1)
    lu = m.lu_factor()
    for _ in range(3):
        b = rng.standard_normal(6)
        assert np.allclose(lu.solve(b), np.linalg.solve(a, b), atol=1e-10)


def test_singular_matrix_raises():
    a = np.zeros((3, 3))
    m = banded_from_dense(a, 0, 0)
    with pytest.raises(np.linalg.LinAlgError):
        m.lu_factor()


def test_scipy_backend_agrees_with_native():
    solve_banded = pytest.importorskip("scipy.linalg").solve_banded
    rng = np.random.default_rng(4)
    a = random_banded_dd(10, 2, 2, rng)
    b = rng.standard_normal(10)
    m = banded_from_dense(a, 2, 2)
    x_native = m.lu_factor().solve(b)
    x_scipy = solve_banded((2, 2), m.bands, b)
    assert np.allclose(x_native, x_scipy, atol=1e-10)


def test_thomas_matches_dense():
    rng = np.random.default_rng(5)
    n = 11
    lower = rng.uniform(-1, 1, n)
    upper = rng.uniform(-1, 1, n)
    diag = np.abs(lower) + np.abs(upper) + rng.uniform(1, 2, n)
    lower[0] = 0.0
    upper[-1] = 0.0
    b = rng.standard_normal(n)
    a = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    assert np.allclose(thomas_solve(lower, diag, upper, b), np.linalg.solve(a, b))


def test_thomas_validates_shapes():
    with pytest.raises(ValueError):
        thomas_solve(np.zeros(3), np.ones(3), np.zeros(2), np.zeros(3))


def test_thomas_singular_raises():
    with pytest.raises(np.linalg.LinAlgError):
        thomas_solve(np.zeros(3), np.zeros(3), np.zeros(3), np.ones(3))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 20),
    kl=st.integers(0, 3),
    ku=st.integers(0, 3),
    seed=st.integers(0, 1000),
)
def test_property_banded_solve_residual_small(n, kl, ku, seed):
    rng = np.random.default_rng(seed)
    kl, ku = min(kl, n - 1), min(ku, n - 1)
    a = random_banded_dd(n, kl, ku, rng)
    b = rng.standard_normal(n)
    m = banded_from_dense(a, kl, ku)
    x = m.lu_factor().solve(b)
    assert np.max(np.abs(a @ x - b)) < 1e-8 * max(1.0, np.max(np.abs(b)))
