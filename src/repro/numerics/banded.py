"""Banded LU factorization and solves, from scratch.

Implicit Euler on a 1-D reaction–diffusion system produces Jacobians
with small bandwidth (the Brusselator in interleaved ``(u1,v1,u2,v2,…)``
ordering has ``kl = ku = 2``, the only band the product factors).  This
module provides:

* :class:`BandedMatrix` — LAPACK-style band storage,
* an LU factorization **without pivoting** (valid for the strictly
  diagonally dominant systems implicit Euler produces; singular or
  near-singular pivots raise),
* :func:`thomas_solve` — the tridiagonal specialisation.

Factor and solve are scalar sweeps on plain Python lists at every band
width: at ``kl = ku = 2`` per-element arithmetic beats NumPy's per-op
dispatch overhead, and a wider band is merely slower.  The tests hold
the sweeps bitwise equal to a closure-based reference and convert dense
matrices with helpers of their own (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BandedMatrix", "BandedLU", "thomas_solve"]

#: Pivots smaller than this (relative to the largest diagonal entry)
#: indicate the no-pivot factorization is untrustworthy.
_PIVOT_RTOL = 1e-12


class BandedMatrix:
    """A square banded matrix in band storage.

    Storage layout (LAPACK ``gbsv``-like): ``bands[ku + i - j, j] ==
    A[i, j]`` for ``max(0, j-ku) <= i <= min(n-1, j+kl)``; row 0 of
    ``bands`` is the highest super-diagonal, row ``ku`` the main
    diagonal, row ``ku+kl`` the lowest sub-diagonal.

    Parameters
    ----------
    bands:
        Array of shape ``(kl + ku + 1, n)``.
    kl, ku:
        Numbers of sub- and super-diagonals.
    """

    def __init__(self, bands: np.ndarray, kl: int, ku: int) -> None:
        bands = np.asarray(bands, dtype=float)
        if bands.ndim != 2:
            raise ValueError(f"bands must be 2-D, got shape {bands.shape}")
        if kl < 0 or ku < 0:
            raise ValueError(f"kl and ku must be >= 0, got kl={kl}, ku={ku}")
        if bands.shape[0] != kl + ku + 1:
            raise ValueError(
                f"bands must have kl+ku+1={kl + ku + 1} rows, got {bands.shape[0]}"
            )
        self.bands = bands
        self.kl = kl
        self.ku = ku
        self.n = bands.shape[1]

    # ------------------------------------------------------------------
    # Factorization (no pivoting)
    # ------------------------------------------------------------------
    def lu_factor(self) -> "BandedLU":
        """LU factorization without pivoting.

        Valid for diagonally dominant matrices; raises
        :class:`numpy.linalg.LinAlgError` on a (near-)zero pivot.
        Scalar elimination on plain Python lists: per pivot column, each
        multiplier is an individual division and each update a single
        multiply-subtract, in the order of the closure-based reference.
        """
        kl, ku, n = self.kl, self.ku, self.n
        tiny = _PIVOT_RTOL * (float(np.max(np.abs(self.bands[ku]))) or 1.0)
        rows = self.bands.tolist()
        dr = rows[ku]
        for k in range(n - 1):
            pivot = dr[k]
            if -tiny <= pivot <= tiny:
                raise np.linalg.LinAlgError(
                    f"near-zero pivot {pivot!r} at row {k}; "
                    "banded LU without pivoting requires diagonal dominance"
                )
            rem = n - 1 - k
            li = kl if kl <= rem else rem
            lj = ku if ku <= rem else rem
            if li == 0:
                continue
            factors = []
            for di in range(1, li + 1):
                row = rows[ku + di]
                fac = row[k] / pivot
                row[k] = fac  # store L below the diagonal
                factors.append(fac)
            for dj in range(1, lj + 1):
                g = rows[ku - dj][k + dj]
                if g != 0.0:
                    col = k + dj
                    for di in range(1, li + 1):
                        rows[ku + di - dj][col] -= factors[di - 1] * g
        pivot = dr[n - 1]
        if -tiny <= pivot <= tiny:
            raise np.linalg.LinAlgError("near-zero final pivot")
        return BandedLU(np.array(rows, dtype=float), kl, ku)


class BandedLU:
    """The packed LU factors produced by :meth:`BandedMatrix.lu_factor`."""

    def __init__(self, lu: np.ndarray, kl: int, ku: int) -> None:
        self._lu = lu
        self.kl = kl
        self.ku = ku
        self.n = lu.shape[1]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` using the stored factors.

        A scalar sweep on lists, bit-identical to element-wise
        substitution on the packed array (the tests' reference).
        """
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"b must have shape ({self.n},), got {b.shape}")
        kl, ku, n = self.kl, self.ku, self.n
        rows = self._lu.tolist()
        dr = rows[ku]
        x = b.tolist()
        # Forward substitution with unit-diagonal L.
        for i in range(n):
            j_lo = i - kl if i > kl else 0
            s = x[i]
            for j in range(j_lo, i):
                s -= rows[ku + i - j][j] * x[j]
            x[i] = s
        # Backward substitution with U.
        for i in range(n - 1, -1, -1):
            j_hi = i + ku if i + ku < n else n - 1
            s = x[i]
            for j in range(i + 1, j_hi + 1):
                s -= rows[ku + i - j][j] * x[j]
            x[i] = s / dr[i]
        return np.array(x, dtype=float)


def thomas_solve(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Tridiagonal solve (Thomas algorithm) without pivoting.

    ``lower[i]`` multiplies ``x[i-1]`` in row ``i`` (``lower[0]``
    ignored); ``upper[i]`` multiplies ``x[i+1]`` (``upper[-1]`` ignored).
    Requires diagonal dominance.  The recurrence is inherently serial,
    so it runs on plain Python floats (same arithmetic, same order —
    results are bit-identical to the original NumPy-indexed loop).
    """
    diag = np.asarray(diag, dtype=float)
    n = diag.shape[0]
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (lower.shape == upper.shape == b.shape == (n,)):
        raise ValueError("all inputs must be 1-D arrays of equal length")
    scale = float(np.max(np.abs(diag))) or 1.0
    tiny = _PIVOT_RTOL * scale
    lo = lower.tolist()
    di = diag.tolist()
    up = upper.tolist()
    rhs = b.tolist()
    if -tiny <= di[0] <= tiny:
        raise np.linalg.LinAlgError("near-zero pivot at row 0")
    c_prime = [0.0] * n
    d_prime = [0.0] * n
    c_prime[0] = up[0] / di[0]
    d_prime[0] = rhs[0] / di[0]
    for i in range(1, n):
        denom = di[i] - lo[i] * c_prime[i - 1]
        if -tiny <= denom <= tiny:
            raise np.linalg.LinAlgError(f"near-zero pivot at row {i}")
        c_prime[i] = up[i] / denom
        d_prime[i] = (rhs[i] - lo[i] * d_prime[i - 1]) / denom
    x = [0.0] * n
    x[-1] = d_prime[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d_prime[i] - c_prime[i] * x[i + 1]
    return np.array(x, dtype=float)
