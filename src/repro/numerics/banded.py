"""Banded LU factorization and solves, from scratch.

Implicit Euler on a 1-D reaction–diffusion system produces Jacobians
with small bandwidth (the Brusselator in interleaved ``(u1,v1,u2,v2,…)``
ordering has ``kl = ku = 2``, the only band the product factors).  This
module provides:

* :class:`BandedMatrix` — LAPACK-style band storage with conversion
  helpers,
* an LU factorization **without pivoting** (valid for the strictly
  diagonally dominant systems implicit Euler produces; singular or
  near-singular pivots raise),
* :func:`thomas_solve` — the tridiagonal specialisation.

Factor and solve are scalar sweeps on plain Python lists at every band
width: at ``kl = ku = 2`` per-element arithmetic beats NumPy's per-op
dispatch overhead, and a wider band is merely slower.
``lu_factor_scalar`` / ``solve_scalar`` are the closure-based reference
the tests hold the sweeps bitwise equal to (and the baseline of the
scalar-vs-native ratio in ``benchmarks/bench_kernels.py``).
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
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, a: np.ndarray, kl: int, ku: int) -> "BandedMatrix":
        """Extract the bands of a dense square matrix.

        Raises if ``a`` has nonzero entries outside the declared band.
        """
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
        return cls(bands, kl, ku)

    def to_dense(self) -> np.ndarray:
        """Expand to a dense matrix (testing / small systems only)."""
        a = np.zeros((self.n, self.n))
        for offset in range(-self.kl, self.ku + 1):
            row = self.ku - offset
            length = self.n - abs(offset)
            if length <= 0:
                continue
            vals = (
                self.bands[row, offset : offset + length]
                if offset >= 0
                else self.bands[row, :length]
            )
            idx = np.arange(length)
            if offset >= 0:
                a[idx, idx + offset] = vals
            else:
                a[idx - offset, idx] = vals
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Banded matrix-vector product (one vectorized op per diagonal)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x must have shape ({self.n},), got {x.shape}")
        y = np.zeros(self.n)
        bands, kl, ku, n = self.bands, self.kl, self.ku, self.n
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

    # ------------------------------------------------------------------
    # Factorization (no pivoting)
    # ------------------------------------------------------------------
    def lu_factor(self) -> "BandedLU":
        """LU factorization without pivoting.

        Valid for diagonally dominant matrices; raises
        :class:`numpy.linalg.LinAlgError` on a (near-)zero pivot.
        Scalar elimination on plain Python lists, bit-identical to
        :meth:`lu_factor_scalar`: per pivot column, each multiplier is
        an individual division and each update a single multiply-
        subtract in the same order.
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

    def lu_factor_scalar(self) -> "BandedLU":
        """Reference scalar factorization (the original implementation).

        Kept as the oracle :meth:`lu_factor` is tested against and as
        the baseline for the speedup ratio in ``bench_kernels.py``.
        """
        kl, ku, n = self.kl, self.ku, self.n
        # Work on a dense-band copy indexed [i, j] via band row ku+i-j.
        lu = self.bands.copy()
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


class BandedLU:
    """The packed LU factors produced by :meth:`BandedMatrix.lu_factor`."""

    def __init__(self, lu: np.ndarray, kl: int, ku: int) -> None:
        self._lu = lu
        self.kl = kl
        self.ku = ku
        self.n = lu.shape[1]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` using the stored factors.

        A scalar sweep on lists, bit-identical to :meth:`solve_scalar`.
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

    def solve_scalar(self, b: np.ndarray) -> np.ndarray:
        """Reference scalar solve (the original implementation)."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"b must have shape ({self.n},), got {b.shape}")
        kl, ku, n, lu = self.kl, self.ku, self.n, self._lu
        x = b.copy()
        # Forward substitution with unit-diagonal L.
        for i in range(n):
            j_lo = max(0, i - kl)
            for j in range(j_lo, i):
                x[i] -= lu[ku + i - j, j] * x[j]
        # Backward substitution with U.
        for i in range(n - 1, -1, -1):
            j_hi = min(n - 1, i + ku)
            for j in range(i + 1, j_hi + 1):
                x[i] -= lu[ku + i - j, j] * x[j]
            x[i] /= lu[ku, i]
        return x


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
