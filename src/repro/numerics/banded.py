"""Banded LU factorization and solves, from scratch.

Implicit Euler on a 1-D reaction–diffusion system produces Jacobians
with small bandwidth (the Brusselator in interleaved ``(u1,v1,u2,v2,…)``
ordering has ``kl = ku = 2``).  This module provides:

* :class:`BandedMatrix` — LAPACK-style band storage with conversion
  helpers,
* an LU factorization **without pivoting** (valid for the strictly
  diagonally dominant systems implicit Euler produces; singular or
  near-singular pivots raise),
* :class:`BandedLUCache` — a reuse layer so modified-Newton loops can
  keep a factorization across iterations / time steps,
* :func:`thomas_solve` — the tridiagonal specialisation.

The factor/solve kernels are hybrid: narrow bands (the kl=ku=2 hot
case) run a tuned scalar sweep on plain Python lists, where per-element
arithmetic beats NumPy's per-op dispatch overhead; wide bands run a
column-sweep vectorized elimination over pre-built strided views of the
packed band array.  ``lu_factor_scalar``/``solve_scalar`` retain the
original closure-based reference implementation as an oracle (and for
the scalar-vs-native ratio in ``benchmarks/bench_kernels.py``).

Tested against dense ``numpy.linalg.solve`` and ``scipy`` oracles.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "BandedMatrix",
    "BandedLU",
    "BandedLUCache",
    "solve_banded_system",
    "thomas_solve",
]

#: Pivots smaller than this (relative to the largest diagonal entry)
#: indicate the no-pivot factorization is untrustworthy.
_PIVOT_RTOL = 1e-12

#: Update blocks of at least this many elements (kl*ku) are eliminated
#: with the vectorized column sweep; smaller blocks use the list kernel
#: (NumPy per-op dispatch costs more than the arithmetic it replaces).
_VECTOR_MIN_BLOCK = 16


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
        Dispatches between a tuned scalar sweep (narrow bands) and a
        vectorized column sweep (wide bands); both produce the same
        packed factors as :meth:`lu_factor_scalar`.
        """
        kl, ku, n = self.kl, self.ku, self.n
        scale = float(np.max(np.abs(self.bands[ku]))) or 1.0
        if kl * ku >= _VECTOR_MIN_BLOCK:
            lu = _lu_factor_vectorized(self.bands, kl, ku, n, scale)
        else:
            lu = _lu_factor_lists(self.bands, kl, ku, n, scale)
        return BandedLU(lu, kl, ku)

    def lu_factor_scalar(self) -> "BandedLU":
        """Reference scalar factorization (the original implementation).

        Kept as the oracle the vectorized paths are tested against and
        as the baseline for the speedup ratio in ``bench_kernels.py``.
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


def _pivot_error(pivot: float, k: int) -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(
        f"near-zero pivot {pivot!r} at row {k}; "
        "banded LU without pivoting requires diagonal dominance"
    )


def _lu_factor_lists(
    bands: np.ndarray, kl: int, ku: int, n: int, scale: float
) -> np.ndarray:
    """Scalar elimination on plain Python lists (narrow-band fast path).

    Bit-identical to :meth:`BandedMatrix.lu_factor_scalar`: per pivot
    column, each multiplier is an individual division and each update a
    single fused multiply-subtract in the same order.
    """
    tiny = _PIVOT_RTOL * scale
    rows = bands.tolist()
    dr = rows[ku]
    for k in range(n - 1):
        pivot = dr[k]
        if -tiny <= pivot <= tiny:
            raise _pivot_error(pivot, k)
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
    return np.array(rows, dtype=float)


def _lu_factor_vectorized(
    bands: np.ndarray, kl: int, ku: int, n: int, scale: float
) -> np.ndarray:
    """Column-sweep elimination with pre-built strided block views.

    For pivot ``k`` the update touches the ``kl x ku`` block
    ``A[k+1:k+1+kl, k+1:k+1+ku]``; in band storage that block is a
    *sheared* view reachable with strides ``(s0, s1 - s0)`` from
    ``lu[ku, k+1]``.  All per-pivot views over the in-range "bulk"
    region are materialised once as 3-D/2-D strided arrays so the inner
    loop is two NumPy ops; the boundary tail falls back to clamped
    slices.
    """
    tiny = _PIVOT_RTOL * scale
    lu = bands.copy()
    diag = lu[ku]
    # Pivots k < bulk have their full kl x ku update block in range.
    bulk = n - 1 - max(kl, ku)
    if bulk < 0 or kl == 0 or ku == 0:
        bulk = 0
    if bulk:
        s0, s1 = lu.strides
        cols = as_strided(lu[ku + 1 :, :], shape=(bulk, kl), strides=(s1, s0))
        urows = as_strided(
            lu[ku - 1 :, 1:], shape=(bulk, ku), strides=(s1, s1 - s0)
        )
        blocks = as_strided(
            lu[ku:, 1:], shape=(bulk, kl, ku), strides=(s1, s0, s1 - s0)
        )
        for k in range(bulk):
            pivot = diag[k]
            if -tiny <= pivot <= tiny:
                raise _pivot_error(float(pivot), k)
            col = cols[k]
            col /= pivot  # multipliers, stored in place of L's column
            blocks[k] -= col[:, None] * urows[k]
    # Boundary tail (and the kl==0 / ku==0 shapes): clamped slices.
    for k in range(bulk, n - 1):
        pivot = diag[k]
        if -tiny <= pivot <= tiny:
            raise _pivot_error(float(pivot), k)
        rem = n - 1 - k
        li = kl if kl <= rem else rem
        lj = ku if ku <= rem else rem
        if li == 0:
            continue
        col = lu[ku + 1 : ku + 1 + li, k]
        col /= pivot
        for d in range(1, lj + 1):
            g = lu[ku - d, k + d]
            if g != 0.0:
                lu[ku + 1 - d : ku + 1 + li - d, k + d] -= col * g
    pivot = diag[n - 1]
    if -tiny <= pivot <= tiny:
        raise np.linalg.LinAlgError("near-zero final pivot")
    return lu


class BandedLU:
    """The packed LU factors produced by :meth:`BandedMatrix.lu_factor`."""

    def __init__(self, lu: np.ndarray, kl: int, ku: int) -> None:
        self._lu = lu
        self.kl = kl
        self.ku = ku
        self.n = lu.shape[1]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` using the stored factors.

        Narrow bands use a scalar sweep on lists (bit-identical to
        :meth:`solve_scalar`); wide bands use vectorized column sweeps.
        """
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"b must have shape ({self.n},), got {b.shape}")
        if self.kl + self.ku >= 8:
            return self._solve_colsweep(b)
        return self._solve_lists(b)

    def _solve_lists(self, b: np.ndarray) -> np.ndarray:
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

    def _solve_colsweep(self, b: np.ndarray) -> np.ndarray:
        kl, ku, n, lu = self.kl, self.ku, self.n, self._lu
        x = b.copy()
        # Forward: as each x[j] is finalised, push it into the rows below.
        for j in range(n - 1):
            lj = kl if kl <= n - 1 - j else n - 1 - j
            if lj:
                xj = x[j]
                if xj != 0.0:
                    x[j + 1 : j + 1 + lj] -= lu[ku + 1 : ku + 1 + lj, j] * xj
        # Backward: divide, then push the finalised x[j] upward.
        diag = lu[ku]
        for j in range(n - 1, -1, -1):
            xj = x[j] / diag[j]
            x[j] = xj
            uj = ku if ku <= j else j
            if uj and xj != 0.0:
                x[j - uj : j] -= lu[ku - uj : ku, j] * xj
        return x

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


class BandedLUCache:
    """Reuse a :class:`BandedLU` across Newton iterations / time steps.

    A modified-Newton (frozen-Jacobian) loop factors the iteration
    matrix once and reuses it while the step size is unchanged,
    refreshing after ``max_uses`` solves.  ``max_uses=1`` degenerates to
    factoring every iteration (exact Newton, the default everywhere).

    Usage::

        cache = BandedLUCache(max_uses=refresh)
        lu = cache.get(dt) or cache.put(dt, matrix.lu_factor())
    """

    __slots__ = ("max_uses", "hits", "misses", "_key", "_lu", "_uses")

    def __init__(self, max_uses: int | None = None) -> None:
        if max_uses is not None and max_uses < 1:
            raise ValueError(f"max_uses must be >= 1, got {max_uses}")
        self.max_uses = max_uses
        self.hits = 0
        self.misses = 0
        self._key: Hashable = None
        self._lu: BandedLU | None = None
        self._uses = 0

    def get(self, key: Hashable) -> BandedLU | None:
        """Return the cached LU for ``key``, or ``None`` if stale."""
        if (
            self._lu is None
            or key != self._key
            or (self.max_uses is not None and self._uses >= self.max_uses)
        ):
            self.misses += 1
            return None
        self.hits += 1
        self._uses += 1
        return self._lu

    def put(self, key: Hashable, lu: BandedLU) -> BandedLU:
        """Cache ``lu`` under ``key`` (counts as its first use)."""
        self._key = key
        self._lu = lu
        self._uses = 1
        return lu

    def invalidate(self) -> None:
        self._lu = None
        self._key = None
        self._uses = 0


def solve_banded_system(
    matrix: BandedMatrix, b: np.ndarray, *, backend: str = "native"
) -> np.ndarray:
    """Solve a banded system with the requested backend.

    ``backend="native"`` uses the from-scratch LU above; ``"scipy"``
    delegates to :func:`scipy.linalg.solve_banded` — an explicit oracle
    for the tests (results agree to rounding), never a default: scipy
    is a ``test`` extra, not a dependency of the package.
    """
    if backend == "native":
        return matrix.lu_factor().solve(np.asarray(b, dtype=float))
    if backend == "scipy":
        try:
            from scipy.linalg import solve_banded as _scipy_solve_banded
        except ImportError as exc:  # pragma: no cover - scipy is a test dep
            raise RuntimeError("scipy backend requested but scipy missing") from exc
        return _scipy_solve_banded((matrix.kl, matrix.ku), matrix.bands, b)
    raise ValueError(f"unknown backend {backend!r}; use 'native' or 'scipy'")


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
