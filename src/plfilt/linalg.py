"""Dense symmetric-matrix utilities: full and partial Cholesky factorizations,
plus index-vector permutations of Gaussian moments.

Permutations are deliberately kept as index vectors and applied as gathers;
building dense permutation matrices here would defeat their purpose (a
reindexing should cost next to nothing).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefiniteError

# Inputs are symmetrized when the relative asymmetry is below this bound and
# rejected otherwise.  Moment-matching arithmetic produces asymmetry at the
# roundoff level, so anything larger points at a caller bug.
SYMMETRY_RTOL = 1e-10


def _check_symmetric(block: np.ndarray, mirror: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``block`` and ``mirror`` (the transpose of
    the block on the other side of the diagonal) are finite and agree within
    the symmetry tolerance."""
    scale = float(np.abs(block).max(initial=0.0))
    if not math.isfinite(scale):  # before inf - inf can warn below
        raise ValueError("matrix contains non-finite values")
    scale = max(scale, 1.0)
    asym = float(np.abs(block - mirror).max(initial=0.0))
    if not asym <= SYMMETRY_RTOL * scale:  # NaN fails this test too
        if not np.isfinite(mirror).all():
            raise ValueError("matrix contains non-finite values")
        raise ValueError(
            f"matrix is asymmetric beyond tolerance ({asym:.3e} > {SYMMETRY_RTOL:.0e} * {scale:.3e})"
        )


def _as_symmetric(p: np.ndarray) -> np.ndarray:
    """Validate shape/symmetry of ``p`` and return its symmetrized copy."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {p.shape}")
    _check_symmetric(p, p.T)
    return 0.5 * (p + p.T)


def cholesky_full(p: np.ndarray) -> np.ndarray:
    """Lower-triangular factor ``L`` with ``L @ L.T == p``.

    Raises :class:`NotPositiveDefiniteError` (with the failing pivot index)
    when ``p`` is not positive definite, and ``ValueError`` when ``p`` is
    asymmetric beyond tolerance or has a non-finite entry.
    """
    p = _as_symmetric(p)
    c, info = lapack.dpotrf(p, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(pivot=info - 1)
    if info < 0:
        raise ValueError(f"illegal value in Cholesky input (argument {-info})")
    return c


@dataclass(frozen=True)
class PartialCholesky:
    """First ``z_dim`` columns of a lower-triangular Cholesky factor.

    The (X, Z) block is stored once; ``lnn`` views its rows ``0..z_dim`` (a
    lower-triangular Z-by-Z block) and ``lln`` the remaining rows.
    """

    z_dim: int
    _cols: np.ndarray

    @property
    def lnn(self) -> np.ndarray:
        return self._cols[: self.z_dim]

    @property
    def lln(self) -> np.ndarray:
        return self._cols[self.z_dim :]

    def column_block(self) -> np.ndarray:
        """The stacked (X, Z) block ``[lnn; lln]``."""
        return self._cols


def cholesky_partial(p: np.ndarray, z: int) -> PartialCholesky:
    """Column-wise Cholesky-Crout factorization stopped after ``z`` columns.

    Produces exactly the first ``z`` columns of :func:`cholesky_full` in
    O(X * z^2) work.  Only the leading ``z`` columns (and their row
    counterparts, for the symmetry and finiteness check) are ever read, so
    both the cost and the error reporting are confined to the leading block:
    an indefiniteness beyond the first ``z`` pivots, or a non-finite entry in
    the trailing block, goes undetected by design.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {p.shape}")
    x = p.shape[0]
    z = int(z)
    if not 1 <= z <= x:
        raise ValueError(f"z must be in 1..{x}, got {z}")
    strip = p[:, :z]
    rows_t = p[:z, :].T
    _check_symmetric(strip, rows_t)
    work = 0.5 * (strip + rows_t)  # matches what cholesky_full factors
    l = np.zeros((x, z))
    for j in range(z):
        lj = l[j, :j]
        d = work[j, j] - lj @ lj if j else work[0, 0]
        if not d > 0.0:
            raise NotPositiveDefiniteError(pivot=j)
        ljj = math.sqrt(d)
        l[j, j] = ljj
        if j:
            l[j + 1 :, j] = (work[j + 1 :, j] - l[j + 1 :, :j] @ lj) / ljj
        else:
            l[1:, 0] = work[1:, 0] / ljj
    return PartialCholesky(z_dim=z, _cols=l)


@dataclass(frozen=True)
class Permutation:
    """A bijection on ``{0..n-1}`` stored as a gather index vector.

    Applying the permutation to a vector ``x`` yields ``x[indices]``.
    """

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp).copy()
        if idx.ndim != 1:
            raise ValueError("permutation indices must be one-dimensional")
        n = idx.size
        seen = np.zeros(n, dtype=bool)
        if n and (idx.min() < 0 or idx.max() >= n):
            raise ValueError("permutation indices out of range")
        seen[idx] = True
        if not seen.all():
            raise ValueError("indices do not form a permutation")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=np.intp))

    @property
    def size(self) -> int:
        return self.indices.size

    @cached_property
    def inverse(self) -> "Permutation":
        """The inverse permutation, built and validated on first use."""
        inv = np.empty(self.indices.size, dtype=np.intp)
        inv[self.indices] = np.arange(self.indices.size, dtype=np.intp)
        return Permutation(inv)


def permute_moments(perm: Permutation, m: np.ndarray, p: np.ndarray):
    """Reorder a mean vector and covariance by ``perm`` (rows and columns)."""
    m = np.asarray(m, dtype=float)
    p = np.asarray(p, dtype=float)
    idx = perm.indices
    if m.shape != (idx.size,) or p.shape != (idx.size, idx.size):
        raise ValueError(
            f"moment shapes {m.shape}/{p.shape} do not match permutation of size {idx.size}"
        )
    return m[idx], p[idx][:, idx]
