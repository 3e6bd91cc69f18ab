"""Dense symmetric-matrix utilities: full and partial Cholesky factors from
LAPACK, the lower-to-upper triangle mirror, the reordering of Gaussian
moments by a gather order, the cheapest form of a product with a constant
matrix, and the weighted symmetric product ``D diag(w) Dᵀ`` as a rank-k
update.

A matrix handed to a factorization is checked (finite, and symmetric within
:data:`SYMMETRY_RTOL`), then its lower triangle is factored as given: no
symmetrized copy is built.  The filters build every covariance exactly
symmetric, so the triangle read is the whole matrix, and the check takes a
fast path on such input: one ``(a == b).all()`` of the two triangles and one
finiteness test (which :func:`cholesky_full` reads off the factor's trace),
with no float temporaries.  Only other input pays for the tolerance
arithmetic, which accepts or refuses it as it would without the fast path.

A reordering is a plain integer index array applied as a gather; a dense
permutation matrix would turn a reindexing that should cost next to nothing
into a product.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefiniteError

# Inputs whose relative asymmetry is below this bound are accepted (their
# lower triangle is factored) and rejected otherwise.  Moment-matching
# arithmetic produces asymmetry at the roundoff level, so anything larger
# points at a caller bug.
SYMMETRY_RTOL = 1e-10


def _check_symmetric(block: np.ndarray, mirror: np.ndarray, check_finite: bool = True) -> bool:
    """Raise ``ValueError`` unless ``block`` and ``mirror`` (the transpose of
    the block on the other side of the diagonal) are finite and agree within
    the symmetry tolerance; return whether they are exactly equal.

    Exactly equal triangles (of one shape) that are finite pass after one
    comparison and one finiteness pass; a caller that reads finiteness
    elsewhere skips the latter with ``check_finite=False``.  A NaN never
    compares equal, so only an infinity can pass the comparison.  Anything
    else is measured against the tolerance.
    """
    if (block == mirror).all():
        if not check_finite or np.isfinite(block).all():
            return True
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
    return False


def _check_square(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {p.shape}")
    return p


_LOWER_MASKS: dict[int, np.ndarray] = {}


def mirror_lower(b: np.ndarray) -> np.ndarray:
    """A new, exactly symmetric matrix: the lower triangle of the square
    ``b`` mirrored onto the upper one.  The transpose is copied whole and
    the lower triangle written over it through a cached mask, which runs
    faster than ``np.where`` on the same mask."""
    n = b.shape[0]
    mask = _LOWER_MASKS.get(n)
    if mask is None:
        mask = _LOWER_MASKS[n] = np.tri(n, dtype=bool)
    out = b.T.copy()
    np.copyto(out, b, where=mask)
    return out


def cholesky_full(p: np.ndarray) -> np.ndarray:
    """Lower-triangular factor ``L`` with ``L @ L.T == p``.

    ``p`` is checked, then ``dpotrf`` factors its lower triangle as given;
    ``p`` itself is never written.  Raises :class:`NotPositiveDefiniteError`
    (with the failing pivot index) when ``p`` is not positive definite, and
    ``ValueError`` when ``p`` is asymmetric beyond tolerance or has a
    non-finite entry.

    An exactly symmetric ``p`` costs one comparison before ``dpotrf``, and
    its finiteness is read off the factor's trace (a sum of square roots of
    doubles, which cannot overflow): an infinity in the lower triangle
    either stops ``dpotrf`` or leaves a non-finite diagonal, and only then
    is ``p`` scanned, so a non-finite entry is reported as such and not as
    an indefinite pivot.
    """
    p = _check_square(p)
    # one copy serves both steps: read row by row it is pᵀ, so the check
    # compares contiguous arrays, and read column by column it is p in the
    # Fortran order dpotrf factors in place
    work = p.T.copy()
    _check_symmetric(p, work, check_finite=False)
    c, info = lapack.dpotrf(work.T, lower=1, clean=1, overwrite_a=1)
    if (info > 0 or not math.isfinite(c.trace())) and not np.isfinite(p).all():
        raise ValueError("matrix contains non-finite values")
    if info > 0:
        raise NotPositiveDefiniteError(pivot=info - 1)
    if info < 0:
        raise ValueError(f"illegal value in Cholesky input (argument {-info})")
    return c


@dataclass(frozen=True)
class PartialCholesky:
    """First Z columns of a lower-triangular Cholesky factor, stored as one
    (X, Z) block whose leading Z rows are lower triangular."""

    _cols: np.ndarray

    def column_block(self) -> np.ndarray:
        """The (X, Z) block: the factor's leading Z columns."""
        return self._cols


def cholesky_partial(p: np.ndarray, z: int) -> PartialCholesky:
    """The first ``z`` columns of :func:`cholesky_full`, from blocked LAPACK.

    ``dpotrf`` factors the leading ``z``-by-``z`` block as ``L11``, ``dtrtri``
    inverts it, and one product gives the trailing rows
    ``L21 = P21 L11^-T``: O(X * z^2) work.  Only the leading ``z`` columns
    (and their row counterparts, for the symmetry and finiteness check) are
    ever read, so both the cost and the error reporting are confined to the
    leading block: an indefiniteness beyond the first ``z`` pivots, or a
    non-finite entry in the trailing block, goes undetected by design.  As
    in :func:`cholesky_full`, the checked strip's lower triangle is factored
    as given, so both functions factor the same triangle, and an exactly
    symmetric strip costs one comparison.  Its finiteness is tested
    explicitly, since the strip's trailing rows never reach ``dpotrf``.
    The product writes ``L21`` under ``L11`` in the one returned array.
    """
    p = _check_square(p)
    x = p.shape[0]
    z = int(z)
    if not 1 <= z <= x:
        raise ValueError(f"z must be in 1..{x}, got {z}")
    strip = p[:, :z]
    _check_symmetric(strip, p[:z, :].T)
    l11, info = lapack.dpotrf(strip[:z], lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(pivot=info - 1)
    l11_inv, _ = lapack.dtrtri(l11, lower=1)  # positive diagonal: never singular
    cols = np.empty((x, z))
    cols[:z] = l11
    np.matmul(strip[z:], l11_inv.T, out=cols[z:])
    return PartialCholesky(_cols=cols)


def permute_moments(idx: np.ndarray, m: np.ndarray, p: np.ndarray):
    """``m[idx]`` and ``p[idx][:, idx]`` for a gather order ``idx``, which
    its owner has checked (see :class:`~plfilt.filters.EstimationModel`)."""
    m = np.asarray(m, dtype=float)
    p = np.asarray(p, dtype=float)
    n = len(idx)
    if m.shape != (n,) or p.shape != (n, n):
        raise ValueError(f"moment shapes {m.shape}/{p.shape} do not match an order of length {n}")
    return m[idx], p[idx][:, idx]


def _gathered_rows(idx: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return mat.take(idx, axis=0)


def _block_diagonal(blocks: np.ndarray, mat: np.ndarray) -> np.ndarray:
    n, b, _ = blocks.shape
    return (blocks @ mat.reshape(n, b, -1)).reshape(mat.shape)


def _matmul_right(a: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return mat @ a


def _scaled_columns(idx: np.ndarray, vals: np.ndarray, mat: np.ndarray) -> np.ndarray:
    out = mat.take(idx, axis=1)  # a new C-ordered array, scaled in place
    out *= vals
    return out


def _paired_columns(plus: slice, minus: slice, vals: np.ndarray, mat: np.ndarray) -> np.ndarray:
    out = mat[:, plus] - mat[:, minus]  # a new C-ordered array, scaled in place
    out *= vals
    return out


def _run(idx: np.ndarray) -> slice | None:
    """``idx`` as a slice when it steps by a constant nonzero amount, else
    ``None``."""
    first = int(idx[0])
    step = int(idx[1]) - first if idx.size > 1 else 1
    stop = first + step * idx.size
    if step and idx.tolist() == list(range(first, stop, step)):
        return slice(first, stop if stop >= 0 else None, step)
    return None


def _left_form(a: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``M -> a @ M`` for a vector or a matrix ``M``, in the cheapest form
    the finite matrix ``a`` admits, picked once, from ``a`` alone:

    * when every row holds a single 1 and zeros elsewhere, a row gather;
    * when ``a`` is square and, for the smallest ``b`` dividing its size
      that allows it, every nonzero lies in a diagonal ``b x b`` block, a
      batched product of those blocks;
    * the dense product otherwise.
    """
    # row-major, so one nonzero per row gives rows 0..n-1; numpy finds the
    # nonzeros of a boolean mask faster than those of the floats
    rows, cols = np.nonzero(a != 0)
    if np.array_equal(rows, np.arange(a.shape[0])) and (a[rows, cols] == 1.0).all():
        return functools.partial(_gathered_rows, cols)
    x = a.shape[1]
    if a.shape[0] == x:
        # a block must be wider than the farthest nonzero is from the diagonal
        for b in range(int(np.abs(rows - cols).max(initial=0)) + 1, x):
            if x % b == 0 and np.array_equal(rows // b, cols // b):
                n = x // b
                diag = np.arange(n)
                return functools.partial(_block_diagonal, a.reshape(n, b, n, b)[diag, :, diag])
    return functools.partial(np.matmul, a)


def _right_form(a: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``M -> M @ a`` for a matrix ``M``, in the cheapest form the finite
    matrix ``a`` admits, picked once, from ``a`` alone:

    * when every column holds at most one nonzero, a gather of the columns
      of ``M`` those nonzeros pick, scaled by them in place (a zero column
      of ``a`` gives a zero column).  For finite ``M`` each entry is the one
      nonzero product of the dense sum, so the two agree exactly;
    * when every column holds exactly two nonzeros ``v`` and ``-v``, and the
      rows of the ``v`` and of the ``-v`` each step evenly from column to
      column, as in a mirrored point set's weighted transpose, the
      difference of two evenly stepped views of ``M``, scaled by ``v`` in
      place.  Each entry is rounded once in the difference and once in the
      scale, so it agrees with the dense sum to roundoff rather than
      exactly;
    * the dense product otherwise.

    Every form returns a new C-ordered array, so a product formed from it
    afterwards runs as it would on the dense product's result.  Picking
    takes a few passes over ``a``, with no temporary wider than one boolean
    mask of its nonzeros: their count, each column's first nonzero and,
    for the pairs, each column's largest and smallest entry.  A rule's moment
    check reads its cross form (see
    :attr:`plfilt.cubature.CubatureRule.moment_deviations`), so for paired
    points that check costs O(dim * count) in all.
    """
    cols = np.arange(a.shape[1])
    nonzero = a != 0
    nonzeros = np.count_nonzero(nonzero)
    if nonzeros == 2 * cols.size:
        # a positive largest and a negative smallest entry of equal size
        # in every column leave no room for other nonzeros
        plus, minus = a.argmax(axis=0), a.argmin(axis=0)
        vals = a[plus, cols]
        if (vals > 0.0).all() and (a[minus, cols] == -vals).all():
            plus, minus = _run(plus), _run(minus)
            if plus is not None and minus is not None:
                return functools.partial(_paired_columns, plus, minus, vals)
    idx = nonzero.argmax(axis=0)  # a column's first nonzero, else row 0
    vals = a[idx, cols]
    # each column's first nonzero covers all its nonzeros only when it has
    # at most one
    if np.count_nonzero(vals) == nonzeros:
        return functools.partial(_scaled_columns, idx, vals)
    return functools.partial(_matmul_right, a)


def _weighted_gram(root: np.ndarray, neg: np.ndarray, neg_root: np.ndarray, d: np.ndarray) -> np.ndarray:
    # numpy runs a product of one buffer with its own transpose as dsyrk and
    # copies the triangle over, so each product is exactly symmetric, and so
    # is their difference
    scaled = d * root
    out = scaled @ scaled.T
    if neg.size:
        scaled = d[:, neg] * neg_root
        out -= scaled @ scaled.T
    return out


def _gram_form(w: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``D -> D diag(w) Dᵀ`` for an ``(n, N)`` matrix ``D`` and ``N``
    weights ``w`` of any sign, as symmetric rank-k updates: the columns of
    ``D`` scaled by ``sqrt(max(w, 0))`` times their own transpose, less,
    when some weights are negative, the same product of those columns
    scaled by ``sqrt(-w)``.  The square roots are taken once, here.  numpy
    runs each product as one ``dsyrk``, half the flops of the dense
    product, and the returned C-ordered ``(n, n)`` array is exactly
    symmetric."""
    neg = np.flatnonzero(w < 0.0)
    return functools.partial(_weighted_gram, np.sqrt(np.maximum(w, 0.0)), neg, np.sqrt(-w[neg]))
