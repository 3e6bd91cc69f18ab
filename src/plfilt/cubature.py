"""Symmetric cubature rules for Gaussian-weighted integrals and their
partitioning into central, nonlinear and linear point subsets.

Three rule families are provided:

* spherical (third-degree spherical-radial, Arasaratnam & Haykin 2009),
* unscented (Julier & Uhlmann's sigma points, one length-scale weight set),
* Gauss-Hermite tensor-product grids (Ito & Xiong 2000; Sarkka 2013).

All three satisfy, up to roundoff: point symmetry (every nonzero point has a
mirrored twin with equal weight), unit weight sum, and the unit second moment
``Xi @ diag(w) @ Xi.T == I``.  Construction keeps the symmetry exact in the
floating-point sense: a column and its twin are elementwise negations bit for
bit, which downstream code relies on when it matches points into pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PointBudgetExceededError, RootFindingError

DEFAULT_POINT_BUDGET = 10_000_000


@dataclass(frozen=True)
class RuleKind:
    """Tag identifying a rule family and its parameters."""

    name: str  # "sc" | "ut" | "gh"
    alpha: float | None = None
    kappa: float | None = None
    order: int | None = None

    def label(self) -> str:
        if self.name == "ut":
            return f"ut(alpha={self.alpha:g},kappa={self.kappa:g})"
        if self.name == "gh":
            return f"gh(p={self.order})"
        return self.name


@dataclass(frozen=True)
class CubatureRule:
    """A weighted integration point set for R^dim.

    ``points`` has one column per point; ``weights[i]`` belongs to column i.
    """

    dim: int
    weights: np.ndarray
    points: np.ndarray
    kind: RuleKind

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if w.ndim != 1 or pts.ndim != 2:
            raise ValueError("weights must be a vector and points a matrix")
        if pts.shape != (self.dim, w.size):
            raise ValueError(
                f"points shape {pts.shape} inconsistent with dim={self.dim}, {w.size} weights"
            )
        w.flags.writeable = False
        pts.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.weights.size


def spherical_rule(x: int) -> CubatureRule:
    """Third-degree spherical cubature: 2X points ``sqrt(X) * [I, -I]``,
    all weights ``1/(2X)``.  There is no central point."""
    x = int(x)
    if x < 1:
        raise ValueError(f"dimension must be >= 1, got {x}")
    eye = np.eye(x)
    points = np.sqrt(x) * np.hstack((eye, -eye)) + 0.0  # +0.0 normalizes -0.0 entries
    weights = np.full(2 * x, 1.0 / (2 * x))
    return CubatureRule(dim=x, weights=weights, points=points, kind=RuleKind("sc"))


def unscented_rule(x: int, alpha: float, kappa: float) -> CubatureRule:
    """Unscented transform points with length scale lambda = alpha^2 (X+kappa) - X.

    One central point of weight lambda/(lambda+X) (possibly zero or negative)
    plus 2X symmetric points of weight 1/(2 (lambda+X)).  A single weight set
    is used for both mean and covariance sums.
    """
    x = int(x)
    if x < 1:
        raise ValueError(f"dimension must be >= 1, got {x}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    lam = alpha**2 * (x + kappa) - x
    denom = lam + x  # = alpha^2 (x + kappa) > 0
    eye = np.eye(x)
    points = np.sqrt(denom) * np.hstack((np.zeros((x, 1)), eye, -eye)) + 0.0
    weights = np.concatenate(([lam / denom], np.full(2 * x, 0.5 / denom)))
    return CubatureRule(
        dim=x,
        weights=weights,
        points=points,
        kind=RuleKind("ut", alpha=float(alpha), kappa=float(kappa)),
    )


def _hermite_value(p: int, x: np.ndarray):
    """Evaluate the probabilists' Hermite polynomial pair (He_p, He_{p-1})
    via the recursion He_{k+1}(x) = x He_k(x) - k He_{k-1}(x)."""
    h_prev = np.ones_like(x)
    h = np.asarray(x, dtype=float).copy()
    for k in range(1, p):
        h_prev, h = h, x * h - k * h_prev
    return h, h_prev


def hermite_1d(p: int):
    """Roots and weights of the order-``p`` probabilists' Hermite quadrature.

    Roots are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    (off-diagonals sqrt(k)), polished with a few Newton iterations on He_p;
    weights follow p! / (p He_{p-1}(r))^2.  The returned arrays are exactly
    symmetric: ``roots == -roots[::-1]`` and ``weights == weights[::-1]``
    hold bitwise, and odd orders carry an exact 0.0 root.
    """
    p = int(p)
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    if p == 1:
        return np.array([0.0]), np.array([1.0])
    off = np.sqrt(np.arange(1.0, p))
    roots = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for _ in range(5):
        hp, hpm1 = _hermite_value(p, roots)
        dh = p * hpm1
        safe = np.where(dh == 0.0, 1.0, dh)
        roots = roots - np.where(dh == 0.0, 0.0, hp / safe)
    if not np.all(np.isfinite(roots)):
        raise RootFindingError(f"Hermite root polish diverged for p={p}")
    roots = 0.5 * (roots - roots[::-1])  # enforce exact symmetry about 0
    _, hpm1 = _hermite_value(p, roots)
    weights = math.factorial(p) / (p * hpm1) ** 2
    weights = 0.5 * (weights + weights[::-1])
    return roots, weights


def gauss_hermite_rule(
    x: int, p: int, point_budget: int = DEFAULT_POINT_BUDGET
) -> CubatureRule:
    """Tensor-product Gauss-Hermite grid with ``p**x`` points.

    Grid ordering is lexicographic in the per-axis root indices with the last
    axis varying fastest; a grid point's weight is the product of its 1-D
    weights.  Orders below 2 are rejected (the unit-second-moment property
    needs p >= 2), and grids beyond ``point_budget`` raise
    :class:`PointBudgetExceededError` before any allocation happens.
    """
    x = int(x)
    p = int(p)
    if x < 1:
        raise ValueError(f"dimension must be >= 1, got {x}")
    if p < 2:
        raise ValueError(f"order must be >= 2 for a valid rule, got {p}")
    count = p**x  # exact integer, no overflow
    if count > point_budget:
        raise PointBudgetExceededError(requested=count, budget=point_budget)
    roots, w1 = hermite_1d(p)
    axes = np.meshgrid(*([roots] * x), indexing="ij")
    points = np.vstack([axis.reshape(1, -1) for axis in axes])
    weights = np.ones(count)
    for axis in np.meshgrid(*([w1] * x), indexing="ij"):
        weights = weights * axis.ravel()
    return CubatureRule(
        dim=x, weights=weights, points=points, kind=RuleKind("gh", order=p)
    )


def make_rule(
    kind: RuleKind, dim: int, point_budget: int = DEFAULT_POINT_BUDGET
) -> CubatureRule:
    """Build a rule of the given kind at dimension ``dim``."""
    if kind.name == "sc":
        return spherical_rule(dim)
    if kind.name == "ut":
        return unscented_rule(dim, kind.alpha, kind.kappa)
    if kind.name == "gh":
        return gauss_hermite_rule(dim, kind.order, point_budget)
    raise ValueError(f"unknown rule kind {kind.name!r}")


def _column_key(col: np.ndarray) -> bytes:
    # +0.0 collapses -0.0 and 0.0 to the same byte pattern
    return (col + 0.0).tobytes()


def _paired_order(points: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Reorder ``idx`` so the first half holds "positive" columns in
    lexicographic order and entry ``n/2 + i`` is the exact negation of
    entry ``i``.  Positivity means the first nonzero coordinate is > 0."""
    if idx.size == 0:
        return idx
    cols = points[:, idx]
    ncols = cols.shape[1]
    nonzero = cols != 0.0
    first = nonzero.argmax(axis=0)
    lead = cols[first, np.arange(ncols)]
    pos_local = np.flatnonzero(lead > 0.0)
    neg_local = np.flatnonzero(lead < 0.0)
    if pos_local.size != neg_local.size:
        raise ValueError("point set is not symmetric: unpaired columns")
    order = np.lexsort(cols[:, pos_local][::-1])  # row 0 is the primary key
    pos_sorted = pos_local[order]
    by_key = {_column_key(cols[:, j]): j for j in neg_local}
    neg_sorted = np.empty(pos_sorted.size, dtype=np.intp)
    for i, j in enumerate(pos_sorted):
        partner = by_key.pop(_column_key(-cols[:, j]), None)
        if partner is None:
            raise ValueError("point set is not symmetric: missing mirrored column")
        neg_sorted[i] = partner
    return np.concatenate((idx[pos_sorted], idx[neg_sorted]))


@dataclass(frozen=True)
class ClassifiedRule:
    """A cubature rule split by how its points interact with a leading
    ``z_dim``-coordinate nonlinear block.

    Central points are exactly zero, linear points are zero in the leading
    ``z_dim`` coordinates only, nonlinear points perturb the leading block.
    ``n_c``, ``n_z`` and ``n_l`` count the three subsets and ``w_cl`` is the
    total weight of the central and linear points.  The nonlinear subset is
    kept as ``idx_z`` (its columns in ``base``), ``w_z`` and ``xi_z``; column
    ``i`` and column ``n_z/2 + i`` are exact negations carrying equal weights.

    For Gauss-Hermite grids too large to materialize the instance may be
    "virtual": ``base`` and the nonlinear arrays are ``None`` while the subset
    counts, ``w_cl`` and the deduplicated nonlinear block (via
    :func:`unique_nonlinear`) remain available, which is all the structured
    moment-matching path needs.
    """

    kind: RuleKind
    dim: int
    z_dim: int
    count: int
    n_c: int
    n_z: int
    n_l: int
    w_cl: float
    base: CubatureRule | None = None
    idx_z: np.ndarray | None = None
    w_z: np.ndarray | None = None
    xi_z: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.idx_z, self.w_z, self.xi_z):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def materialized(self) -> bool:
        return self.base is not None


def classify(rule: CubatureRule, z: int) -> ClassifiedRule:
    """Partition a rule's points into central / nonlinear / linear subsets
    for a nonlinear block spanning the leading ``z`` coordinates."""
    z = int(z)
    if not 1 <= z <= rule.dim:
        raise ValueError(f"z must be in 1..{rule.dim}, got {z}")
    pts = rule.points
    zero_col = ~pts.any(axis=0)
    zero_zblock = ~pts[:z].any(axis=0)
    n_c = int(zero_col.sum())
    # the linear subset is only counted, but pairing it checks that it is
    # symmetric, which the collapsed sums of the structured path rely on
    n_l = _paired_order(pts, np.flatnonzero(zero_zblock & ~zero_col)).size
    idx_z = _paired_order(pts, np.flatnonzero(~zero_zblock))
    w_z = rule.weights[idx_z].copy()
    return ClassifiedRule(
        kind=rule.kind,
        dim=rule.dim,
        z_dim=z,
        count=rule.count,
        n_c=n_c,
        n_z=idx_z.size,
        n_l=n_l,
        w_cl=float(1.0 - w_z.sum()),
        base=rule,
        idx_z=idx_z,
        w_z=w_z,
        xi_z=pts[:, idx_z].copy(),
    )


def make_classified(
    kind: RuleKind, dim: int, z: int, point_budget: int = DEFAULT_POINT_BUDGET
) -> ClassifiedRule:
    """Classified rule for ``kind`` at dimension ``dim``.

    Gauss-Hermite grids whose full point count exceeds ``point_budget`` are
    returned in virtual form instead of raising: the structured
    moment-matching path only ever touches the deduplicated nonlinear block,
    whose size is governed by ``z``, not ``dim``.
    """
    if kind.name != "gh" or kind.order ** int(dim) <= point_budget:
        return classify(make_rule(kind, dim, point_budget), z)
    dim = int(dim)
    z = int(z)
    if not 1 <= z <= dim:
        raise ValueError(f"z must be in 1..{dim}, got {z}")
    p = kind.order
    count = p**dim
    l_dim = dim - z
    if p % 2 == 1:
        # only odd orders have a zero root, hence zero z-blocks
        _, w1 = hermite_1d(p)
        w_mid = float(w1[(p - 1) // 2])
        w_cl = w_mid**z
        n_c = 1
        n_l = p**l_dim - 1
    else:
        w_cl = 0.0
        n_c = 0
        n_l = 0
    n_z = count - n_c - n_l
    return ClassifiedRule(
        kind=kind,
        dim=dim,
        z_dim=z,
        count=count,
        n_c=n_c,
        n_z=n_z,
        n_l=n_l,
        w_cl=w_cl,
    )


@dataclass(frozen=True)
class UniqueRule:
    """Nonlinear points deduplicated by their leading z-block.

    ``points`` holds the distinct leading blocks (one column each);
    ``weights`` are the summed weights of all parent nonlinear points sharing
    that block.  The implied full-dimension points have zero trailing
    coordinates, so the partial Cholesky path always applies to them.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def count(self) -> int:
        return self.weights.size


def unique_nonlinear(cr: ClassifiedRule) -> UniqueRule:
    """Merge nonlinear points that share the same leading z-block.

    The result is cached on the classified rule, so repeated calls (one per
    moment-matching invocation) cost a dictionary lookup.
    """
    cached = getattr(cr, "_unique_cache", None)
    if cached is not None:
        return cached
    if cr.xi_z is not None:
        zb = cr.xi_z[: cr.z_dim]
        w = cr.w_z
        order: list[bytes] = []
        merged: dict[bytes, float] = {}
        column: dict[bytes, np.ndarray] = {}
        for j in range(zb.shape[1]):
            key = _column_key(zb[:, j])
            if key in merged:
                merged[key] += w[j]
            else:
                merged[key] = float(w[j])
                column[key] = zb[:, j] + 0.0
                order.append(key)
        points = np.column_stack([column[k] for k in order])
        weights = np.array([merged[k] for k in order])
    else:
        # virtual Gauss-Hermite: the merged weight of a z-block equals its
        # Z-dimensional grid weight because the trailing-grid weights sum to 1
        sub = classify(gauss_hermite_rule(cr.z_dim, cr.kind.order), cr.z_dim)
        points = sub.xi_z.copy()
        weights = sub.w_z.copy()
    unique = UniqueRule(points=points, weights=weights)
    object.__setattr__(cr, "_unique_cache", unique)
    return unique


def rule_checks(rule: CubatureRule):
    """Deviations from the defining point-set properties.

    Returns ``(weight_sum_dev, second_moment_dev, symmetric)`` where the
    symmetry flag is an exact multiset comparison of the nonzero columns
    against their negations.
    """
    w = rule.weights
    pts = rule.points
    weight_dev = abs(float(w.sum()) - 1.0)
    second = (pts * w) @ pts.T
    moment_dev = float(np.abs(second - np.eye(rule.dim)).max())
    nonzero = pts[:, pts.any(axis=0)]
    a = nonzero[:, np.lexsort(nonzero[::-1])]
    neg = -nonzero + 0.0
    b = neg[:, np.lexsort(neg[::-1])]
    symmetric = bool(np.array_equal(a, b))
    return weight_dev, moment_dev, symmetric
