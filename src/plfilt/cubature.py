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
bit.

The structured moment-matching path needs a different property, which
:func:`classify` checks: grouped by their leading z-block, the points of every
group must have a zero weighted sum of trailing coordinates, and the weighted
z-blocks must sum to zero.  The three families meet it; point symmetry alone
does not imply it.  Its closed-form linear sums also need the unit weight sum
and second moment, which :func:`classify` checks too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import PointBudgetExceededError
from .linalg import _gram_form, _right_form

DEFAULT_POINT_BUDGET = 10_000_000
# roundoff bound of the preconditions that classify checks, relative to a
# rule's largest coordinate (squared, for the weight sum and second moment)
# times its absolute weight sum; the shipped rules at dimensions 1..50
# (Gauss-Hermite 1..6) measure at most 7e-17 and 8.6e-16
PRECONDITION_RTOL = 1e-12


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
        if w.size == 0:
            raise ValueError("a rule needs at least one point")
        if not (np.isfinite(w).all() and np.isfinite(pts).all()):
            raise ValueError("weights and points must be finite")
        w.flags.writeable = False
        pts.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.weights.size

    @cached_property
    def moment_deviations(self) -> tuple[float, float]:
        """Deviations of the weight sum from 1 and of the second moment from
        ``I``, computed on first use.  A rule of at most ``2 dim + 1``
        points, as the spherical and unscented rules are, reads the second
        moment ``Ξ W Ξᵀ`` off its own :attr:`_cross_form` applied to its
        points: for their paired points O(dim * count), a column difference
        and a scale, and the form is the one the sums use.  A larger rule,
        a Gauss-Hermite grid among them, pays the dense product and builds
        no form, so a rule that is only classified keeps no weighted copy
        of its points."""
        pts = self.points
        if self.count <= 2 * self.dim + 1:
            second = self._cross_form(pts)
        else:
            second = (pts * self.weights) @ pts.T
        second.flat[:: self.dim + 1] -= 1.0
        return abs(float(self.weights.sum()) - 1.0), float(np.abs(second).max())

    @cached_property
    def _point_form(self) -> Callable[[np.ndarray], np.ndarray]:
        """``L -> L @ points`` for a matrix ``L`` with ``dim`` columns, in
        the cheapest exact form the points admit (see
        :func:`plfilt.linalg._right_form`), picked on first use.  The
        spherical and unscented points, ``c [0, I, -I]``, hold at most one
        nonzero per column, so they are a column gather and a scale;
        Gauss-Hermite grids keep the dense product."""
        return _right_form(self.points)

    @cached_property
    def _gram_form(self) -> Callable[[np.ndarray], np.ndarray]:
        """``D -> D diag(weights) Dᵀ`` for a matrix ``D`` with ``count``
        columns, as symmetric rank-k updates that return it exactly
        symmetric (see :func:`plfilt.linalg._gram_form`), set up on first
        use."""
        return _gram_form(self.weights)

    @cached_property
    def _cross_form(self) -> Callable[[np.ndarray], np.ndarray]:
        """``D -> D diag(weights) pointsᵀ`` for a matrix ``D`` with
        ``count`` columns: the points acting on weighted deviations, in unit
        space.  The form is picked on first use from the weighted points
        (see :func:`plfilt.linalg._right_form`), never from ``kind``.  When
        the points come in pairs ``±c eₖ`` of equal weight, as the spherical
        and unscented points do, it is ``c w (D⁺ - D⁻)``, a difference of
        two column views and a scale; any other rule keeps the dense
        product."""
        return _right_form(self.weights[:, None] * self.points.T)


def _paired_points(x: int, lead: int, c: float) -> np.ndarray:
    """``c [0, I, -I]`` with ``lead`` zero columns first: ``c`` and ``-c``
    written on two diagonals of a zeroed ``(x, lead + 2x)`` matrix, so no
    entry is ``-0.0``."""
    points = np.zeros((x, lead + 2 * x))
    diag = np.arange(x)
    points[diag, lead + diag] = c
    points[diag, lead + x + diag] = -c
    return points


def spherical_rule(x: int) -> CubatureRule:
    """Third-degree spherical cubature: 2X points ``sqrt(X) * [I, -I]``,
    all weights ``1/(2X)``.  There is no central point.  The points are
    written straight into a zeroed matrix, O(X²) work with no ``-0.0``
    entry; the rule's moment check then costs O(X²) as well (see
    :attr:`CubatureRule.moment_deviations`)."""
    x = int(x)
    if x < 1:
        raise ValueError(f"dimension must be >= 1, got {x}")
    weights = np.full(2 * x, 1.0 / (2 * x))
    return CubatureRule(
        dim=x, weights=weights, points=_paired_points(x, 0, np.sqrt(x)), kind=RuleKind("sc")
    )


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
    weights = np.concatenate(([lam / denom], np.full(2 * x, 0.5 / denom)))
    return CubatureRule(
        dim=x,
        weights=weights,
        points=_paired_points(x, 1, np.sqrt(denom)),
        kind=RuleKind("ut", alpha=float(alpha), kappa=float(kappa)),
    )


def hermite_1d(p: int):
    """Roots and weights of the order-``p`` probabilists' Hermite quadrature.

    numpy's ``hermegauss`` (Golub-Welsch) gives the roots and weights for
    the weight function ``exp(-x^2 / 2)``; dividing the weights by
    ``sqrt(2 pi)`` makes them sum to one.  The returned arrays are exactly
    symmetric: ``roots == -roots[::-1]`` and ``weights == weights[::-1]``
    hold bitwise, and odd orders carry an exact 0.0 root.
    """
    p = int(p)
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    roots, weights = hermegauss(p)
    weights = weights / math.sqrt(2.0 * math.pi)
    roots = 0.5 * (roots - roots[::-1])  # enforce exact symmetry about 0
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
    points = np.stack(np.meshgrid(*([roots] * x), indexing="ij")).reshape(x, count)
    weights = reduce(np.multiply.outer, [w1] * x).ravel()
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


@dataclass(frozen=True)
class ClassifiedRule:
    """A cubature rule split by how its points interact with a leading
    ``z_dim``-coordinate nonlinear block.

    Central points are exactly zero, linear points are zero in the leading
    ``z_dim`` coordinates only, nonlinear points perturb the leading block.
    ``n_c``, ``n_z`` and ``n_l`` count the three subsets and ``w_cl`` is the
    total weight of the central and linear points.  ``unique`` is the
    ``z_dim``-dimensional rule of the nonlinear points grouped by leading
    block, in lexicographic order of the blocks: one column per distinct
    nonzero block, weighted by the summed weight of the points sharing it.
    It is all the structured moment-matching path reads, besides ``w_cl``.
    The full-dimension points it stands for have zero trailing coordinates,
    so the partial Cholesky path always applies to them; :func:`classify`
    refuses rules on which dropping the trailing coordinates would change
    the sums.

    For Gauss-Hermite grids too large to materialize the instance may be
    "virtual": ``base`` is ``None`` while the counts, ``w_cl`` and ``unique``
    remain available.
    """

    kind: RuleKind
    dim: int
    z_dim: int
    count: int
    n_c: int
    n_z: int
    n_l: int
    w_cl: float
    unique: CubatureRule
    base: CubatureRule | None = None

    @cached_property
    def _zero_and_unique(self) -> CubatureRule:
        """The one weighted point set the structured path sums over, built
        on first use: column 0 is the zero point, carrying the central and
        linear points' summed weight ``w_cl``, and the other columns are
        ``unique``'s grouped nonlinear points with their weights."""
        uq = self.unique
        points = np.zeros((self.z_dim, 1 + uq.count))
        points[:, 1:] = uq.points
        weights = np.concatenate(([self.w_cl], uq.weights))
        return CubatureRule(self.z_dim, weights, points, self.kind)


def classify(rule: CubatureRule, z: int) -> ClassifiedRule:
    """Partition a rule's points into central / nonlinear / linear subsets
    for a nonlinear block spanning the leading ``z`` coordinates, and group
    the nonlinear points by leading block.

    The structured path replaces each group by its leading block and its
    summed weight, and the central and linear points by their summed weight
    alone.  That is exact only when every group (the zero-block group
    included) has a zero weighted sum of trailing coordinates and the
    weighted leading blocks sum to zero.  Point symmetry does not imply
    this, so it is checked here: a rule whose largest such sum exceeds
    ``PRECONDITION_RTOL`` times its largest coordinate times its absolute weight
    sum raises ``ValueError``.  The closed-form linear sums of the structured
    path also assume a unit weight sum and a unit second moment, so a rule
    whose weight sum deviates from 1, or whose second moment deviates from
    ``I``, by more than ``PRECONDITION_RTOL`` times its squared largest
    coordinate times its absolute weight sum is refused as well; those two
    deviations are computed once per rule and cached on it, for the
    spherical and unscented rules from the rule's cached cross form (see
    :attr:`CubatureRule.moment_deviations`), so on their paired points the
    moment check costs O(dim * count).  The grouping sums
    gather and weight only the trailing rows; the leading-block total is
    one product with the weights.
    """
    z = int(z)
    if not 1 <= z <= rule.dim:
        raise ValueError(f"z must be in 1..{rule.dim}, got {z}")
    w = rule.weights
    pts = rule.points
    zb = pts[:z] + 0.0  # +0.0 collapses -0.0 into 0.0
    order = np.lexsort(zb[::-1])  # row 0 is the primary key
    zb = zb[:, order]
    starts = np.flatnonzero(np.r_[True, (zb[:, 1:] != zb[:, :-1]).any(axis=0)])
    w_sorted = w[order]
    group_w = np.add.reduceat(w_sorted, starts)
    # the trailing rows gathered into a new array, weighted in place and
    # summed by group; the name is rebound so the gather is freed at once
    sums = pts[z:, order]
    sums *= w_sorted
    sums = np.add.reduceat(sums, starts, axis=1)
    dev = max(np.abs(sums).max(initial=0.0), np.abs(pts[:z] @ w).max())
    xi_max = max(pts.max(), -pts.min())
    scale = xi_max * np.abs(w).sum()
    if not dev <= PRECONDITION_RTOL * scale:
        raise ValueError(
            f"rule violates the grouping precondition: a weighted trailing or "
            f"z-block sum deviates by {dev / scale:.2e} relative, "
            f"above {PRECONDITION_RTOL:.0e}"
        )
    dev = max(rule.moment_deviations)
    scale *= xi_max
    if not dev <= PRECONDITION_RTOL * scale:
        raise ValueError(
            f"rule violates the moment precondition: the weight sum or the "
            f"second moment deviates from 1 or I by {dev / scale:.2e} relative, "
            f"above {PRECONDITION_RTOL:.0e}"
        )
    heads = zb[:, starts]
    zero = ~heads.any(axis=0)
    n_cl = int(np.diff(np.r_[starts, w.size])[zero].sum())
    n_c = int((~pts.any(axis=0)).sum())
    return ClassifiedRule(
        kind=rule.kind,
        dim=rule.dim,
        z_dim=z,
        count=rule.count,
        n_c=n_c,
        n_z=rule.count - n_cl,
        n_l=n_cl - n_c,
        w_cl=float(group_w[zero].sum()),
        unique=CubatureRule(z, group_w[~zero], heads[:, ~zero], rule.kind),
        base=rule,
    )


def make_classified(
    kind: RuleKind, dim: int, z: int, point_budget: int = DEFAULT_POINT_BUDGET
) -> ClassifiedRule:
    """Classified rule for ``kind`` at dimension ``dim``.

    Gauss-Hermite grids whose full point count exceeds ``point_budget`` are
    returned in virtual form instead of raising: the structured
    moment-matching path only ever touches the grouped nonlinear points,
    whose number is governed by ``z``, not ``dim``.  They come from the
    ``z``-dimensional grid, because the trailing-grid weights sum to one.
    The grouping precondition needs no check on the full grid: it is
    symmetric in each coordinate on its own, so every trailing sum is zero.
    """
    if kind.name != "gh" or kind.order ** int(dim) <= point_budget:
        return classify(make_rule(kind, dim, point_budget), z)
    dim = int(dim)
    z = int(z)
    if not 1 <= z <= dim:
        raise ValueError(f"z must be in 1..{dim}, got {z}")
    sub = classify(gauss_hermite_rule(z, kind.order), z)
    count = kind.order**dim
    n_trailing = kind.order ** (dim - z)
    return ClassifiedRule(
        kind=kind,
        dim=dim,
        z_dim=z,
        count=count,
        n_c=sub.n_c,
        n_z=count - sub.n_c * n_trailing,
        n_l=sub.n_c * (n_trailing - 1),
        w_cl=sub.w_cl,
        unique=sub.unique,
    )


def unique_nonlinear(cr: ClassifiedRule) -> CubatureRule:
    """The nonlinear points of ``cr`` grouped by leading z-block."""
    return cr.unique


def rule_checks(rule: CubatureRule):
    """Deviations from the defining point-set properties.

    Returns ``(weight_sum_dev, second_moment_dev, symmetric)`` where the
    symmetry flag is an exact multiset comparison of the nonzero columns
    against their negations.
    """
    weight_dev, moment_dev = rule.moment_deviations
    pts = rule.points
    nonzero = pts[:, pts.any(axis=0)]
    a = nonzero[:, np.lexsort(nonzero[::-1])]
    neg = -nonzero + 0.0
    b = neg[:, np.lexsort(neg[::-1])]
    symmetric = bool(np.array_equal(a, b))
    return weight_dev, moment_dev, symmetric
