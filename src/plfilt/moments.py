"""Gaussian moment matching through nonlinear functions.

Every model function works column-wise: it maps a ``(dim, n)`` matrix of
points to the matrix of their images, one column each.  One function,
:func:`_sums`, forms the cubature sums: a rule's unit-space points mapped
through a Cholesky factor ``L``, the function evaluated at all of them in
one call, its mean and its covariance as one symmetric rank-k update (less
a second one for negative weights).  The cross covariance ``L (Ξ W Dyᵀ)``
is formed in unit space, where the spherical and unscented points
``±c eₖ`` reduce it to ``c w (Dy⁺ - Dy⁻)``.  The forms are worked out once
per rule from its points and weights.

* :func:`match_full` runs the sums on the full rule.
* :func:`match_pl` exploits the structure ``y = [A1 x + g(z); A x]``
  (nonlinear in the leading ``z`` coordinates only, ``A1`` optional): with a
  lower-triangular square root, points that do not perturb the leading block
  all map to ``g`` of the input z-mean, so they act as one zero point
  carrying their summed weight.  The ``g`` block is the same sums on the
  ``z``-dimensional rule of that point and the deduplicated nonlinear
  points, through the leading ``z`` columns of the factor; the linear rows
  have closed-form sums.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cubature import ClassifiedRule, CubatureRule, unique_nonlinear
from .linalg import _left_form, cholesky_full, cholesky_partial, mirror_lower


@dataclass(frozen=True)
class GaussianMoments:
    """Mean vector and covariance of a Gaussian."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(f"inconsistent moment shapes {mean.shape}, {cov.shape}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class JointGaussian:
    """Matched joint moments of an input ``x`` and an output ``y``."""

    m_x: np.ndarray
    m_y: np.ndarray
    p_xx: np.ndarray
    p_xy: np.ndarray
    p_yy: np.ndarray

    @property
    def x_dim(self) -> int:
        return self.m_x.size

    @property
    def y_dim(self) -> int:
        return self.m_y.size


class PartiallyLinearFunction:
    """A map ``y = [g(z); A x]`` with ``z`` the leading ``z_dim`` coordinates
    of ``x``, or ``y = [A1 x + g(z); A2 x]`` when ``a1`` is given (then ``a``
    plays the role of A2).

    Like ``g``, the function works column-wise: calling it on an
    ``(x_dim, n)`` matrix of points returns the ``(y_dim, n)`` matrix of
    their images.  ``g`` maps a ``(z_dim, n)`` matrix to a ``(g_dim, n)``
    one, and any other output shape is refused with ``ValueError``.  Every
    evaluation of ``g`` — one per column — is tallied in ``g_eval_count``.

    The linear rows ``[A1; A]`` are applied in one of three exact forms,
    picked once here from the matrix itself by
    :func:`plfilt.linalg._left_form`: a row gather when every row
    holds a single 1 and zeros elsewhere; a batched product of diagonal
    ``b x b`` blocks when the matrix is square and, for the smallest ``b``
    dividing ``x_dim`` that allows it, every nonzero lies in such a block;
    the dense product otherwise.  The forms agree only on finite maps, so
    non-finite entries in ``a`` or ``a1`` are refused, and both are kept as
    read-only copies, so the form stays in step with them.
    """

    def __init__(
        self,
        z_dim: int,
        x_dim: int,
        g: Callable[[np.ndarray], np.ndarray],
        g_dim: int,
        a: np.ndarray,
        a1: np.ndarray | None = None,
    ):
        self.z_dim = int(z_dim)
        self.x_dim = int(x_dim)
        self.g_dim = int(g_dim)
        if not 1 <= self.z_dim <= self.x_dim:
            raise ValueError(f"z_dim must be in 1..{self.x_dim}, got {z_dim}")
        a = np.array(a, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.x_dim:
            raise ValueError(f"linear map shape {a.shape} inconsistent with x_dim={x_dim}")
        if not np.isfinite(a).all():
            raise ValueError("linear map contains non-finite values")
        if a1 is not None:
            a1 = np.array(a1, dtype=float)
            if a1.shape != (self.g_dim, self.x_dim):
                raise ValueError(
                    f"pre-addition map must be ({self.g_dim}, {self.x_dim}), got {a1.shape}"
                )
            if not np.isfinite(a1).all():
                raise ValueError("pre-addition map contains non-finite values")
            a1.flags.writeable = False
        a.flags.writeable = False
        self.a = a
        self.a1 = a1
        self.y_dim = self.g_dim + a.shape[0]
        # M -> [A1; A] @ M, and the number of leading A1 rows folded onto g
        self._apply = _left_form(a if a1 is None else np.vstack((a1, a)))
        self._n1 = 0 if a1 is None else self.g_dim
        self._g = g
        self.g_eval_count = 0

    def reset_g_eval_count(self):
        self.g_eval_count = 0

    def eval_g_batch(self, zmat: np.ndarray) -> np.ndarray:
        zmat = np.asarray(zmat, dtype=float)
        if zmat.ndim != 2:
            raise ValueError(f"expected a (z_dim, n) matrix of points, got shape {zmat.shape}")
        n = zmat.shape[1]
        self.g_eval_count += n
        out = np.asarray(self._g(zmat), dtype=float)
        if out.shape != (self.g_dim, n):
            raise ValueError(
                f"g returned shape {out.shape} for a {zmat.shape} input, expected "
                f"({self.g_dim}, {n}): g must map a (z_dim, n) matrix column-wise"
            )
        return out

    def __call__(self, xmat: np.ndarray) -> np.ndarray:
        xmat = np.asarray(xmat, dtype=float)
        gz = self.eval_g_batch(xmat[: self.z_dim])
        ax = self._apply(xmat)
        if self._n1:
            gz = gz + ax[: self._n1]
        return np.vstack((gz, ax[self._n1 :]))


def _sums(f, m: np.ndarray, l: np.ndarray, rule: CubatureRule):
    """The cubature sums of both matchers: the points of ``rule`` mapped
    through the factor ``l`` and shifted to ``m``, ``f`` evaluated on them in
    one call, and ``(m_y, p_yy, dy)``: the output mean, the exactly symmetric
    output covariance ``Dy W Dyᵀ`` and the deviations ``Dy``, from which the
    caller forms the cross covariance ``L @ rule._cross_form(dy).T``.
    """
    xpts = rule._point_form(l)  # a new array: the points' deviations, shifted in place
    xpts += m[:, None]
    ypts = np.asarray(f(xpts), dtype=float)
    if ypts.ndim != 2 or ypts.shape[1] != rule.count:
        raise ValueError(
            f"f returned shape {ypts.shape} for a {xpts.shape} input, expected "
            f"{rule.count} columns: f must map a (dim, n) matrix column-wise"
        )
    m_y = ypts @ rule.weights
    dy = ypts - m_y[:, None]
    return m_y, rule._gram_form(dy), dy


def _plain_sums(f, m: np.ndarray, p: np.ndarray, rule: CubatureRule):
    """The plain cubature sums of :func:`match_full` up to ``p_yy``:
    :func:`_sums` on the full factor.

    Returns ``(m_y, p_yy, l, dy)``: the output mean, the exactly symmetric
    output covariance, the input covariance's Cholesky factor and the
    points' deviations from the output mean, from which :func:`match_full`
    forms ``p_xy``.  A filter's predict reads only the first two.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (rule.dim,):
        raise ValueError(f"mean shape {m.shape} does not match rule dimension {rule.dim}")
    l = cholesky_full(p)
    if l.shape[0] != rule.dim:
        raise ValueError("covariance dimension does not match rule dimension")
    m_y, p_yy, dy = _sums(f, m, l, rule)
    return m_y, p_yy, l, dy


def match_full(f, m: np.ndarray, p: np.ndarray, rule: CubatureRule) -> JointGaussian:
    """Joint moments of ``x ~ N(m, p)`` and ``y = f(x)`` by plain cubature.

    ``f`` works column-wise: it is called once, on the ``(dim, count)``
    matrix of integration points, and must return one output column per
    point; any other column count is refused with ``ValueError``.  The input
    covariance must be symmetric positive definite; its full lower-triangular
    Cholesky factor ``L`` maps the unit-space points into state space, so the
    points depend on the coordinate order of ``m`` and ``p``.  In the order
    :func:`match_pl` gets (nonlinear coordinates first) both use the same
    factor and agree up to roundoff.  The sums are :func:`_sums`, with ``L``
    applied to the points in the form the rule picked
    (:attr:`CubatureRule._point_form`), and the returned ``p_yy`` is exactly
    symmetric.  The cross covariance ``p_xy = L (Ξ W Dyᵀ)`` is formed in
    unit space (:attr:`CubatureRule._cross_form`) and mapped by one product
    with ``L``: a numpy product and not a triangular ``dtrmm``, since scipy's
    BLAS is a second OpenBLAS with its own threads, and, unpinned, handing
    work from numpy's to it costs milliseconds on a two-core host.
    """
    m_y, p_yy, l, dy = _plain_sums(f, m, p, rule)
    p_xy = l @ rule._cross_form(dy).T
    return JointGaussian(
        m_x=np.asarray(m, dtype=float),
        m_y=m_y,
        p_xx=np.asarray(p, dtype=float),
        p_xy=p_xy,
        p_yy=p_yy,
    )


def _structured_sums(
    plf: PartiallyLinearFunction,
    m: np.ndarray,
    p: np.ndarray,
    cr: ClassifiedRule,
):
    """The structured sums of :func:`match_pl` up to ``p_yy``: :func:`_sums`
    on the reduced ``z``-dimensional rule for the ``g`` block, and the
    closed-form linear sums.

    Returns ``(m_y, p_yy, p_xg, p_at)``: the output mean, the exactly
    symmetric output covariance, the nonlinear block ``L[:, :z] (Ξ W Dgᵀ)``
    of the cross covariance and ``P [A1; A]ᵀ``, from which :func:`match_pl`
    forms ``p_xy``.  A filter's predict reads only the first two.
    """
    if plf.x_dim != cr.dim:
        raise ValueError(f"function x_dim {plf.x_dim} does not match rule dimension {cr.dim}")
    if plf.z_dim != cr.z_dim:
        raise ValueError(f"function z_dim {plf.z_dim} does not match rule z_dim {cr.z_dim}")
    m = np.asarray(m, dtype=float)
    if m.shape != (cr.dim,):
        raise ValueError(f"mean shape {m.shape} does not match dimension {cr.dim}")
    z = cr.z_dim

    # the grouped points are read through unique_nonlinear on every call, so
    # a trace of it sees each match; the stacked set is built once per rule
    unique_nonlinear(cr)
    pts = cr._zero_and_unique
    cols = cholesky_partial(p, z).column_block()
    m_g, p_gg, dg = _sums(plf.eval_g_batch, m[:z], cols[:z], pts)
    p_xg = cols @ pts._cross_form(dg).T  # the nonlinear block of p_xy, (X, G)

    apply = plf._apply
    n1 = plf._n1  # rows of A1, folded onto the g block
    g_dim = plf.g_dim
    p = np.asarray(p, dtype=float)
    a_m = apply(m)
    p_at = apply(p).T
    a_pxy = apply(p_xg)
    a_pat = apply(p_at)

    m_y = np.empty(plf.y_dim)
    m_y[:g_dim] = m_g
    m_y[g_dim:] = a_m[n1:]
    if n1:
        # a_pat is the whole (Y, Y) [A1; A] P [A1; A]ᵀ: the A1 terms are
        # folded onto it in place, each block summed in the same order
        m_y[:g_dim] += a_m[:n1]
        p_gg += a_pxy[:n1].T
        p_gg += a_pxy[:n1]
        a_pat[:g_dim, :g_dim] += p_gg
        a_pat[g_dim:, :g_dim] += a_pxy[n1:]
        p_yy = a_pat
    else:
        p_yy = np.empty((plf.y_dim, plf.y_dim))
        p_yy[:g_dim, :g_dim] = p_gg
        p_yy[g_dim:, :g_dim] = a_pxy
        p_yy[g_dim:, g_dim:] = a_pat
    p_yy = mirror_lower(p_yy)  # fills the upper blocks and pins symmetry
    return m_y, p_yy, p_xg, p_at


def match_pl(
    plf: PartiallyLinearFunction,
    m: np.ndarray,
    p: np.ndarray,
    cr: ClassifiedRule,
) -> JointGaussian:
    """Structured moment matching for ``y = [A1 x + g(z); A x]``.

    The ``g`` block is :func:`_sums` on a ``z``-dimensional rule built once
    per rule (:attr:`ClassifiedRule._zero_and_unique`): column 0 is the zero
    point, standing for every central and linear point (they all map to the
    input z-mean) with their summed weight ``cr.w_cl``, and the other
    columns are the nonlinear points grouped by leading block.  The leading
    ``z`` columns of the input covariance's Cholesky factor map it; their
    leading rows are the z-block's own factor, so ``g``'s mean and
    covariance are those of ``match_full(plf.eval_g_batch, m[:z], p[:z, :z],
    cr._zero_and_unique)``, and all their rows give the cross covariance's
    nonlinear block.  ``g`` is evaluated ``1 + n`` times, in one call.  The
    closed-form linear sums run on the stacked rows ``[A1; A]``, in the form
    the function picked for them; the ``A1`` block is then folded onto the
    ``g`` block.  ``P Aᵀ`` is formed as ``(A P)ᵀ``, which relies on the input
    covariance being symmetric.  The returned ``p_yy`` is exactly symmetric
    (its lower blocks mirrored).  The sums up to ``p_yy`` are
    :func:`_structured_sums`, which a filter's predict calls alone; this
    adds the cross covariance ``p_xy``.
    """
    m_y, p_yy, p_xg, p_at = _structured_sums(plf, m, p, cr)
    n1 = plf._n1
    g_dim = plf.g_dim
    p_xy = np.empty((cr.dim, plf.y_dim))
    p_xy[:, :g_dim] = p_xg
    p_xy[:, g_dim:] = p_at[:, n1:]
    if n1:
        p_xy[:, :g_dim] += p_at[:, :n1]
    return JointGaussian(
        m_x=np.asarray(m, dtype=float),
        m_y=m_y,
        p_xx=np.asarray(p, dtype=float),
        p_xy=p_xy,
        p_yy=p_yy,
    )
