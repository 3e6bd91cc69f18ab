"""Gaussian moment matching through nonlinear functions.

Two evaluation routes are provided for the joint first/second moments of a
Gaussian input and a function output:

* :func:`match_full` runs the plain cubature sums, evaluating the function at
  every integration point.
* :func:`match_pl` exploits the structure ``y = [A1 x + g(z); A x]``
  (nonlinear in the leading ``z`` coordinates only, ``A1`` optional): with a
  lower-triangular square root, points that do not perturb the leading block
  all map to ``g`` of the input z-mean, so their contributions collapse into
  closed form.  ``g`` is evaluated only at the mean plus the deduplicated
  nonlinear points, and only the leading ``z`` columns of the Cholesky factor
  of the input covariance are needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cubature import ClassifiedRule, CubatureRule, unique_nonlinear
from .linalg import cholesky_full, cholesky_partial


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

    @property
    def dim(self) -> int:
        return self.mean.size


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

    ``g_batch``, when provided, must evaluate ``g`` column-wise on a
    ``(z_dim, n)`` matrix; it is used to keep large point sets vectorized.
    Every conceptual evaluation of ``g`` — one per point — is tallied in
    ``g_eval_count``.
    """

    def __init__(
        self,
        z_dim: int,
        x_dim: int,
        g: Callable[[np.ndarray], np.ndarray],
        g_dim: int,
        a: np.ndarray,
        a1: np.ndarray | None = None,
        g_batch: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.z_dim = int(z_dim)
        self.x_dim = int(x_dim)
        self.g_dim = int(g_dim)
        if not 1 <= self.z_dim <= self.x_dim:
            raise ValueError(f"z_dim must be in 1..{self.x_dim}, got {z_dim}")
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.x_dim:
            raise ValueError(f"linear map shape {a.shape} inconsistent with x_dim={x_dim}")
        if a1 is not None:
            a1 = np.asarray(a1, dtype=float)
            if a1.shape != (self.g_dim, self.x_dim):
                raise ValueError(
                    f"pre-addition map must be ({self.g_dim}, {self.x_dim}), got {a1.shape}"
                )
        self.a = a
        self.a1 = a1
        # the linear rows [A1; A] that match_pl runs its sums on, stacked once
        self._a_stack = a if a1 is None else np.vstack((a1, a))
        self._g = g
        self._g_batch = g_batch
        self.g_eval_count = 0

    @property
    def y_dim(self) -> int:
        return self.g_dim + self.a.shape[0]

    def reset_g_eval_count(self):
        self.g_eval_count = 0

    def eval_g(self, z: np.ndarray) -> np.ndarray:
        self.g_eval_count += 1
        out = np.asarray(self._g(np.asarray(z, dtype=float)), dtype=float)
        if out.shape != (self.g_dim,):
            raise ValueError(f"g returned shape {out.shape}, expected ({self.g_dim},)")
        return out

    def eval_g_batch(self, zmat: np.ndarray) -> np.ndarray:
        zmat = np.asarray(zmat, dtype=float)
        n = zmat.shape[1]
        self.g_eval_count += n
        if self._g_batch is not None:
            out = np.asarray(self._g_batch(zmat), dtype=float)
        else:
            out = np.empty((self.g_dim, n))
            for j in range(n):
                out[:, j] = self._g(zmat[:, j])
        if out.shape != (self.g_dim, n):
            raise ValueError(f"batched g returned shape {out.shape}, expected ({self.g_dim}, {n})")
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        gz = self.eval_g(x[: self.z_dim])
        if self.a1 is not None:
            gz = gz + self.a1 @ x
        return np.concatenate((gz, self.a @ x))

    def eval_batch(self, xmat: np.ndarray) -> np.ndarray:
        xmat = np.asarray(xmat, dtype=float)
        gz = self.eval_g_batch(xmat[: self.z_dim])
        if self.a1 is not None:
            gz = gz + self.a1 @ xmat
        return np.vstack((gz, self.a @ xmat))


_STRICT_LOWER_MASKS: dict[int, np.ndarray] = {}


def _mirror_lower(b: np.ndarray) -> np.ndarray:
    """Symmetrize by mirroring the lower triangle onto the upper."""
    n = b.shape[0]
    mask = _STRICT_LOWER_MASKS.get(n)
    if mask is None:
        mask = np.tril(np.ones((n, n), dtype=bool), -1)
        _STRICT_LOWER_MASKS[n] = mask
    out = b.copy()
    out.T[mask] = b[mask]
    return out


def _eval_columns(f, xmat: np.ndarray) -> np.ndarray:
    if hasattr(f, "eval_batch"):
        return np.asarray(f.eval_batch(xmat), dtype=float)
    cols = [np.asarray(f(xmat[:, j]), dtype=float) for j in range(xmat.shape[1])]
    return np.column_stack(cols)


def match_full(f, m: np.ndarray, p: np.ndarray, rule: CubatureRule) -> JointGaussian:
    """Joint moments of ``x ~ N(m, p)`` and ``y = f(x)`` by plain cubature.

    ``f`` is evaluated once per integration point (column-wise when it
    exposes ``eval_batch``).  The input covariance must be symmetric positive
    definite; its full lower-triangular Cholesky factor maps the unit-space
    points into state space, so the points depend on the coordinate order of
    ``m`` and ``p``.  In the order :func:`match_pl` gets (nonlinear
    coordinates first) both use the same factor and agree up to roundoff.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (rule.dim,):
        raise ValueError(f"mean shape {m.shape} does not match rule dimension {rule.dim}")
    l = cholesky_full(p)
    if l.shape[0] != rule.dim:
        raise ValueError("covariance dimension does not match rule dimension")
    dx = l @ rule.points
    xpts = m[:, None] + dx
    ypts = _eval_columns(f, xpts)
    w = rule.weights
    m_y = ypts @ w
    dy = ypts - m_y[:, None]
    p_xy = (dx * w) @ dy.T
    p_yy = (dy * w) @ dy.T
    return JointGaussian(m_x=m, m_y=m_y, p_xx=np.asarray(p, dtype=float), p_xy=p_xy, p_yy=p_yy)


def match_pl(
    plf: PartiallyLinearFunction,
    m: np.ndarray,
    p: np.ndarray,
    cr: ClassifiedRule,
) -> JointGaussian:
    """Structured moment matching for ``y = [A1 x + g(z); A x]``.

    Evaluates ``g`` once at the input z-mean plus once per deduplicated
    nonlinear point and factorizes only the leading ``z`` columns of the input
    covariance.  The collapsed sums run on the stacked linear rows ``[A1; A]``;
    the ``A1`` block is then folded onto the ``g`` block.
    """
    if plf.x_dim != cr.dim:
        raise ValueError(f"function x_dim {plf.x_dim} does not match rule dimension {cr.dim}")
    if plf.z_dim != cr.z_dim:
        raise ValueError(f"function z_dim {plf.z_dim} does not match rule z_dim {cr.z_dim}")
    m = np.asarray(m, dtype=float)
    if m.shape != (cr.dim,):
        raise ValueError(f"mean shape {m.shape} does not match dimension {cr.dim}")
    z = cr.z_dim

    # deduplicated leading blocks; their trailing coordinates are zero, so the
    # first z columns of the Cholesky factor map them into state space
    uq = unique_nonlinear(cr)
    s_z = uq.points
    w_z = uq.weights
    pc = cholesky_partial(p, z)
    l_xi = pc.column_block() @ s_z  # (X, n)

    m_z = m[:z]
    # one batched call: column 0 is the z-mean (evaluated once, reused below),
    # the rest are the nonlinear points
    zpts = np.empty((z, s_z.shape[1] + 1))
    zpts[:, 0] = m_z
    zpts[:, 1:] = m_z[:, None] + pc.lnn @ s_z
    g_all = plf.eval_g_batch(zpts)
    g0 = g_all[:, 0]
    g_z = g_all[:, 1:]

    a = plf._a_stack
    n1 = a.shape[0] - plf.a.shape[0]  # rows of A1, folded onto the g block
    w_cl = cr.w_cl
    top = w_cl * g0 + g_z @ w_z
    a_m = a @ m

    u = -top
    u_l = g0 + u
    gc = g_z + u[:, None]  # = G_z + C_z with C_z = u 1^T

    p = np.asarray(p, dtype=float)
    p_at = p @ a.T
    pxy_nl = (l_xi * w_z) @ g_z.T  # (X, G)
    a_pxy = a @ pxy_nl
    a_pat = a @ p_at

    g_dim = plf.g_dim
    m_y = np.concatenate((top, a_m[n1:]))
    p_xy = np.hstack((pxy_nl, p_at[:, n1:]))
    p_yy = np.empty((plf.y_dim, plf.y_dim))
    p_yy[:g_dim, :g_dim] = (gc * w_z) @ gc.T + w_cl * np.outer(u_l, u_l)
    p_yy[g_dim:, :g_dim] = a_pxy[n1:]
    p_yy[g_dim:, g_dim:] = a_pat[n1:, n1:]
    if n1:
        m_y[:g_dim] += a_m[:n1]
        p_xy[:, :g_dim] += p_at[:, :n1]
        p_yy[:g_dim, :g_dim] += a_pxy[:n1].T
        p_yy[:g_dim, :g_dim] += a_pxy[:n1]
        p_yy[:g_dim, :g_dim] += a_pat[:n1, :n1]
        p_yy[g_dim:, :g_dim] += a_pat[n1:, :n1]
    p_yy = _mirror_lower(p_yy)  # fills the upper blocks and pins symmetry
    return JointGaussian(m_x=m, m_y=m_y, p_xx=p, p_xy=p_xy, p_yy=p_yy)
