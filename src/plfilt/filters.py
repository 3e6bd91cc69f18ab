"""Filtering recursions: the generic sigma-point filter, its structured
variant that exploits partially linear models, and the Gaussian conditioning
update they share.

Both step functions consume a measurement, return a fresh state (states are
never mutated in place) and assume additive Gaussian noise: the matched
covariance of the flow gains ``Q`` and the matched measurement covariance
gains ``R``.  Models with noise entering nonlinearly are out of scope.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .cubature import ClassifiedRule
from .errors import (
    FilterStepError,
    InnovationDegenerateError,
    NotPositiveDefiniteError,
    PlfiltError,
)
from .linalg import (
    _check_square,
    _check_symmetric,
    cholesky_full,
    mirror_lower,
    permute_moments,
)
from .moments import (
    GaussianMoments,
    JointGaussian,
    PartiallyLinearFunction,
    _plain_sums,
    _structured_sums,
    match_full,
    match_pl,
)


@dataclass(frozen=True)
class EstimationModel:
    """A state-space model in the form both filter variants consume.

    The state's order is chosen so the flow's nonlinear coordinates lead:
    ``flow`` maps the state to the next state in those same coordinates.
    Only the measurement is stored permuted: ``meas_perm``, an integer
    array holding each of ``0..X-1`` once, gathers the state so the
    measurement's nonlinear coordinates lead, and ``measurement`` maps that
    gathered state to measurement space; both filters match it on the
    gathered predicted moments.  The order is kept as a read-only ``intp``
    copy.  ``q`` and ``r`` are the additive noise covariances in state and
    measurement coordinates; each is checked positive definite and stored
    exactly symmetric (``(q + qᵀ) / 2``), so every covariance a step builds
    from them is exactly symmetric too.
    """

    flow: PartiallyLinearFunction
    q: np.ndarray
    flow_rule: ClassifiedRule
    measurement: PartiallyLinearFunction
    r: np.ndarray
    meas_perm: np.ndarray
    meas_rule: ClassifiedRule

    def __post_init__(self):
        x = self.flow.x_dim
        y = self.measurement.y_dim
        q = np.asarray(self.q, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if self.flow.y_dim != x:
            raise ValueError("flow must map the state onto itself")
        if self.measurement.x_dim != x:
            raise ValueError("measurement input dimension does not match the state")
        if q.shape != (x, x) or r.shape != (y, y):
            raise ValueError("noise covariance shapes do not match the model")
        order = np.asarray(self.meas_perm)  # not cast: 0.2 or True is no index
        valid = order.dtype.kind in "iu" and order.shape == (x,)
        if not (valid and np.array_equal(np.sort(order), np.arange(x))):
            raise ValueError(f"meas_perm must be an integer array holding each of 0..{x - 1} once")
        for rule, plf, tag in (
            (self.flow_rule, self.flow, "flow"),
            (self.meas_rule, self.measurement, "measurement"),
        ):
            if rule.dim != x or rule.z_dim != plf.z_dim:
                raise ValueError(f"{tag} rule does not match the {tag} function")
        cholesky_full(q)  # SPD checks; raise early rather than mid-run
        cholesky_full(r)
        object.__setattr__(self, "q", 0.5 * (q + q.T))
        object.__setattr__(self, "r", 0.5 * (r + r.T))
        order = order.astype(np.intp)  # a copy that no caller holds
        order.flags.writeable = False
        object.__setattr__(self, "meas_perm", order)
        object.__setattr__(self, "_meas_inverse", np.argsort(order))  # back to state order

    @property
    def x_dim(self) -> int:
        return self.flow.x_dim

    @property
    def y_dim(self) -> int:
        return self.measurement.y_dim


@dataclass(frozen=True)
class FilterState:
    """Posterior mean/covariance at time index ``k``.

    ``prediction`` is the step's predicted joint Gaussian of state and
    measurement, the one :func:`kalman_update` conditioned on ``y``, in state
    coordinates with the measurement noise included.  It is kept only when
    a step is asked to keep diagnostics; the extra storage is unwanted in
    long runs.
    """

    k: int
    mean: np.ndarray
    cov: np.ndarray
    prediction: JointGaussian | None = None


#: Columns of ``L`` per panel of the right-side solve in :func:`kalman_update`.
_PANEL = 64


def _solve_right_lower_t(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``B L^-T`` for a lower-triangular ``L``, as a new Fortran-ordered array.

    Panel ``J`` of the result solves ``W_J L_JJ^T = B_J - W_<J L_J,<J^T``:
    one ``dgemm`` subtracts the panels already solved and one small
    ``dtrsm`` solves the panel, both in place on one Fortran-ordered copy of
    ``B``.  This is the flop count of one right-side ``dtrsm``, with all but
    the diagonal blocks' share in ``dgemm``, which runs several times
    faster; with at most :data:`_PANEL` columns the loop runs once, as one
    ``dtrsm``.
    """
    n = b.shape[1]
    w = np.array(b, dtype=float, order="F")
    for j0 in range(0, n, _PANEL):
        j1 = min(j0 + _PANEL, n)
        panel = w[:, j0:j1]  # a Fortran-ordered view, written in place
        if j0:
            blas.dgemm(-1.0, w[:, :j0], l[j0:j1, :j0], beta=1.0, c=panel, trans_b=1, overwrite_c=1)
        blas.dtrsm(1.0, l[j0:j1, j0:j1], panel, side=1, lower=1, trans_a=1, overwrite_b=1)
    return w


def kalman_update(joint: JointGaussian, y: np.ndarray) -> GaussianMoments:
    """Condition the joint Gaussian of ``x`` and ``y`` on an observed ``y``.

    With ``S = L L^T`` the factor of ``p_yy``, ``W = P_xy L^-T`` is solved
    on a Fortran-ordered copy of ``P_xy``, panel by panel over
    :data:`_PANEL` columns of ``L`` (see :func:`_solve_right_lower_t`), and a
    vector ``dtrtrs`` gives ``e = L^-1 (y - m_y)``; the posterior is
    ``m_x + W e`` (``dgemv``) and ``P_xx - W W^T`` (one ``dsyrk`` on the
    lower triangle of ``P_xx``, mirrored, so exactly symmetric).  ``dsyrk``
    gets ``P_xx^T``, which is Fortran-ordered where ``P_xx`` is C-ordered,
    and updates its upper triangle, so the copy it makes is a plain one.
    A joint whose blocks' shapes disagree, or a misshapen or non-finite
    ``y``, raises ``ValueError``.
    """
    x, n = joint.x_dim, joint.y_dim
    shapes = (joint.m_x.shape, joint.p_xx.shape, joint.p_xy.shape, joint.p_yy.shape)
    if shapes != ((x,), (x, x), (x, n), (n, n)):
        raise ValueError(f"inconsistent joint shapes (m_x, p_xx, p_xy, p_yy): {shapes}")
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"measurement shape {y.shape} does not match joint dimension {n}")
    if not np.isfinite(y).all():
        raise ValueError("measurement contains non-finite values")
    try:
        l = cholesky_full(joint.p_yy)
    except NotPositiveDefiniteError as exc:
        raise InnovationDegenerateError(
            f"innovation covariance not positive definite (pivot {exc.pivot})"
        ) from exc
    # positive diagonal: neither solve meets a singular L
    w = _solve_right_lower_t(l, joint.p_xy)
    e, _ = lapack.dtrtrs(l, y - joint.m_y, lower=1, overwrite_b=1)
    mean = blas.dgemv(1.0, w, e, beta=1.0, y=joint.m_x)
    cov_t = blas.dsyrk(-1.0, w, beta=1.0, c=joint.p_xx.T, lower=0)
    return GaussianMoments(mean=mean, cov=mirror_lower(cov_t.T))


def _step(
    state: FilterState,
    model: EstimationModel,
    y: np.ndarray,
    keep_prediction: bool,
    sums,
    match,
    flow_rule,
    meas_rule,
) -> FilterState:
    """The predict/update cycle both filters share.  The leading two results
    of ``sums(f, m, p, flow_rule)`` are the mean and covariance of the
    flow's output, all a step reads of the flow; ``match(f, m, p,
    meas_rule)`` matches the measurement jointly with the state gathered by
    ``model.meas_perm``.  Both return a fresh, exactly symmetric output
    covariance, onto which the step adds the model's noise in place; the
    model's noise is stored exactly symmetric, so the predicted, gathered
    and innovation covariances are exactly symmetric as built.
    ``state.cov`` is the one covariance a step does not build, so it is
    checked on entry (finite, and symmetric within
    :data:`~plfilt.linalg.SYMMETRY_RTOL`), before either matcher reads a
    part of it.  Input within the tolerance whose triangles differ is
    stepped on with its lower triangle mirrored, the triangle the
    factorizations read, so the structured flow's ``A P`` reads the same
    matrix too.  A library error raised past that check surfaces as a
    :class:`FilterStepError` with the step index and the phase the one
    ``try`` was in: ``predict`` through the gather, ``measure`` through the
    joint, ``update`` through the posterior check."""
    cov = _check_square(state.cov)
    if not _check_symmetric(cov, cov.T):
        cov = mirror_lower(cov)
    k_next = state.k + 1
    phase = "predict"
    try:
        m_pred, p_pred = sums(model.flow, state.mean, cov, flow_rule)[:2]
        p_pred += model.q
        m_bar, p_bar = permute_moments(model.meas_perm, m_pred, p_pred)
        phase = "measure"
        jm = match(model.measurement, m_bar, p_bar, meas_rule)
        # only the cross covariance's rows go back to state coordinates
        p_xy = jm.p_xy.take(model._meas_inverse, axis=0)
        p_yy = jm.p_yy
        p_yy += model.r
        joint = JointGaussian(m_x=m_pred, m_y=jm.m_y, p_xx=p_pred, p_xy=p_xy, p_yy=p_yy)
        phase = "update"
        post = kalman_update(joint, y)
        cholesky_full(post.cov)  # the posterior must stay positive definite
    except PlfiltError as exc:
        raise FilterStepError(k_next, phase, str(exc)) from exc
    return FilterState(
        k=k_next, mean=post.mean, cov=post.cov, prediction=joint if keep_prediction else None
    )


def lrkf_step(
    state: FilterState,
    model: EstimationModel,
    y: np.ndarray,
    keep_prediction: bool = False,
) -> FilterState:
    """One predict/update cycle of the plain sigma-point filter.

    Both the flow and the measurement are pushed through the full cubature
    sums; the model functions are evaluated at every point of the
    materialized rules.  The flow's sums stop at its output covariance,
    since the step never reads the flow's cross covariance.  The
    measurement is matched in the same gathered coordinates as in
    :func:`pl_lrkf_step`, so both filters use the same sigma points and
    agree up to roundoff.
    """
    flow_rule, meas_rule = model.flow_rule.base, model.meas_rule.base
    if flow_rule is None or meas_rule is None:
        raise ValueError("the unstructured filter path needs materialized rules")
    return _step(state, model, y, keep_prediction, _plain_sums, match_full, flow_rule, meas_rule)


def pl_lrkf_step(
    state: FilterState,
    model: EstimationModel,
    y: np.ndarray,
    keep_prediction: bool = False,
) -> FilterState:
    """One predict/update cycle of the structured filter.

    The flow is matched in state coordinates, where its nonlinear
    coordinates already lead.  The predicted moments are then gathered so
    the measurement's nonlinear coordinates lead, and the measurement is
    matched there; only the rows of the matched cross covariance are
    gathered back, and the conditioning step runs in state coordinates.
    Each match factorizes only the leading columns of its covariance.  This
    is the same cycle as :func:`lrkf_step` on the same sigma points, so the
    two agree up to roundoff while this one evaluates only the nonlinear
    blocks of the model functions.
    """
    return _step(
        state, model, y, keep_prediction, _structured_sums, match_pl,
        model.flow_rule, model.meas_rule,
    )
