"""Filtering recursions: the generic sigma-point filter, its structured
variant that exploits partially linear models, and the Gaussian conditioning
update they share.

Both step functions consume a measurement, return a fresh state (states are
never mutated in place) and assume additive Gaussian noise: the matched
covariance of the flow gains ``Q`` and the matched measurement covariance
gains ``R``.  Models with noise entering nonlinearly are out of scope.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .cubature import ClassifiedRule
from .errors import (
    FilterStepError,
    InnovationDegenerateError,
    NotPositiveDefiniteError,
    PlfiltError,
)
from .linalg import Permutation, cholesky_full, permute_moments
from .moments import (
    GaussianMoments,
    JointGaussian,
    PartiallyLinearFunction,
    match_full,
    match_pl,
)


@dataclass(frozen=True)
class EstimationModel:
    """A state-space model in the form both filter variants consume.

    The state's order is chosen so the flow's nonlinear coordinates lead:
    ``flow`` maps the state to the next state in those same coordinates.
    Only the measurement is stored permuted: ``meas_perm`` gathers the state
    so its nonlinear coordinates lead, and ``measurement`` maps that permuted
    state to measurement space; both filters match it on the permuted
    predicted moments.  ``q`` and ``r`` are the additive noise covariances in
    state and measurement coordinates.
    """

    flow: PartiallyLinearFunction
    q: np.ndarray
    flow_rule: ClassifiedRule
    measurement: PartiallyLinearFunction
    r: np.ndarray
    meas_perm: Permutation
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
        if self.meas_perm.size != x:
            raise ValueError("permutation size does not match the state dimension")
        for rule, plf, tag in (
            (self.flow_rule, self.flow, "flow"),
            (self.meas_rule, self.measurement, "measurement"),
        ):
            if rule.dim != x or rule.z_dim != plf.z_dim:
                raise ValueError(f"{tag} rule does not match the {tag} function")
        cholesky_full(q)  # SPD checks; raise early rather than mid-run
        cholesky_full(r)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    @property
    def x_dim(self) -> int:
        return self.flow.x_dim

    @property
    def y_dim(self) -> int:
        return self.measurement.y_dim


@dataclass(frozen=True)
class PredictionRecord:
    """Predicted state and measurement moments kept for diagnostics."""

    mean: np.ndarray
    cov: np.ndarray
    meas_mean: np.ndarray
    meas_cov: np.ndarray
    cross_cov: np.ndarray


@dataclass(frozen=True)
class FilterState:
    """Posterior mean/covariance at time index ``k``.

    ``prediction`` is populated only when a step is asked to keep
    diagnostics; the extra storage is unwanted in long runs.
    """

    k: int
    mean: np.ndarray
    cov: np.ndarray
    prediction: PredictionRecord | None = None


def kalman_update(prior: GaussianMoments, joint: JointGaussian, y: np.ndarray) -> GaussianMoments:
    """Condition a Gaussian on a measurement via the matched joint moments.

    The gain solves against the Cholesky factor of the innovation covariance
    (no explicit inverse); the posterior covariance is computed as
    ``P - K S K^T`` and re-symmetrized.  A misshapen or non-finite
    measurement raises ``ValueError``.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (joint.y_dim,):
        raise ValueError(f"measurement shape {y.shape} does not match joint dimension {joint.y_dim}")
    if not np.isfinite(y).all():
        raise ValueError("measurement contains non-finite values")
    try:
        l = cholesky_full(joint.p_yy)
    except NotPositiveDefiniteError as exc:
        raise InnovationDegenerateError(
            f"innovation covariance not positive definite (pivot {exc.pivot})"
        ) from exc
    gain = cho_solve((l, True), joint.p_xy.T).T
    mean = prior.mean + gain @ (y - joint.m_y)
    cov = prior.cov - gain @ joint.p_yy @ gain.T
    cov = 0.5 * (cov + cov.T)
    return GaussianMoments(mean=mean, cov=cov)


@contextmanager
def _phase(step: int, phase: str):
    """Report a library error raised inside one phase of a step as a
    :class:`FilterStepError` carrying the step index and the phase."""
    try:
        yield
    except PlfiltError as exc:
        raise FilterStepError(step, phase, str(exc)) from exc


def _match_materialized(f, m: np.ndarray, p: np.ndarray, cr: ClassifiedRule) -> JointGaussian:
    return match_full(f, m, p, cr.base)


def _step(
    state: FilterState, model: EstimationModel, y: np.ndarray, keep_prediction: bool, match
) -> FilterState:
    """The predict/update cycle both filters share; ``match(f, m, p, cr)``
    matches one model function on a classified rule."""
    k_next = state.k + 1
    with _phase(k_next, "predict"):
        jt = match(model.flow, state.mean, state.cov, model.flow_rule)
    m_pred = jt.m_y
    p_pred = 0.5 * (jt.p_yy + jt.p_yy.T) + model.q

    m_bar, p_bar = permute_moments(model.meas_perm, m_pred, p_pred)
    with _phase(k_next, "measure"):
        jm = match(model.measurement, m_bar, p_bar, model.meas_rule)
    # only the cross covariance's rows go back to state coordinates
    p_xy = jm.p_xy[model.meas_perm.inverse.indices]
    joint = JointGaussian(m_x=m_pred, m_y=jm.m_y, p_xx=p_pred, p_xy=p_xy, p_yy=jm.p_yy + model.r)
    with _phase(k_next, "update"):
        post = kalman_update(GaussianMoments(m_pred, p_pred), joint, y)
        cholesky_full(post.cov)  # the posterior must stay positive definite
    record = None
    if keep_prediction:
        record = PredictionRecord(m_pred, p_pred, joint.m_y, joint.p_yy, p_xy)
    return FilterState(k=k_next, mean=post.mean, cov=post.cov, prediction=record)


def lrkf_step(
    state: FilterState,
    model: EstimationModel,
    y: np.ndarray,
    keep_prediction: bool = False,
) -> FilterState:
    """One predict/update cycle of the plain sigma-point filter.

    Both the flow and the measurement are pushed through the full cubature
    sums; the model functions are evaluated at every point of the
    materialized rules.  The measurement is matched in the same permuted
    coordinates as in :func:`pl_lrkf_step`, so both filters use the same
    sigma points and agree up to roundoff.
    """
    if model.flow_rule.base is None or model.meas_rule.base is None:
        raise ValueError("the unstructured filter path needs materialized rules")
    return _step(state, model, y, keep_prediction, _match_materialized)


def pl_lrkf_step(
    state: FilterState,
    model: EstimationModel,
    y: np.ndarray,
    keep_prediction: bool = False,
) -> FilterState:
    """One predict/update cycle of the structured filter.

    The flow is matched in state coordinates, where its nonlinear
    coordinates already lead.  The predicted moments are then permuted so
    the measurement's nonlinear coordinates lead, and the measurement is
    matched there; only the rows of the matched cross covariance are
    permuted back, and the conditioning step runs in state coordinates.
    Each match factorizes only the leading columns of its covariance.  This
    is the same cycle as :func:`lrkf_step` on the same sigma points, so the
    two agree up to roundoff while this one evaluates only the nonlinear
    blocks of the model functions.
    """
    return _step(state, model, y, keep_prediction, match_pl)
