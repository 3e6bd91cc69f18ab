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
    state to measurement space.  ``q`` and ``r`` are the additive noise
    covariances in state and measurement coordinates.
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

    def measurement_function(self):
        """The measurement in state coordinates."""
        return _PermutedMap(self.measurement, self.meas_perm)


class _PermutedMap:
    """Adapter evaluating a function stored in permuted coordinates on
    state-coordinate inputs."""

    def __init__(self, plf: PartiallyLinearFunction, perm: Permutation):
        self._plf = plf
        self._idx = perm.indices

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._plf(np.asarray(x, dtype=float)[self._idx])

    def eval_batch(self, xmat: np.ndarray) -> np.ndarray:
        return self._plf.eval_batch(np.asarray(xmat, dtype=float)[self._idx])


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


def _symmetrized(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


@contextmanager
def _phase(step: int, phase: str):
    """Report a library error raised inside one phase of a step as a
    :class:`FilterStepError` carrying the step index and the phase."""
    try:
        yield
    except PlfiltError as exc:
        raise FilterStepError(step, phase, str(exc)) from exc


def lrkf_step(
    state: FilterState,
    model: EstimationModel,
    y: np.ndarray,
    keep_prediction: bool = False,
) -> FilterState:
    """One predict/update cycle of the plain sigma-point filter.

    Both the flow and the measurement are pushed through the full cubature
    sums; the stacked model functions are evaluated at every point of the
    materialized rules.
    """
    k_next = state.k + 1
    if model.flow_rule.base is None or model.meas_rule.base is None:
        raise ValueError("the unstructured filter path needs materialized rules")
    with _phase(k_next, "predict"):
        jt = match_full(model.flow, state.mean, state.cov, model.flow_rule.base)
    m_pred = jt.m_y
    p_pred = _symmetrized(jt.p_yy) + model.q
    with _phase(k_next, "measure"):
        jm = match_full(model.measurement_function(), m_pred, p_pred, model.meas_rule.base)
    joint = JointGaussian(
        m_x=m_pred, m_y=jm.m_y, p_xx=p_pred, p_xy=jm.p_xy, p_yy=jm.p_yy + model.r
    )
    with _phase(k_next, "update"):
        post = kalman_update(GaussianMoments(m_pred, p_pred), joint, y)
        cholesky_full(post.cov)  # the posterior must stay positive definite
    record = None
    if keep_prediction:
        record = PredictionRecord(m_pred, p_pred, joint.m_y, joint.p_yy, joint.p_xy)
    return FilterState(k=k_next, mean=post.mean, cov=post.cov, prediction=record)


def pl_lrkf_step(
    state: FilterState,
    model: EstimationModel,
    y: np.ndarray,
    keep_prediction: bool = False,
) -> FilterState:
    """One predict/update cycle of the structured filter.

    The flow is matched in state coordinates, where its nonlinear
    coordinates already lead.  The predicted moments are then permuted so
    the measurement's nonlinear coordinates lead; the measurement match and
    the conditioning step run in those coordinates, and the posterior is
    permuted back at the end.  Each match factorizes only the leading
    columns of its covariance.  On identical rules and models this
    reproduces :func:`lrkf_step` up to roundoff while evaluating only the
    nonlinear blocks of the model functions.
    """
    k_next = state.k + 1
    th = model.meas_perm
    with _phase(k_next, "predict"):
        jt = match_pl(model.flow, state.mean, state.cov, model.flow_rule)
    m_pred = jt.m_y
    p_pred = _symmetrized(jt.p_yy) + model.q

    m_bar, p_bar = permute_moments(th, m_pred, p_pred)
    with _phase(k_next, "measure"):
        jm = match_pl(model.measurement, m_bar, p_bar, model.meas_rule)
    joint = JointGaussian(
        m_x=m_bar, m_y=jm.m_y, p_xx=p_bar, p_xy=jm.p_xy, p_yy=jm.p_yy + model.r
    )
    with _phase(k_next, "update"):
        post_bar = kalman_update(GaussianMoments(m_bar, p_bar), joint, y)
        mean, cov = permute_moments(th.inverse, post_bar.mean, post_bar.cov)
        cholesky_full(cov)  # the posterior must stay positive definite
    record = None
    if keep_prediction:
        # cross covariance back in state coordinates
        cross = joint.p_xy[th.inverse.indices]
        record = PredictionRecord(m_pred, p_pred, joint.m_y, joint.p_yy, cross)
    return FilterState(k=k_next, mean=mean, cov=cov, prediction=record)
