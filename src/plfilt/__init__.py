"""Sigma-point Kalman filtering with fast paths for partially linear models.

The library builds symmetric cubature rules (spherical, unscented,
Gauss-Hermite), matches Gaussian moments through nonlinear functions, and
runs the corresponding filters.  When a model is nonlinear in only a few
leading state coordinates, the structured code paths evaluate the nonlinear
block at a point count governed by those coordinates alone and factorize the
covariance only partially, at no loss of accuracy relative to the plain
sigma-point sums.
"""

from .cubature import (
    DEFAULT_POINT_BUDGET,
    ClassifiedRule,
    CubatureRule,
    RuleKind,
    classify,
    gauss_hermite_rule,
    hermite_1d,
    make_classified,
    make_rule,
    rule_checks,
    spherical_rule,
    unique_nonlinear,
    unscented_rule,
)
from .errors import (
    FilterStepError,
    InnovationDegenerateError,
    NotPositiveDefiniteError,
    PlfiltError,
    PointBudgetExceededError,
    SingularGeometryError,
)
from .filters import (
    EstimationModel,
    FilterState,
    kalman_update,
    lrkf_step,
    pl_lrkf_step,
)
from .linalg import (
    PartialCholesky,
    cholesky_full,
    cholesky_partial,
    permute_moments,
)
from .models import (
    BearingSensorParams,
    SingerParams,
    TrackingData,
    bearing,
    benchmark_function,
    fusion_model,
    position_front_permutation,
    simulate_tracking,
    singer_model,
    stacked_bearings,
    stacked_bearings_batch,
)
from .moments import (
    GaussianMoments,
    JointGaussian,
    PartiallyLinearFunction,
    match_full,
    match_pl,
)

__version__ = "0.1.0"

__all__ = [
    "BearingSensorParams",
    "ClassifiedRule",
    "CubatureRule",
    "DEFAULT_POINT_BUDGET",
    "EstimationModel",
    "FilterState",
    "FilterStepError",
    "GaussianMoments",
    "InnovationDegenerateError",
    "JointGaussian",
    "NotPositiveDefiniteError",
    "PartialCholesky",
    "PartiallyLinearFunction",
    "PlfiltError",
    "PointBudgetExceededError",
    "RuleKind",
    "SingerParams",
    "SingularGeometryError",
    "TrackingData",
    "bearing",
    "benchmark_function",
    "cholesky_full",
    "cholesky_partial",
    "classify",
    "fusion_model",
    "gauss_hermite_rule",
    "hermite_1d",
    "kalman_update",
    "lrkf_step",
    "make_classified",
    "make_rule",
    "match_full",
    "match_pl",
    "permute_moments",
    "pl_lrkf_step",
    "position_front_permutation",
    "rule_checks",
    "simulate_tracking",
    "singer_model",
    "spherical_rule",
    "stacked_bearings",
    "stacked_bearings_batch",
    "unique_nonlinear",
    "unscented_rule",
]
