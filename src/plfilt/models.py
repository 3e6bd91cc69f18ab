"""Estimation models used by the benchmark and tracking harnesses: the
quadratic benchmark function, multi-agent Singer kinematics, bearing-angle
sensing from a base station at the origin, and the fused model combining
bearings with transmitted per-agent state estimates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cubature import classify, spherical_rule
from .errors import SingularGeometryError
from .filters import EstimationModel
from .moments import PartiallyLinearFunction

# ---------------------------------------------------------------------------
# Singer maneuvering-target kinematics (Singer 1970).
#
# Per axis the state is (position, velocity, acceleration) with the
# acceleration an Ornstein-Uhlenbeck process of time constant tau and
# stationary variance sigma_m2.  With a = 1/tau, u = a*dt and r = exp(-u),
# the exact discretization is
#
#   A = [[1, dt, (u - 1 + r) / a^2],
#        [0,  1,      (1 - r) / a ],
#        [0,  0,           r      ]]
#
#   Q = sigma_m2 *
#     [[ (1 - r^2 + 2u + 2u^3/3 - 2u^2 - 4u r) / a^4,
#        (r^2 + 1 - 2r + 2u r - 2u + u^2)      / a^3,
#        (1 - r^2 - 2u r)                      / a^2 ],
#      [  sym,
#        (4r - 3 - r^2 + 2u)                   / a^2,
#        (r^2 + 1 - 2r)                        / a   ],
#      [  sym, sym,  1 - r^2                         ]]
#
# The bracketed combinations cancel to high order in u, so for small u they
# are evaluated from their exact power series instead (coefficients built
# with rational arithmetic below; the analytically-zero leading terms cancel
# exactly there, which float arithmetic would not guarantee).
# ---------------------------------------------------------------------------

_SERIES_TERMS = 18
_SERIES_SWITCH = 0.25


def _series_tables():
    n = _SERIES_TERMS
    fact = [math.factorial(k) for k in range(n)]
    e1 = [Fraction((-1) ** k, fact[k]) for k in range(n)]  # exp(-u)
    e2 = [Fraction((-2) ** k, fact[k]) for k in range(n)]  # exp(-2u)

    def poly(*pairs):
        out = [Fraction(0)] * n
        for coef, power in pairs:
            out[power] += Fraction(coef)
        return out

    def comb(*terms):
        out = [Fraction(0)] * n
        for coef, series, shift in terms:
            for k, c in enumerate(series):
                if k + shift < n:
                    out[k + shift] += Fraction(coef) * c
        return out

    one = poly((1, 0))
    brackets = {
        # bracket series, and the power of u the closed form divides by
        "q11": (comb((1, one, 0), (-1, e2, 0), (2, one, 1), (Fraction(2, 3), one, 3),
                     (-2, one, 2), (-4, e1, 1)), 4),
        "q12": (comb((1, e2, 0), (1, one, 0), (-2, e1, 0), (2, e1, 1),
                     (-2, one, 1), (1, one, 2)), 3),
        "q13": (comb((1, one, 0), (-1, e2, 0), (-2, e1, 1)), 2),
        "q22": (comb((4, e1, 0), (-3, one, 0), (-1, e2, 0), (2, one, 1)), 2),
        "q23": (comb((1, e2, 0), (1, one, 0), (-2, e1, 0)), 1),
        "q33": (comb((1, one, 0), (-1, e2, 0)), 0),
        "c1": (comb((1, one, 0), (-1, e1, 0)), 1),
        "c2": (comb((1, one, 1), (-1, one, 0), (1, e1, 0)), 2),
    }
    tables = {}
    for name, (series, divide) in brackets.items():
        for k in range(divide):
            if series[k] != 0:
                raise AssertionError(f"series for {name} must start at u^{divide}")
        tables[name] = np.array([float(c) for c in series[divide:]])
    return tables


_SERIES = _series_tables()


def _eval_series(name: str, u: float) -> float:
    acc = 0.0
    for c in _SERIES[name][::-1]:
        acc = acc * u + c
    return acc


@dataclass(frozen=True)
class SingerParams:
    """Discrete Singer model parameters shared by all agents.

    ``sigma_m2`` is the maneuver-acceleration variance ((m/s^2)^2).
    """

    dt: float = 0.1
    tau: float = 2.0
    sigma_m2: float = 1.0
    agents: int = 1

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.sigma_m2 > 0.0:
            raise ValueError(f"sigma_m2 must be positive, got {self.sigma_m2}")
        if self.agents < 1:
            raise ValueError(f"agent count must be >= 1, got {self.agents}")


def _singer_axis(dt: float, tau: float, sigma_m2: float):
    a = 1.0 / tau
    u = dt / tau
    if u < _SERIES_SWITCH:
        c1 = dt * _eval_series("c1", u)
        c2 = dt**2 * _eval_series("c2", u)
        q11 = dt**4 * _eval_series("q11", u)
        q12 = dt**3 * _eval_series("q12", u)
        q13 = dt**2 * _eval_series("q13", u)
        q22 = dt**2 * _eval_series("q22", u)
        q23 = dt * _eval_series("q23", u)
        q33 = _eval_series("q33", u)
    else:
        r = math.exp(-u)
        r2 = math.exp(-2.0 * u)
        c1 = (1.0 - r) / a
        c2 = (u - 1.0 + r) / a**2
        q11 = (1.0 - r2 + 2.0 * u + 2.0 * u**3 / 3.0 - 2.0 * u**2 - 4.0 * u * r) / a**4
        q12 = (r2 + 1.0 - 2.0 * r + 2.0 * u * r - 2.0 * u + u**2) / a**3
        q13 = (1.0 - r2 - 2.0 * u * r) / a**2
        q22 = (4.0 * r - 3.0 - r2 + 2.0 * u) / a**2
        q23 = (r2 + 1.0 - 2.0 * r) / a
        q33 = 1.0 - r2
    rho = math.exp(-u)
    a3 = np.array([[1.0, dt, c2], [0.0, 1.0, c1], [0.0, 0.0, rho]])
    q3 = sigma_m2 * np.array([[q11, q12, q13], [q12, q22, q23], [q13, q23, q33]])
    return a3, q3


def singer_model(params: SingerParams):
    """Stacked transition and process-noise matrices for all agents.

    Per agent the state is ordered (p, v, a) with three axes each, so the
    9x9 agent block is the per-axis triplet Kronecker-expanded over axes; the
    full matrices repeat that block once per agent.
    """
    a3, q3 = _singer_axis(params.dt, params.tau, params.sigma_m2)
    eye3 = np.eye(3)
    a_agent = np.kron(a3, eye3)
    q_agent = np.kron(q3, eye3)
    n = params.agents
    return _block_diagonal_matrix(n, a_agent), _block_diagonal_matrix(n, q_agent)


def _block_diagonal_matrix(n: int, block: np.ndarray) -> np.ndarray:
    """``np.kron(np.eye(n), block)`` for a square ``block``: ``n`` copies
    of it written on the diagonal of a zeroed matrix, where the Kronecker
    product forms every entry as a product and copies it again."""
    b = block.shape[0]
    out = np.zeros((n * b, n * b))
    diag = np.arange(n)
    out.reshape(n, b, n, b)[diag, :, diag] = block
    return out


# ---------------------------------------------------------------------------
# Bearing measurements from a base station fixed at the origin.
# ---------------------------------------------------------------------------

MIN_RANGE = 1e-9  # below this the angles are undefined


def bearing(p) -> np.ndarray:
    """Azimuth/inclination of a position seen from the origin, in radians.

    Azimuth is atan2(y, x) in (-pi, pi]; inclination is the angle from the
    +z axis, atan2(hypot(x, y), z) in [0, pi].  At the zenith (x = y = 0) the
    azimuth is 0 by convention.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {p.shape}")
    if np.linalg.norm(p) < MIN_RANGE:
        raise SingularGeometryError("target is at the base station; bearings undefined")
    return np.array([math.atan2(p[1], p[0]), math.atan2(math.hypot(p[0], p[1]), p[2])])


def stacked_bearings(positions: np.ndarray, n_agents: int) -> np.ndarray:
    """Bearings of ``n_agents`` stacked positions (a 3N vector)."""
    return stacked_bearings_batch(np.asarray(positions, dtype=float)[:, None], n_agents)[:, 0]


def stacked_bearings_batch(positions: np.ndarray, n_agents: int) -> np.ndarray:
    """Column-wise stacked bearings of a (3N, m) batch of position stacks."""
    z = np.asarray(positions, dtype=float)
    if z.shape[0] != 3 * n_agents:
        raise ValueError(f"expected {3 * n_agents} rows, got {z.shape[0]}")
    m = z.shape[1]
    px, py, pz = z.reshape(n_agents, 3, m).transpose(1, 0, 2)  # each (N, m)
    horiz = np.hypot(px, py)
    if (np.hypot(horiz, pz) < MIN_RANGE).any():
        raise SingularGeometryError("a point is at the base station; bearings undefined")
    out = np.empty((n_agents, 2, m))
    np.arctan2(py, px, out=out[:, 0])
    np.arctan2(horiz, pz, out=out[:, 1])
    return out.reshape(2 * n_agents, m)


@dataclass(frozen=True)
class BearingSensorParams:
    """Base-station sensing parameters.

    ``reported_cov`` is the covariance each agent attaches to its transmitted
    state estimate (one 9x9 block per agent, the same for all agents).
    """

    sigma_alpha: float = 0.01
    reported_cov: np.ndarray = field(default_factory=lambda: 0.1 * np.eye(9))

    def __post_init__(self):
        if not self.sigma_alpha > 0.0:
            raise ValueError(f"sigma_alpha must be positive, got {self.sigma_alpha}")
        cov = np.asarray(self.reported_cov, dtype=float)
        if cov.shape != (9, 9):
            raise ValueError(f"reported covariance must be 9x9, got {cov.shape}")
        if np.abs(cov - cov.T).max() > 1e-12 or np.linalg.eigvalsh(cov).min() <= 0.0:
            raise ValueError("reported covariance must be symmetric positive definite")
        object.__setattr__(self, "reported_cov", cov)


def position_front_permutation(n_agents: int) -> np.ndarray:
    """Gather order (an ``intp`` array) moving all agent positions to the front
    of the state, followed by each agent's velocity/acceleration block."""
    front = [9 * i + j for i in range(n_agents) for j in range(3)]
    back = [9 * i + j for i in range(n_agents) for j in range(3, 9)]
    return np.array(front + back, dtype=np.intp)


def fusion_model(singer: SingerParams, sensor: BearingSensorParams) -> EstimationModel:
    """The base-station fusion model: linear Singer flow plus a measurement
    stacking 2N bearing angles over the N transmitted 9-state estimates.

    Both parts use one spherical rule at the state dimension, classified for
    each part's nonlinear block.  The flow lives in state coordinates: it is
    fully linear, represented with a single-coordinate nonlinear stub (see
    below) so the structured path runs unmodified.  Only the measurement is
    permuted: it is stored in position-first coordinates, where it has the
    required leading-nonlinear form with Z = 3N.  Both ``g`` maps work
    column-wise, as :class:`PartiallyLinearFunction` requires.  The linear
    blocks are passed as dense matrices, and the function applies each in
    its cheapest exact form: the flow's ``kron(I_N, A_agent)`` rows as 9x9
    diagonal blocks, the measurement's ``unscramble`` (the identity's
    columns in ``meas_perm`` order, which return the state) as a row gather.
    """
    n = singer.agents
    x_dim = 9 * n
    a_full, q_full = singer_model(singer)

    # Fully linear flow: declare coordinate 0 "nonlinear" with g the scalar
    # map by the (0,0) entry and move the rest of row 0 into the pre-addition
    # matrix, leaving the function exactly equal to the linear flow.
    a11 = float(a_full[0, 0])
    a1 = a_full[0:1].copy()
    a1[0, 0] = 0.0
    flow = PartiallyLinearFunction(
        z_dim=1, x_dim=x_dim, g=lambda z: a11 * z, g_dim=1, a=a_full[1:], a1=a1
    )

    order = position_front_permutation(n)
    # maps the gathered state back: column j is the identity's column order[j]
    unscramble = np.zeros((x_dim, x_dim))
    unscramble[order, np.arange(x_dim)] = 1.0
    measurement = PartiallyLinearFunction(
        z_dim=3 * n,
        x_dim=x_dim,
        g=lambda z: stacked_bearings_batch(z, n),
        g_dim=2 * n,
        a=unscramble,
    )

    r_alpha = sensor.sigma_alpha**2 * np.eye(2 * n)
    r_x = _block_diagonal_matrix(n, sensor.reported_cov)
    y_dim = 2 * n + x_dim
    r = np.zeros((y_dim, y_dim))
    r[: 2 * n, : 2 * n] = r_alpha
    r[2 * n :, 2 * n :] = r_x

    rule = spherical_rule(x_dim)
    return EstimationModel(
        flow=flow,
        q=q_full,
        flow_rule=classify(rule, 1),
        measurement=measurement,
        r=r,
        meas_perm=order,
        meas_rule=classify(rule, 3 * n),
    )


# ---------------------------------------------------------------------------
# Benchmark function for the moment-matching comparisons.
# ---------------------------------------------------------------------------


def benchmark_function(z: int, l: int, seed) -> PartiallyLinearFunction:
    """The structured test function ``y = [g(z); A x]`` with
    ``g(z) = z + ||z||^2 * 1`` and a dense standard-normal ``A`` of shape
    (l, z + l) drawn from the seeded generator."""
    z = int(z)
    l = int(l)
    if z < 1 or l < 1:
        raise ValueError(f"z and l must be >= 1, got ({z}, {l})")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((l, z + l))

    def g(vmat):
        return vmat + np.sum(vmat * vmat, axis=0, keepdims=True)

    return PartiallyLinearFunction(z_dim=z, x_dim=z + l, g=g, g_dim=z, a=a)


# ---------------------------------------------------------------------------
# Ground-truth simulation for the tracking experiment.
# ---------------------------------------------------------------------------

# the agents' initial states in simulate_tracking
CUBE_HALF = 50.0
EXCLUSION_RADIUS = 5.0
INIT_VEL_STD = 1.0
INIT_ACC_STD = 0.5


@dataclass(frozen=True)
class TrackingData:
    """One simulated run: truth trajectory, measurements and filter init."""

    truth: np.ndarray  # (steps + 1, X), row 0 is the initial state
    measurements: np.ndarray  # (steps, Y), row k-1 observed at time k
    init_mean: np.ndarray
    init_cov: np.ndarray


def simulate_tracking(
    singer: SingerParams,
    sensor: BearingSensorParams,
    steps: int,
    seed,
) -> TrackingData:
    """Simulate agents on Singer dynamics and the fused measurement stream.

    Initial positions are uniform in the origin-centered cube of half-width
    :data:`CUBE_HALF` with a ball of :data:`EXCLUSION_RADIUS` around the base
    station rejected; initial velocities and accelerations are zero-mean
    normal with standard deviations :data:`INIT_VEL_STD` and
    :data:`INIT_ACC_STD`.  The filter is initialized the way the
    base station would: from a first round of transmitted agent estimates, so
    the initial covariance is the block-diagonal of the reported covariances
    and the initial mean is the truth perturbed accordingly (a consistent
    initialization).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rng = np.random.default_rng(seed)
    n = singer.agents
    x_dim = 9 * n
    a_full, q_full = singer_model(singer)
    lq = np.linalg.cholesky(q_full)

    x0 = np.zeros(x_dim)
    for i in range(n):
        while True:
            pos = rng.uniform(-CUBE_HALF, CUBE_HALF, size=3)
            if np.linalg.norm(pos) >= EXCLUSION_RADIUS:
                break
        x0[9 * i : 9 * i + 3] = pos
        x0[9 * i + 3 : 9 * i + 6] = INIT_VEL_STD * rng.standard_normal(3)
        x0[9 * i + 6 : 9 * i + 9] = INIT_ACC_STD * rng.standard_normal(3)

    truth = np.empty((steps + 1, x_dim))
    truth[0] = x0
    for k in range(steps):
        truth[k + 1] = a_full @ truth[k] + lq @ rng.standard_normal(x_dim)

    l_rep = np.linalg.cholesky(sensor.reported_cov)
    y_dim = 2 * n + x_dim
    measurements = np.empty((steps, y_dim))
    pos_idx = position_front_permutation(n)[: 3 * n]
    for k in range(steps):
        x = truth[k + 1]
        angles = stacked_bearings(x[pos_idx], n)
        measurements[k, : 2 * n] = angles + sensor.sigma_alpha * rng.standard_normal(2 * n)
        reported = x.copy()
        for i in range(n):
            block = slice(9 * i, 9 * (i + 1))
            reported[block] += l_rep @ rng.standard_normal(9)
        measurements[k, 2 * n :] = reported

    init_cov = _block_diagonal_matrix(n, sensor.reported_cov)
    init_mean = x0.copy()
    for i in range(n):
        block = slice(9 * i, 9 * (i + 1))
        init_mean[block] += l_rep @ rng.standard_normal(9)
    return TrackingData(
        truth=truth, measurements=measurements, init_mean=init_mean, init_cov=init_cov
    )
