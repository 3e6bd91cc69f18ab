"""A seeded differential sweep of the two filters on random partially linear
models: random state size, random flow and measurement nonlinear blocks, a
dense linear part with ``A1`` on half of the models, and the measurement read
in a random coordinate order.  Both filters use the same sigma points, so
their posteriors must agree at roundoff on every step, for every rule."""
import numpy as np
import pytest

from plfilt import (
    EstimationModel,
    FilterState,
    PartiallyLinearFunction,
    RuleKind,
    lrkf_step,
    make_classified,
    pl_lrkf_step,
)
from conftest import random_spd

MODELS = 20  # per rule
STEPS = 10
# Measured worst gap over the 60 models: 4e-14 relative.  The bound sits two
# orders above it, and some nine below the gap that a wrong sum produces.
GAP_BOUND = 1e-12

KINDS = {
    "sc": (RuleKind("sc"), 29),
    "ut": (RuleKind("ut", alpha=1.0, kappa=2.0), 29),
    "gh": (RuleKind("gh", order=3), 6),  # 3**X points on the plain path
}


def random_function(rng, x, z, g_dim, linear_rows, with_a1):
    """``[A1 x + g(z); A x]`` with a bounded nonlinear ``g`` that mixes every
    coordinate of ``z``.  ``g`` is scaled to be about non-expansive, so that
    ten steps do not amplify the filters' roundoff as a chaotic map would."""
    b = rng.standard_normal((g_dim, z)) / np.sqrt(z)
    c = rng.standard_normal(g_dim)
    scale = 1.0 / np.sqrt(x)

    def g(zmat):
        u = b @ zmat
        return np.sin(u) + 0.3 * np.cos(u + c[:, None]) * np.tanh(zmat[:1])

    return PartiallyLinearFunction(
        z_dim=z, x_dim=x, g=g, g_dim=g_dim,
        a=0.9 * scale * rng.standard_normal((linear_rows, x)),
        a1=0.5 * scale * rng.standard_normal((g_dim, x)) if with_a1 else None,
    )


def random_episode(seed, kind, max_x):
    """A random model, prior and measurement record."""
    rng = np.random.default_rng(seed)
    x = int(rng.integers(2, max_x + 1))
    z_flow, z_meas = (int(v) for v in rng.integers(1, x + 1, size=2))
    with_a1 = bool(seed % 2)
    flow = random_function(rng, x, z_flow, z_flow, x - z_flow, with_a1)
    g_dim = int(rng.integers(1, 4))
    meas = random_function(rng, x, z_meas, g_dim, int(rng.integers(1, x + 1)), with_a1)
    perm = rng.permutation(x)
    model = EstimationModel(
        flow=flow, q=0.1 * random_spd(rng, x, shift=1.0),
        flow_rule=make_classified(kind, x, z_flow),
        measurement=meas, r=0.1 * random_spd(rng, meas.y_dim, shift=1.0),
        meas_perm=perm, meas_rule=make_classified(kind, x, z_meas),
    )
    truth = rng.standard_normal(x)
    ys = []
    for _ in range(STEPS):
        truth = flow(truth[:, None])[:, 0] + 0.3 * rng.standard_normal(x)
        ys.append(meas(truth[perm, None])[:, 0] + 0.3 * rng.standard_normal(meas.y_dim))
    prior = FilterState(k=0, mean=rng.standard_normal(x), cov=random_spd(rng, x, shift=1.0))
    return model, prior, ys


def relative_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def worst_gap(seed, kind, max_x):
    """The largest relative full/structured gap of the posterior mean and
    covariance over the episode's steps."""
    model, prior, ys = random_episode(seed, kind, max_x)
    full = pl = prior
    worst = 0.0
    for y in ys:
        full = lrkf_step(full, model, y)
        pl = pl_lrkf_step(pl, model, y)
        worst = max(worst, relative_gap(full.mean, pl.mean), relative_gap(full.cov, pl.cov))
    return worst


@pytest.mark.parametrize("name", sorted(KINDS))
def test_filters_agree_on_random_models(name):
    kind, max_x = KINDS[name]
    gaps = {seed: worst_gap(seed, kind, max_x) for seed in range(MODELS)}
    assert max(gaps.values()) <= GAP_BOUND, gaps
