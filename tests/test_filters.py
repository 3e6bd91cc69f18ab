"""Filter recursions: conditioning update, plain and structured steps."""
import numpy as np
import pytest

from plfilt import (
    BearingSensorParams,
    EstimationModel,
    FilterState,
    FilterStepError,
    GaussianMoments,
    InnovationDegenerateError,
    JointGaussian,
    NotPositiveDefiniteError,
    PartiallyLinearFunction,
    Permutation,
    SingerParams,
    SingularGeometryError,
    classify,
    fusion_model,
    kalman_update,
    lrkf_step,
    pl_lrkf_step,
    simulate_tracking,
    spherical_rule,
    unscented_rule,
)
from conftest import random_spd


def kf_step(m, p, a, q, c, r, y):
    """Textbook Kalman recursion, the oracle for the linear cases."""
    m_pred = a @ m
    p_pred = a @ p @ a.T + q
    s = c @ p_pred @ c.T + r
    k = p_pred @ c.T @ np.linalg.inv(s)
    m_post = m_pred + k @ (y - c @ m_pred)
    p_post = p_pred - k @ s @ k.T
    return m_post, 0.5 * (p_post + p_post.T)


def linear_stub(mat):
    """A fully linear map in the structured form: coordinate 0 is declared
    nonlinear with the scalar map by mat[0, 0], the rest of row 0 moves into
    the pre-addition matrix."""
    x = mat.shape[1]
    lead = float(mat[0, 0])
    a1 = mat[0:1].copy()
    a1[0, 0] = 0.0
    return PartiallyLinearFunction(
        z_dim=1, x_dim=x, g=lambda z: lead * z, g_dim=1, a=mat[1:], a1=a1,
        g_batch=lambda z: lead * z,
    )


def linear_model(rng, x_dim, y_dim, rule_builder=spherical_rule, rotated_meas=False):
    """A random linear model.  With ``rotated_meas`` the measurement is
    stored in rotated state order, so the structured filter permutes; a
    rotation is not its own inverse, so a missed inverse shows."""
    a = rng.standard_normal((x_dim, x_dim))
    a *= 0.9 / max(abs(np.linalg.eigvals(a)))  # keep the dynamics stable
    c = rng.standard_normal((y_dim, x_dim))
    q = random_spd(rng, x_dim, shift=1.0) * 0.1
    r = random_spd(rng, y_dim, shift=1.0) * 0.1
    order = np.arange(x_dim)
    perm = Permutation(np.roll(order, 1) if rotated_meas else order)
    model = EstimationModel(
        flow=linear_stub(a),
        q=q,
        flow_rule=classify(rule_builder(x_dim), 1),
        measurement=linear_stub(c[:, perm.indices]),
        r=r,
        meas_perm=perm,
        meas_rule=classify(rule_builder(x_dim), 1),
    )
    return model, a, c, q, r


class TestKalmanUpdate:
    def test_zero_innovation(self, rng):
        x, y = 4, 2
        p = random_spd(rng, x)
        p_xy = rng.standard_normal((x, y))
        p_yy = random_spd(rng, y, shift=10.0)
        m = rng.standard_normal(x)
        m_y = rng.standard_normal(y)
        joint = JointGaussian(m_x=m, m_y=m_y, p_xx=p, p_xy=p_xy, p_yy=p_yy)
        post = kalman_update(GaussianMoments(m, p), joint, m_y.copy())
        assert np.abs(post.mean - m).max() <= 1e-12
        shrink = p - p_xy @ np.linalg.inv(p_yy) @ p_xy.T
        assert np.abs(post.cov - shrink).max() <= 1e-10

    def test_scalar_hand_case(self):
        joint = JointGaussian(
            m_x=np.zeros(1), m_y=np.zeros(1),
            p_xx=np.array([[1.0]]), p_xy=np.array([[0.5]]), p_yy=np.array([[1.25]]),
        )
        post = kalman_update(GaussianMoments(np.zeros(1), np.array([[1.0]])), joint, np.array([1.0]))
        assert post.mean[0] == pytest.approx(0.4, abs=1e-14)
        assert post.cov[0, 0] == pytest.approx(0.8, abs=1e-14)

    def test_uninformative_measurement(self, rng):
        x, y = 3, 2
        p = random_spd(rng, x)
        m = rng.standard_normal(x)
        joint = JointGaussian(
            m_x=m, m_y=np.zeros(y), p_xx=p,
            p_xy=np.zeros((x, y)), p_yy=random_spd(rng, y),
        )
        post = kalman_update(GaussianMoments(m, p), joint, rng.standard_normal(y))
        assert np.array_equal(post.mean, m)
        assert np.abs(post.cov - p).max() == 0.0

    def test_degenerate_innovation(self, rng):
        x, y = 3, 2
        joint = JointGaussian(
            m_x=np.zeros(x), m_y=np.zeros(y), p_xx=np.eye(x),
            p_xy=np.zeros((x, y)), p_yy=np.zeros((y, y)),
        )
        with pytest.raises(InnovationDegenerateError):
            kalman_update(GaussianMoments(np.zeros(x), np.eye(x)), joint, np.zeros(y))


class TestLinearReduction:
    @pytest.mark.parametrize(
        "step_fn, rotated_meas",
        [
            pytest.param(lrkf_step, False, id="lrkf"),
            pytest.param(pl_lrkf_step, False, id="pl"),
            pytest.param(lrkf_step, True, id="lrkf-rotated"),
            pytest.param(pl_lrkf_step, True, id="pl-rotated"),
        ],
    )
    def test_matches_kalman_filter(self, rng, step_fn, rotated_meas):
        x_dim, y_dim = 5, 3
        model, a, c, q, r = linear_model(rng, x_dim, y_dim, rotated_meas=rotated_meas)
        m = rng.standard_normal(x_dim)
        p = random_spd(rng, x_dim)
        state = FilterState(k=0, mean=m.copy(), cov=p.copy())
        m_ref, p_ref = m.copy(), p.copy()
        for k in range(100):
            y = rng.standard_normal(y_dim)
            state = step_fn(state, model, y)
            m_ref, p_ref = kf_step(m_ref, p_ref, a, c=c, q=q, r=r, y=y)
            scale = 1 + np.abs(m_ref).max()
            assert np.abs(state.mean - m_ref).max() <= 1e-10 * scale
            assert np.abs(state.cov - p_ref).max() <= 1e-10 * (1 + np.abs(p_ref).max())
        assert state.k == 100

    def test_large_process_noise_tracks_measurement(self, rng):
        # with exploding prior uncertainty the posterior must move toward
        # the measurement
        x_dim, y_dim = 4, 4
        model, a, c, q, r = linear_model(rng, x_dim, y_dim)
        big_q = 1e6 * np.eye(x_dim)
        model = EstimationModel(
            flow=model.flow, q=big_q, flow_rule=model.flow_rule,
            measurement=model.measurement, r=model.r, meas_perm=model.meas_perm,
            meas_rule=model.meas_rule,
        )
        m = rng.standard_normal(x_dim)
        state = FilterState(k=0, mean=m, cov=np.eye(x_dim))
        y = 10.0 * rng.standard_normal(y_dim)
        prior_misfit = np.linalg.norm(c @ (a @ m) - y)
        state = lrkf_step(state, model, y)
        post_misfit = np.linalg.norm(c @ state.mean - y)
        assert post_misfit < 1e-3 * prior_misfit


class TestStructuredEquivalence:
    def test_identity_perm_full_nonlinear(self, rng):
        # Z = X leaves no linear block: the structured path degenerates to
        # the plain one
        x_dim, y_dim = 3, 2
        flow = PartiallyLinearFunction(
            z_dim=x_dim, x_dim=x_dim,
            g=lambda v: v + 0.1 * np.tanh(v), g_dim=x_dim,
            a=np.zeros((0, x_dim)),
            g_batch=lambda v: v + 0.1 * np.tanh(v),
        )
        meas = PartiallyLinearFunction(
            z_dim=x_dim, x_dim=x_dim,
            g=lambda v: np.array([v[0], v[1] + v[2]]), g_dim=y_dim,
            a=np.zeros((0, x_dim)),
        )
        rule = unscented_rule(x_dim, 1.0, 2.0)
        model = EstimationModel(
            flow=flow, q=0.05 * np.eye(x_dim), flow_rule=classify(rule, x_dim),
            measurement=meas, r=0.1 * np.eye(y_dim), meas_perm=Permutation.identity(x_dim),
            meas_rule=classify(rule, x_dim),
        )
        sa = sb = FilterState(k=0, mean=rng.standard_normal(x_dim), cov=np.eye(x_dim))
        for _ in range(20):
            y = rng.standard_normal(y_dim)
            sa = lrkf_step(sa, model, y)
            sb = pl_lrkf_step(sb, model, y)
            assert np.abs(sa.mean - sb.mean).max() <= 1e-12 * (1 + np.abs(sa.mean).max())
            assert np.abs(sa.cov - sb.cov).max() <= 1e-12 * (1 + np.abs(sa.cov).max())

    def test_posterior_spd(self, rng):
        x_dim, y_dim = 5, 3
        model, *_ = linear_model(rng, x_dim, y_dim)
        state = FilterState(k=0, mean=rng.standard_normal(x_dim), cov=random_spd(rng, x_dim))
        for _ in range(50):
            state = pl_lrkf_step(state, model, rng.standard_normal(y_dim))
            assert np.linalg.eigvalsh(state.cov).min() > 0.0

    @pytest.mark.parametrize("rotated_meas", [False, True], ids=["identity", "rotated"])
    def test_prediction_record(self, rng, rotated_meas):
        x_dim, y_dim = 4, 2
        model, a, c, q, r = linear_model(rng, x_dim, y_dim, rotated_meas=rotated_meas)
        state = FilterState(k=0, mean=rng.standard_normal(x_dim), cov=np.eye(x_dim))
        y = rng.standard_normal(y_dim)
        plain = lrkf_step(state, model, y, keep_prediction=True)
        struct = pl_lrkf_step(state, model, y, keep_prediction=True)
        assert lrkf_step(state, model, y).prediction is None
        ref_pred = a @ state.mean
        for out in (plain, struct):
            assert out.prediction is not None
            assert np.abs(out.prediction.mean - ref_pred).max() <= 1e-10
            assert out.prediction.meas_mean.shape == (y_dim,)
            assert out.prediction.cross_cov.shape == (x_dim, y_dim)
        assert np.abs(plain.prediction.cross_cov - struct.prediction.cross_cov).max() <= 1e-9

    def test_step_error_annotated(self, rng):
        x_dim, y_dim = 4, 2
        model, *_ = linear_model(rng, x_dim, y_dim)
        bad_cov = np.diag([1.0, -1.0, 1.0, 1.0])
        state = FilterState(k=6, mean=np.zeros(x_dim), cov=bad_cov)
        with pytest.raises(FilterStepError) as err:
            pl_lrkf_step(state, model, np.zeros(y_dim))
        assert err.value.step == 7

    def test_failed_flow_match_is_predict(self, rng):
        x_dim, y_dim = 4, 2
        model, *_ = linear_model(rng, x_dim, y_dim)
        # the first pivot fails, which both factorizations see
        state = FilterState(k=2, mean=np.zeros(x_dim), cov=np.diag([-1.0, 1.0, 1.0, 1.0]))
        for step_fn in (lrkf_step, pl_lrkf_step):
            with pytest.raises(FilterStepError) as err:
                step_fn(state, model, np.zeros(y_dim))
            assert (err.value.step, err.value.phase) == (3, "predict")
            assert isinstance(err.value.__cause__, NotPositiveDefiniteError)

    def test_sigma_point_at_base_station(self):
        # zero position, velocity and acceleration: pl evaluates the bearings
        # at the predicted z-mean, the origin; full has sigma points along the
        # velocity columns of the lower factor whose position is the origin
        singer = SingerParams(agents=1)
        sensor = BearingSensorParams()
        model = fusion_model(singer, sensor)
        state = FilterState(k=0, mean=np.zeros(9), cov=sensor.reported_cov.copy())
        y = np.zeros(model.y_dim)
        for step_fn in (lrkf_step, pl_lrkf_step):
            with pytest.raises(FilterStepError) as err:
                step_fn(state, model, y)
            assert (err.value.step, err.value.phase) == (1, "measure")
            assert isinstance(err.value.__cause__, SingularGeometryError)

    def test_filters_agree_on_wrap_episode(self):
        # an agent's sigma points cross the azimuth branch cut near step 96;
        # both filters use the same points there, so the wrap error is the
        # same in both and they still agree to roundoff
        singer = SingerParams(agents=3)
        sensor = BearingSensorParams()
        model = fusion_model(singer, sensor)
        data = simulate_tracking(singer, sensor, 100, np.random.SeedSequence(entropy=(195, 6)))
        state = FilterState(k=0, mean=data.init_mean, cov=data.init_cov)
        for y in data.measurements:
            plain = lrkf_step(state, model, y)
            struct = pl_lrkf_step(state, model, y)
            assert np.abs(plain.mean - struct.mean).max() <= 1e-12 * (1 + np.abs(plain.mean).max())
            assert np.abs(plain.cov - struct.cov).max() <= 1e-12 * (1 + np.abs(plain.cov).max())
            state = plain

    @pytest.mark.parametrize("step_fn", [lrkf_step, pl_lrkf_step], ids=["lrkf", "pl"])
    def test_non_finite_measurement_rejected(self, step_fn):
        singer = SingerParams(agents=1)
        sensor = BearingSensorParams()
        model = fusion_model(singer, sensor)
        data = simulate_tracking(singer, sensor, 2, np.random.SeedSequence(entropy=(5,)))
        state = FilterState(k=0, mean=data.init_mean, cov=data.init_cov)
        state = step_fn(state, model, data.measurements[0])
        y = data.measurements[1].copy()
        y[0] = np.nan
        # refused at the step that receives the value, not one step later
        with pytest.raises(ValueError, match="non-finite"):
            step_fn(state, model, y)


class TestModelValidation:
    def test_rejects_inconsistent_model(self, rng):
        x_dim = 4
        flow = linear_stub(np.eye(x_dim))
        meas = linear_stub(rng.standard_normal((2, x_dim)))
        rule = classify(spherical_rule(x_dim), 1)
        with pytest.raises(ValueError):
            EstimationModel(
                flow=flow, q=np.eye(3), flow_rule=rule, measurement=meas, r=np.eye(2),
                meas_perm=Permutation.identity(x_dim), meas_rule=rule,
            )

    def test_rejects_non_spd_noise(self, rng):
        x_dim = 3
        flow = linear_stub(np.eye(x_dim))
        meas = linear_stub(rng.standard_normal((2, x_dim)))
        rule = classify(spherical_rule(x_dim), 1)
        with pytest.raises(Exception):
            EstimationModel(
                flow=flow, q=-np.eye(x_dim), flow_rule=rule, measurement=meas, r=np.eye(2),
                meas_perm=Permutation.identity(x_dim), meas_rule=rule,
            )
