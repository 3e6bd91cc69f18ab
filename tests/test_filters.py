"""Filter recursions: conditioning update, plain and structured steps."""
import dataclasses

import numpy as np
import pytest

from plfilt import (
    BearingSensorParams,
    EstimationModel,
    FilterState,
    FilterStepError,
    InnovationDegenerateError,
    JointGaussian,
    NotPositiveDefiniteError,
    PartiallyLinearFunction,
    SingerParams,
    SingularGeometryError,
    benchmark_function,
    classify,
    fusion_model,
    kalman_update,
    lrkf_step,
    match_pl,
    pl_lrkf_step,
    simulate_tracking,
    spherical_rule,
    unscented_rule,
)
from plfilt.linalg import mirror_lower
from plfilt.moments import _structured_sums
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
    if rotated_meas:
        order = np.roll(order, 1)
    model = EstimationModel(
        flow=linear_stub(a),
        q=q,
        flow_rule=classify(rule_builder(x_dim), 1),
        measurement=linear_stub(c[:, order]),
        r=r,
        meas_perm=order,
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
        post = kalman_update(joint, m_y.copy())
        assert np.abs(post.mean - m).max() <= 1e-12
        shrink = p - p_xy @ np.linalg.inv(p_yy) @ p_xy.T
        assert np.abs(post.cov - shrink).max() <= 1e-10

    def test_scalar_hand_case(self):
        joint = JointGaussian(
            m_x=np.zeros(1), m_y=np.zeros(1),
            p_xx=np.array([[1.0]]), p_xy=np.array([[0.5]]), p_yy=np.array([[1.25]]),
        )
        post = kalman_update(joint, np.array([1.0]))
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
        post = kalman_update(joint, rng.standard_normal(y))
        assert np.array_equal(post.mean, m)
        assert np.abs(post.cov - p).max() == 0.0

    def test_degenerate_innovation(self, rng):
        x, y = 3, 2
        joint = JointGaussian(
            m_x=np.zeros(x), m_y=np.zeros(y), p_xx=np.eye(x),
            p_xy=np.zeros((x, y)), p_yy=np.zeros((y, y)),
        )
        with pytest.raises(InnovationDegenerateError):
            kalman_update(joint, np.zeros(y))
        # the failing pivot of S is carried in the message and the cause
        joint = JointGaussian(
            m_x=np.zeros(x), m_y=np.zeros(3), p_xx=np.eye(x),
            p_xy=np.zeros((x, 3)), p_yy=np.diag([2.0, 1.0, -1.0]),
        )
        with pytest.raises(InnovationDegenerateError, match="pivot 2") as err:
            kalman_update(joint, np.zeros(3))
        assert isinstance(err.value.__cause__, NotPositiveDefiniteError)
        assert err.value.__cause__.pivot == 2

    @pytest.mark.parametrize(
        "x, y, order",
        [(3, 2, None), (27, 33, None), (40, 10, None), (27, 130, None), (40, 200, None)]
        + [
            (x, y, order)
            for x, y in ((27, 33), (40, 10), (27, 130), (40, 200))
            for order in "CF"
        ],
        ids=[
            "3-2", "27-33", "40-10", "27-130", "40-200",
            "27-33-C", "27-33-F", "40-10-C", "40-10-F",
            "27-130-C", "27-130-F", "40-200-C", "40-200-F",
        ],
    )
    def test_matches_textbook_gain(self, rng, x, y, order):
        # y = 130 and 200 span several panels of the solve, the last ragged
        # a valid joint covariance, so the posterior is a proper Schur complement
        joint_cov = random_spd(rng, x + y)
        p, p_xy, p_yy = joint_cov[:x, :x], joint_cov[:x, x:], joint_cov[x:, x:]
        if order:  # contiguous copies instead of the strided blocks
            p, p_xy = np.array(p, order=order), np.array(p_xy, order=order)
        m = rng.standard_normal(x)
        m_y = rng.standard_normal(y)
        meas = m_y + rng.standard_normal(y)
        joint = JointGaussian(m_x=m, m_y=m_y, p_xx=p, p_xy=p_xy, p_yy=p_yy)
        post = kalman_update(joint, meas)
        gain = np.linalg.solve(p_yy, p_xy.T).T
        mean_ref = m + gain @ (meas - m_y)
        cov_ref = p - gain @ p_yy @ gain.T
        assert np.abs(post.mean - mean_ref).max() <= 1e-12 * np.abs(mean_ref).max()
        assert np.abs(post.cov - cov_ref).max() <= 1e-12 * np.abs(cov_ref).max()
        assert np.array_equal(post.cov, post.cov.T)

    @pytest.mark.parametrize("block", ["m_x", "p_xx", "p_xy"])
    def test_inconsistent_joint_refused(self, block):
        # the state blocks are read from the joint, so they must agree
        x, y = 4, 2
        blocks = dict(
            m_x=np.zeros(x), m_y=np.zeros(y), p_xx=np.eye(x),
            p_xy=np.zeros((x, y)), p_yy=np.eye(y),
        )
        blocks[block] = blocks[block][:-1]
        with pytest.raises(ValueError, match="inconsistent joint shapes"):
            kalman_update(JointGaussian(**blocks), np.zeros(y))


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
        )
        meas = PartiallyLinearFunction(
            z_dim=x_dim, x_dim=x_dim,
            g=lambda v: np.array([v[0], v[1] + v[2]]), g_dim=y_dim,
            a=np.zeros((0, x_dim)),
        )
        rule = unscented_rule(x_dim, 1.0, 2.0)
        model = EstimationModel(
            flow=flow, q=0.05 * np.eye(x_dim), flow_rule=classify(rule, x_dim),
            measurement=meas, r=0.1 * np.eye(y_dim), meas_perm=np.arange(x_dim),
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
            assert np.abs(out.prediction.m_x - ref_pred).max() <= 1e-10
            assert out.prediction.m_y.shape == (y_dim,)
            assert out.prediction.p_xy.shape == (x_dim, y_dim)
        assert np.abs(plain.prediction.p_xy - struct.prediction.p_xy).max() <= 1e-9

    @pytest.mark.parametrize("case", ["fusion-flow", "dense-a1", "benchmark"])
    def test_structured_predict_is_match_pl_up_to_p_yy(self, rng, case):
        if case == "fusion-flow":  # A1 with one g row
            singer = SingerParams(agents=2)
            model = fusion_model(singer, BearingSensorParams())
            f, cr = model.flow, model.flow_rule
            assert f.a1 is not None
        else:
            f = benchmark_function(3, 7, 11)
            cr = classify(spherical_rule(10), 3)
            if case == "dense-a1":  # A1 with three g rows
                a1 = rng.standard_normal((3, 10))
                f = PartiallyLinearFunction(3, 10, f._g, 3, f.a, a1=a1)
        m, p = rng.standard_normal(cr.dim), random_spd(rng, cr.dim)
        m_y, p_yy = _structured_sums(f, m, p, cr)[:2]
        joint = match_pl(f, m, p, cr)
        assert np.array_equal(m_y, joint.m_y) and np.array_equal(p_yy, joint.p_yy)

        # p_yy bit for bit as built block by block, the A1 terms added onto
        # p_gg in turn; the lower triangle of p_gg is that of the same
        # function's p_yy without A1, and mirror_lower reads only that
        _, _, p_xg, p_at = _structured_sums(f, m, p, cr)
        a_pxy, a_pat = f._apply(p_xg), f._apply(p_at)
        g, n1 = f.g_dim, f._n1
        twin = PartiallyLinearFunction(f.z_dim, f.x_dim, f._g, g, f.a)
        p_gg = _structured_sums(twin, m, p, cr)[1][:g, :g]
        ref = np.empty_like(p_yy)
        ref[:g, :g] = p_gg
        ref[g:, :g] = a_pxy[n1:]
        ref[g:, g:] = a_pat[n1:, n1:]
        if n1:
            ref[:g, :g] = p_gg + a_pxy[:n1].T + a_pxy[:n1] + a_pat[:n1, :n1]
            ref[g:, :g] = a_pxy[n1:] + a_pat[n1:, :n1]
        assert np.array_equal(p_yy, mirror_lower(ref))

    @pytest.mark.parametrize("step_fn", [lrkf_step, pl_lrkf_step], ids=["lrkf", "pl"])
    def test_step_leaves_its_inputs_unmodified(self, step_fn):
        # the step adds the noise in place onto the matched covariances,
        # never onto an array the caller passed in
        singer = SingerParams(agents=2)
        sensor = BearingSensorParams()
        model = fusion_model(singer, sensor)
        data = simulate_tracking(singer, sensor, 2, np.random.SeedSequence(entropy=(8,)))
        state = FilterState(k=0, mean=data.init_mean, cov=data.init_cov)
        state = step_fn(state, model, data.measurements[0], keep_prediction=True)
        blocks = ("m_x", "m_y", "p_xx", "p_xy", "p_yy")
        before = (
            model.q.copy(), model.r.copy(), state.cov.copy(),
            [getattr(state.prediction, b).copy() for b in blocks],
        )
        step_fn(state, model, data.measurements[1], keep_prediction=True)
        assert np.array_equal(model.q, before[0]) and np.array_equal(model.r, before[1])
        assert np.array_equal(state.cov, before[2])
        for block, copy in zip(blocks, before[3]):
            assert np.array_equal(getattr(state.prediction, block), copy), block

    @pytest.mark.parametrize("step_fn", [lrkf_step, pl_lrkf_step], ids=["lrkf", "pl"])
    def test_prediction_is_the_conditioned_joint(self, step_fn):
        singer = SingerParams(agents=2)
        sensor = BearingSensorParams()
        model = fusion_model(singer, sensor)
        data = simulate_tracking(singer, sensor, 5, np.random.SeedSequence(entropy=(5,)))
        state = FilterState(k=0, mean=data.init_mean, cov=data.init_cov)
        for y in data.measurements:
            state = step_fn(state, model, y, keep_prediction=True)
            post = kalman_update(state.prediction, y)
            assert np.array_equal(post.mean, state.mean)
            assert np.array_equal(post.cov, state.cov)

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

    def test_failed_update_is_update(self, rng, monkeypatch):
        x_dim, y_dim = 4, 2
        model, *_ = linear_model(rng, x_dim, y_dim)
        state = FilterState(k=4, mean=np.zeros(x_dim), cov=np.eye(x_dim))

        def degenerate(joint, y):
            raise InnovationDegenerateError("innovation covariance not positive definite")

        monkeypatch.setattr("plfilt.filters.kalman_update", degenerate)
        for step_fn in (lrkf_step, pl_lrkf_step):
            with pytest.raises(FilterStepError) as err:
                step_fn(state, model, np.zeros(y_dim))
            assert (err.value.step, err.value.phase) == (5, "update")
            assert isinstance(err.value.__cause__, InnovationDegenerateError)

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

    def test_covariances_exactly_symmetric(self):
        singer = SingerParams(agents=3)
        sensor = BearingSensorParams()
        model = fusion_model(singer, sensor)
        data = simulate_tracking(singer, sensor, 30, np.random.SeedSequence(entropy=(41,)))
        for step_fn in (lrkf_step, pl_lrkf_step):
            state = FilterState(k=0, mean=data.init_mean, cov=data.init_cov)
            for y in data.measurements:
                state = step_fn(state, model, y, keep_prediction=True)
                for cov in (state.cov, state.prediction.p_xx, state.prediction.p_yy):
                    assert np.array_equal(cov, cov.T), (step_fn.__name__, state.k)

    @pytest.mark.parametrize("step_fn", [lrkf_step, pl_lrkf_step], ids=["lrkf", "pl"])
    @pytest.mark.parametrize(
        "entry, value, message",
        [
            ((5, 3), 1e-3, "asymmetric beyond tolerance"),
            ((5, 3), np.nan, "non-finite"),
            (([20, 25], [25, 20]), np.inf, "non-finite"),
        ],
        ids=["asymmetric", "nan", "inf-pair"],
    )
    def test_bad_state_covariance_refused_on_entry(self, step_fn, entry, value, message):
        # refused before any matching, by both filters alike: the structured
        # flow match reads only column 0 of the covariance, so it would not
        # see a fault beyond it on its own
        singer = SingerParams(agents=3)
        sensor = BearingSensorParams()
        model = fusion_model(singer, sensor)
        data = simulate_tracking(singer, sensor, 1, np.random.SeedSequence(entropy=(5,)))
        cov = data.init_cov.copy()
        cov[entry] += value * np.abs(cov).max()
        state = FilterState(k=0, mean=data.init_mean, cov=cov)
        model.flow.reset_g_eval_count()
        with pytest.raises(ValueError, match=message):
            step_fn(state, model, data.measurements[0])
        assert model.flow.g_eval_count == 0

    @pytest.mark.parametrize("entry", [(12, 4), (4, 12)], ids=["lower", "upper"])
    def test_tolerated_asymmetry_read_alike(self, entry):
        # a state covariance asymmetric within the tolerance is accepted; both
        # filters then step on its lower triangle mirrored, so the structured
        # flow's A P reads the same matrix the plain flow's factor does
        singer = SingerParams(agents=3)
        sensor = BearingSensorParams()
        model = fusion_model(singer, sensor)
        data = simulate_tracking(singer, sensor, 6, np.random.SeedSequence(entropy=(5,)))
        state = FilterState(k=0, mean=data.init_mean, cov=data.init_cov)
        for y in data.measurements[:5]:
            state = lrkf_step(state, model, y)
        cov = state.cov.copy()
        cov[entry] += 5e-11 * np.abs(cov).max()
        skewed = FilterState(k=state.k, mean=state.mean, cov=cov)
        mirrored = FilterState(k=state.k, mean=state.mean, cov=np.tril(cov) + np.tril(cov, -1).T)
        y = data.measurements[5]
        posts = {}
        for step_fn in (lrkf_step, pl_lrkf_step):
            post = posts[step_fn] = step_fn(skewed, model, y)
            ref = step_fn(mirrored, model, y)
            assert np.array_equal(post.mean, ref.mean) and np.array_equal(post.cov, ref.cov)
        full, pl = posts[lrkf_step], posts[pl_lrkf_step]
        for a, b in ((full.mean, pl.mean), (full.cov, pl.cov)):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max()

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
                meas_perm=np.arange(x_dim), meas_rule=rule,
            )

    def test_rejects_non_spd_noise(self, rng):
        x_dim = 3
        flow = linear_stub(np.eye(x_dim))
        meas = linear_stub(rng.standard_normal((2, x_dim)))
        rule = classify(spherical_rule(x_dim), 1)
        with pytest.raises(Exception):
            EstimationModel(
                flow=flow, q=-np.eye(x_dim), flow_rule=rule, measurement=meas, r=np.eye(2),
                meas_perm=np.arange(x_dim), meas_rule=rule,
            )

    def test_noise_stored_exactly_symmetric(self, rng):
        # asymmetric within the factorization's tolerance: accepted, and
        # stored as its symmetric part
        x_dim, y_dim = 4, 2
        model, *_ = linear_model(rng, x_dim, y_dim)
        q = model.q.copy()
        r = model.r.copy()
        q[0, 2] += 1e-13
        r[1, 0] -= 1e-13
        rebuilt = EstimationModel(
            flow=model.flow, q=q, flow_rule=model.flow_rule, measurement=model.measurement, r=r,
            meas_perm=model.meas_perm, meas_rule=model.meas_rule,
        )
        for given, stored in ((q, rebuilt.q), (r, rebuilt.r)):
            assert np.array_equal(stored, stored.T)
            assert np.array_equal(stored, 0.5 * (given + given.T))

    def test_invalid_indices(self, rng):
        model, *_ = linear_model(rng, 3, 2)
        with pytest.raises(ValueError, match="each of 0..2 once"):
            dataclasses.replace(model, meas_perm=np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="each of 0..2 once"):
            dataclasses.replace(model, meas_perm=np.array([0, 2, 3]))

    @pytest.mark.parametrize(
        "order",
        [
            np.array([1.9, 0.2]),  # a cast to intp would read [1, 0]
            np.array([1.0, 0.0]),
            np.array([True, False]),
            np.array([1, 1]),
            np.array([0, 2]),
            np.array([1, -2]),  # a gather would wrap -2 to 0
            np.array([0, 1, 2]),
            np.array([[1, 0]]),
            np.array([], dtype=np.intp),
        ],
        ids=["float", "integral-float", "bool", "repeated", "out-of-range", "negative",
             "too-long", "2-D", "empty"],
    )
    def test_rejects_a_bad_order(self, rng, order):
        model, *_ = linear_model(rng, 2, 1)
        with pytest.raises(ValueError, match="meas_perm"):
            dataclasses.replace(model, meas_perm=order)

    def test_keeps_a_read_only_copy_of_the_order(self, rng):
        model, *_ = linear_model(rng, 3, 2)
        order = np.array([2, 0, 1], dtype=np.int32)
        kept = dataclasses.replace(model, meas_perm=order).meas_perm
        order[0] = 0  # the caller's array stays writable and apart
        assert kept.dtype == np.intp and kept.tolist() == [2, 0, 1]
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 1
