"""Singer kinematics, bearing sensing, the fused model and the simulator."""
import math

import numpy as np
import pytest
from scipy.linalg import expm

from plfilt import (
    BearingSensorParams,
    SingerParams,
    SingularGeometryError,
    bearing,
    benchmark_function,
    fusion_model,
    position_front_permutation,
    simulate_tracking,
    singer_model,
    stacked_bearings,
    stacked_bearings_batch,
)
from plfilt.models import _block_diagonal_matrix


def axis_blocks(params):
    """Per-axis 3x3 blocks pulled back out of the stacked matrices."""
    a, q = singer_model(SingerParams(params.dt, params.tau, params.sigma_m2, agents=1))
    idx = [0, 3, 6]  # x-axis position, velocity, acceleration
    return a[np.ix_(idx, idx)], q[np.ix_(idx, idx)]


class TestSingerModel:
    @pytest.mark.parametrize("n", [1, 3, 30])
    def test_block_diagonal_is_kron_with_identity(self, rng, n):
        block = rng.standard_normal((9, 9))
        assert np.array_equal(_block_diagonal_matrix(n, block), np.kron(np.eye(n), block))

    def test_constant_acceleration_limit(self):
        dt = 0.1
        a3, _ = axis_blocks(SingerParams(dt=dt, tau=1e9, sigma_m2=1.0))
        expected = np.array([[1.0, dt, dt**2 / 2.0], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
        assert np.abs(a3 - expected).max() <= 1e-6

    def test_transition_against_expm(self):
        for dt, tau in [(0.1, 2.0), (0.5, 0.7), (1.0, 30.0), (0.01, 1e-2)]:
            a3, _ = axis_blocks(SingerParams(dt=dt, tau=tau, sigma_m2=1.0))
            a_cont = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0 / tau]])
            ref = expm(a_cont * dt)
            assert np.abs(a3 - ref).max() <= 1e-12 * (1 + np.abs(ref).max())

    def test_q_against_midpoint_integration(self):
        # Q = integral of Phi(s) B qc B' Phi(s)' ds with qc = 2 sigma^2 / tau
        dt, tau, sigma_m2 = 0.1, 2.0, 1.0
        _, q3 = axis_blocks(SingerParams(dt=dt, tau=tau, sigma_m2=sigma_m2))
        a_cont = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0 / tau]])
        b = np.array([0.0, 0.0, 1.0])
        qc = 2.0 * sigma_m2 / tau
        n = 10_000
        h = dt / n
        acc = np.zeros((3, 3))
        for i in range(n):
            s = (i + 0.5) * h
            phi_b = expm(a_cont * s) @ b
            acc += np.outer(phi_b, phi_b)
        ref = qc * acc * h
        assert np.abs(q3 - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_small_u_series_consistent(self):
        # the series branch must join the closed form smoothly
        tau = 1.0
        for dt in [0.2499, 0.2501]:
            a3, q3 = axis_blocks(SingerParams(dt=dt, tau=tau, sigma_m2=2.0))
            a_cont = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
            ref = expm(a_cont * dt)
            assert np.abs(a3 - ref).max() <= 1e-13
            assert np.linalg.eigvalsh(q3).min() > 0.0

    def test_two_agents_block_diagonal(self):
        params = SingerParams(dt=0.1, tau=2.0, sigma_m2=1.0, agents=2)
        a, q = singer_model(params)
        assert a.shape == (18, 18)
        assert np.array_equal(a[:9, :9], a[9:, 9:])
        assert not a[:9, 9:].any() and not a[9:, :9].any()
        assert np.array_equal(q[:9, :9], q[9:, 9:])

    @pytest.mark.parametrize("dt,tau,sigma", [(0.1, 2.0, 1.0), (0.5, 10.0, 0.3), (1.0, 0.5, 4.0)])
    def test_q_spd(self, dt, tau, sigma):
        _, q = singer_model(SingerParams(dt=dt, tau=tau, sigma_m2=sigma**2, agents=2))
        assert np.abs(q - q.T).max() == 0.0
        assert np.linalg.eigvalsh(q).min() > 0.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SingerParams(dt=0.0)
        with pytest.raises(ValueError):
            SingerParams(tau=-1.0)
        with pytest.raises(ValueError):
            SingerParams(agents=0)

    def test_stable_trajectory(self, rng):
        params = SingerParams(dt=0.1, tau=2.0, sigma_m2=1.0, agents=1)
        a, q = singer_model(params)
        lq = np.linalg.cholesky(q)
        x = np.zeros(9)
        for _ in range(1000):
            x = a @ x + lq @ rng.standard_normal(9)
        assert np.all(np.isfinite(x))


class TestBearing:
    def test_on_x_axis(self):
        assert np.allclose(bearing([1.0, 0.0, 0.0]), [0.0, np.pi / 2])

    def test_zenith_convention(self):
        assert np.array_equal(bearing([0.0, 0.0, 1.0]), [0.0, 0.0])

    def test_hand_trig(self):
        out = bearing([1.0, 1.0, np.sqrt(2.0)])
        assert np.allclose(out, [np.pi / 4, np.pi / 4], atol=1e-14)

    def test_singular(self):
        with pytest.raises(SingularGeometryError):
            bearing(np.zeros(3))

    def test_azimuth_rotation_consistency(self, rng):
        for _ in range(25):
            p = rng.uniform(-10, 10, size=3)
            if np.hypot(p[0], p[1]) < 1e-3:
                continue
            theta = rng.uniform(-np.pi, np.pi)
            rot = np.array(
                [
                    [math.cos(theta), -math.sin(theta), 0.0],
                    [math.sin(theta), math.cos(theta), 0.0],
                    [0.0, 0.0, 1.0],
                ]
            )
            a0 = bearing(p)
            a1 = bearing(rot @ p)
            wrapped = (a1[0] - a0[0] - theta + np.pi) % (2 * np.pi) - np.pi
            assert abs(wrapped) <= 1e-12
            assert abs(a1[1] - a0[1]) <= 1e-12

    def test_batch_matches_single(self, rng):
        # the single-point bearing is the reference; math and numpy may round
        # atan2 and hypot differently in the last place
        n = 4
        z = rng.uniform(-5.0, 5.0, size=(3 * n, 6))
        batch = stacked_bearings_batch(z, n)
        assert batch.shape == (2 * n, 6)
        for j in range(6):
            for i in range(n):
                ref = bearing(z[3 * i : 3 * i + 3, j])
                assert np.abs(batch[2 * i : 2 * i + 2, j] - ref).max() <= 1e-15
        z[6:9, 4] = 0.0  # agent 2 at the base station in column 4
        with pytest.raises(SingularGeometryError):
            stacked_bearings_batch(z, n)


class TestFusionModel:
    def test_single_agent_layout(self):
        model = fusion_model(SingerParams(agents=1), BearingSensorParams())
        assert model.x_dim == 9
        assert model.y_dim == 11
        assert model.meas_rule.z_dim == 3
        assert np.array_equal(model.meas_perm, np.arange(9))

    def test_two_agent_permutation(self):
        perm = position_front_permutation(2)
        # state (p1 v1 a1 p2 v2 a2) -> (p1 p2 v1 a1 v2 a2)
        expected = [0, 1, 2, 9, 10, 11, 3, 4, 5, 6, 7, 8, 12, 13, 14, 15, 16, 17]
        assert perm.dtype == np.intp and perm.tolist() == expected

    def test_ten_agents_dimensions(self):
        model = fusion_model(SingerParams(agents=10), BearingSensorParams())
        assert model.meas_rule.z_dim == 30
        assert model.x_dim - model.meas_rule.z_dim == 60

    def test_position_gather_property(self, rng):
        n = 4
        perm = position_front_permutation(n)
        x = rng.standard_normal(9 * n)
        gathered = x[perm]
        expected = np.concatenate([x[9 * i : 9 * i + 3] for i in range(n)])
        assert np.array_equal(gathered[: 3 * n], expected)

    def test_flow_stub_exactly_linear(self, rng):
        params = SingerParams(agents=2)
        model = fusion_model(params, BearingSensorParams())
        a_full, _ = singer_model(params)
        x = rng.standard_normal(18)
        assert np.abs(model.flow(x[:, None])[:, 0] - a_full @ x).max() <= 1e-14

    def test_measurement_stacks_bearings_and_state(self, rng):
        n = 2
        model = fusion_model(SingerParams(agents=n), BearingSensorParams())
        x = rng.standard_normal(9 * n) + 3.0
        y = model.measurement(x[model.meas_perm, None])[:, 0]
        pos = np.concatenate([x[9 * i : 9 * i + 3] for i in range(n)])
        assert np.allclose(y[: 2 * n], stacked_bearings(pos, n))
        assert np.array_equal(y[2 * n :], x)

    def test_noise_blocks(self):
        sensor = BearingSensorParams(sigma_alpha=0.02, reported_cov=0.5 * np.eye(9))
        model = fusion_model(SingerParams(agents=2), sensor)
        r = model.r
        assert np.allclose(np.diag(r)[:4], 0.02**2)
        assert np.allclose(np.diag(r)[4:], 0.5)
        assert not r[:4, 4:].any()


class TestBenchmarkFunction:
    def test_values_and_seeding(self):
        plf = benchmark_function(2, 3, 123)
        assert np.array_equal(plf(np.zeros(5)[:, None])[:2, 0], np.zeros(2))
        assert np.array_equal(plf.eval_g_batch(np.array([[1.0], [2.0]])), [[6.0], [7.0]])
        assert np.array_equal(plf.a, benchmark_function(2, 3, 123).a)
        assert plf.a.shape == (3, 5)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            benchmark_function(0, 3, 1)


class TestSimulateTracking:
    def test_shapes_and_determinism(self):
        singer = SingerParams(agents=2)
        sensor = BearingSensorParams()
        d1 = simulate_tracking(singer, sensor, 20, 42)
        d2 = simulate_tracking(singer, sensor, 20, 42)
        assert d1.truth.shape == (21, 18)
        assert d1.measurements.shape == (20, 22)
        assert np.array_equal(d1.truth, d2.truth)
        assert np.array_equal(d1.measurements, d2.measurements)
        assert np.array_equal(d1.init_mean, d2.init_mean)

    def test_initial_positions_outside_exclusion(self):
        data = simulate_tracking(SingerParams(agents=5), BearingSensorParams(), 1, 7)
        for i in range(5):
            pos = data.truth[0, 9 * i : 9 * i + 3]
            assert np.linalg.norm(pos) >= 5.0
            assert np.abs(pos).max() <= 50.0

    def test_trajectory_finite(self):
        data = simulate_tracking(SingerParams(agents=1), BearingSensorParams(), 1000, 3)
        assert np.all(np.isfinite(data.truth))
