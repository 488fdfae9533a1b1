import numpy as np
import pytest

from myoctl.plant import make_fixture, rest_state, rollout, smooth_random_controls
from myoctl.timeseries import differentiate, resample


class TestResample:
    def test_constant_trace_is_preserved(self):
        const = np.full(4000, 0.7345)
        down = resample(const, 2000, 500)
        up = resample(down, 500, 2000)
        assert np.abs(down - 0.7345).max() < 1e-12
        assert np.abs(up - 0.7345).max() < 1e-12

    def test_length_arithmetic(self):
        down = resample(np.zeros(8000), 2000, 500)
        assert len(down) == 2000
        up = resample(np.zeros(2000), 500, 2000)
        assert len(up) == 8000

    def test_sine_down_up_round_trip(self):
        t = np.arange(8000) / 2000.0
        sig = np.sin(2 * np.pi * 10.0 * t)
        up = resample(resample(sig, 2000, 500), 500, 2000)
        guard = 257  # one filter length at the high rate
        err = up[guard:-guard] - sig[guard:-guard]
        rel = np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(sig[guard:-guard] ** 2))
        assert rel < 1e-3

    def test_band_limited_composite(self):
        # Anything below 0.4x the low-rate Nyquist must survive the trip.
        t = np.arange(12000) / 2000.0
        rng = np.random.default_rng(0)
        sig = np.zeros_like(t)
        for _ in range(5):
            sig += rng.uniform(0.2, 1.0) * np.sin(
                2 * np.pi * rng.uniform(1.0, 99.0) * t + rng.uniform(0, 2 * np.pi)
            )
        up = resample(resample(sig, 2000, 500), 500, 2000)
        guard = 257
        err = up[guard:-guard] - sig[guard:-guard]
        rel = np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(sig[guard:-guard] ** 2))
        assert rel < 1e-3

    def test_identity_rate(self):
        sig = np.random.default_rng(1).standard_normal(100)
        out = resample(sig, 500, 500)
        assert np.array_equal(out, sig)
        assert out is not sig

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            resample(np.zeros(100), 2000, 600)

    def test_multichannel_axis_handling(self):
        t = np.arange(4000) / 2000.0
        data = np.stack([np.sin(2 * np.pi * 5 * t), np.cos(2 * np.pi * 3 * t)])
        out = resample(data, 2000, 500, axis=1)
        assert out.shape == (2, 1000)
        out0 = resample(data[0], 2000, 500)
        assert np.allclose(out[0], out0)


class TestDifferentiate:
    def test_linear_ramp(self):
        # The velocity starts from rest, so the first step carries the jump.
        t = np.arange(100) * 0.002
        qdot, qddot = differentiate(3.0 * t, 0.002)
        assert qdot[0] == 0.0
        assert np.allclose(qdot[1:], 3.0, atol=1e-12)
        assert qddot[0] == pytest.approx(3.0 / 0.002)
        assert np.allclose(qddot[1:], 0.0, atol=1e-9)

    def test_quadratic(self):
        # Backward differences of 2 t^2 are 2 (t_k + t_{k-1}) = 4 t_k - 4 h
        # (h the step); their forward differences are exactly 4.
        h = 0.002
        t = np.arange(100) * h
        qdot, qddot = differentiate(0.5 * 4.0 * t**2, h)
        assert np.allclose(qddot[1:], 4.0, atol=1e-8)
        assert np.allclose(qdot[1:], 4.0 * t[1:] - 2.0 * h, atol=1e-10)

    def test_sine_derivative_accuracy(self):
        # 5 Hz sine sampled at 500 Hz, amplitude 0.02 rad. The backward
        # difference is the midpoint stencil of the half step before each
        # sample, the velocity a semi-implicit Euler step carries; there its
        # worst-case error stays under 1e-3 rad/s.
        h = 0.002
        t = np.arange(500) * h
        omega = 2 * np.pi * 5.0
        qdot, _ = differentiate(0.02 * np.sin(omega * t), h)
        exact = 0.02 * omega * np.cos(omega * (t - h / 2))
        assert np.abs(qdot[1:] - exact[1:]).max() < 1e-3

    @pytest.mark.parametrize("kind", ["toy_finger", "hand_like"])
    def test_reproduces_a_rollouts_velocities(self, kind):
        plant = make_fixture(kind)
        dt = 0.002
        ctrl = smooth_random_controls(plant.nactuators, 500, dt, 6)
        logged = rollout(plant, rest_state(plant), ctrl, dt)
        qdot, qddot = differentiate(logged.q, dt)
        # Velocities of order 10 rad/s from poses of order 1 rad: the
        # difference of two poses loses about eps / dt.
        assert np.abs(qdot - logged.qdot).max() < 1e-11
        assert np.array_equal(qdot[0], logged.qdot[0])
        # Each acceleration is the velocity step the integrator took.
        assert np.abs(qddot[:-1] - np.diff(logged.qdot, axis=0) / dt).max() < 1e-8

    def test_multijoint_shape(self):
        q = np.random.default_rng(2).standard_normal((50, 3))
        qdot, qddot = differentiate(q, 0.01)
        assert qdot.shape == q.shape
        assert qddot.shape == q.shape

    def test_preconditions(self):
        with pytest.raises(ValueError):
            differentiate(np.zeros((2, 1)), 0.002)
        with pytest.raises(ValueError):
            differentiate(np.zeros((10, 1)), 0.0)
