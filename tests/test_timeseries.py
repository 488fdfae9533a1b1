import numpy as np
import pytest

from myoctl import timeseries
from myoctl.plant import differentiate, make_fixture, rest_state, rollout, smooth_random_controls
from myoctl.timeseries import resample


def scipy_lowpass(ratio, high_rate, low_rate):
    """The anti-alias taps as ``scipy.signal.firwin`` designs them."""
    from scipy.signal import firwin

    taps = firwin(timeseries._TAPS_PER_BRANCH * ratio + 1,
                  timeseries._CUTOFF_FRACTION * (low_rate / 2.0),
                  window=("kaiser", timeseries._KAISER_BETA), fs=high_rate)
    return taps / taps.sum()


def scipy_resample_poly(x, up, down, taps):
    from scipy.signal import resample_poly

    return resample_poly(x, up, down, axis=0, window=taps)


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

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("which", ["from_hz", "to_hz"])
    def test_rates_must_be_positive_and_finite(self, which, rate):
        rates = {"from_hz": 2000.0, "to_hz": 500.0, which: rate}
        with pytest.raises(ValueError, match=f"{which} must be positive and finite"):
            resample(np.zeros(100), **rates)

    @pytest.mark.parametrize("trace, from_hz, axis, counts", [
        (np.zeros(2), 2000, -1, "2 at 2000 Hz give 0 at 500 Hz"),
        (np.zeros((2, 3)), 2000, 0, "2 at 2000 Hz give 0 at 500 Hz"),
        (np.zeros(1), 500, -1, "1 at 500 Hz give 1 at 500 Hz"),
    ], ids=["1d", "2d_axis0", "one_sample"])
    def test_too_few_samples_for_one_output_sample(self, trace, from_hz, axis, counts):
        # round(2 * 500 / 2000) = 0: an empty trace would be written as a
        # 0-frame session.
        message = "need at least 2 input samples and 1 output sample to resample; "
        with pytest.raises(ValueError, match=message + counts):
            resample(trace, from_hz, 500, axis=axis)

    def test_multichannel_axis_handling(self):
        t = np.arange(4000) / 2000.0
        data = np.stack([np.sin(2 * np.pi * 5 * t), np.cos(2 * np.pi * 3 * t)])
        out = resample(data, 2000, 500, axis=1)
        assert out.shape == (2, 1000)
        out0 = resample(data[0], 2000, 500)
        assert np.allclose(out[0], out0)


class TestScipyOracle:
    """The numpy filter design and polyphase resampler against scipy's."""

    @pytest.mark.parametrize("ratio", [2, 3, 4, 8])
    def test_taps_match_firwin(self, ratio):
        ours = timeseries._design_lowpass(ratio, 2000.0, 2000.0 / ratio)
        reference = scipy_lowpass(ratio, 2000.0, 2000.0 / ratio)
        assert ours.shape == reference.shape
        assert np.abs(ours - reference).max() <= 1e-15

    @pytest.mark.parametrize("up, down", [(1, 2), (1, 4), (2, 1), (4, 1)])
    @pytest.mark.parametrize("n", [2, 3, 7, 128, 501])
    def test_polyphase_matches_resample_poly(self, up, down, n):
        ratio = max(up, down)
        taps = timeseries._design_lowpass(ratio, 2000.0, 2000.0 / ratio)
        if up > 1:
            taps = timeseries._normalize_branches(taps, up)
        x = np.random.default_rng(n).standard_normal((n, 3)) * 5.0
        ours = timeseries._resample_poly(x, up, down, taps)
        reference = scipy_resample_poly(x, up, down, taps)
        assert ours.shape == reference.shape
        assert np.abs(ours - reference).max() <= 1e-13 * np.abs(x).max()

    @pytest.mark.parametrize("n, shape, axis, from_hz, to_hz", [
        trace + rates
        for rates in [(2000, 1000), (2000, 500), (1000, 2000), (500, 2000)]
        for trace in [(2, "1d", -1), (3, "1d", -1), (999, "1d", -1),
                      (1001, "2d", 0), (1001, "2d", 1), (4000, "2d", 0)]
        # Two samples at a 4:1 step down give no output sample; see
        # TestResample.test_too_few_samples_for_one_output_sample.
        if round(trace[0] * rates[1] / rates[0]) >= 1
    ])
    def test_resample_matches_resample_poly(self, monkeypatch, from_hz, to_hz, n, shape, axis):
        t = np.arange(n) / from_hz
        rng = np.random.default_rng(n)
        trace = np.sin(2 * np.pi * 7.0 * t) + 0.3 * rng.standard_normal(n)
        if shape == "2d":
            trace = np.stack([trace, 2.0 * trace[::-1], np.full(n, 0.25)], axis=1 - axis)
        ours = resample(trace, from_hz, to_hz, axis=axis)
        monkeypatch.setattr(timeseries, "_design_lowpass", scipy_lowpass)
        monkeypatch.setattr(timeseries, "_resample_poly", scipy_resample_poly)
        reference = resample(trace, from_hz, to_hz, axis=axis)
        assert ours.shape == reference.shape
        assert ours.shape[axis] == round(n * to_hz / from_hz)
        assert np.all(np.abs(ours - reference) <= 1e-13 * np.abs(trace).max())


class TestFilterMemo:
    """Each distinct filter is designed once per process."""

    def test_repeated_calls_are_byte_identical_and_the_taps_read_only(self):
        x = np.random.default_rng(8).standard_normal((4001, 3))
        for from_hz, to_hz in [(2000, 500), (500, 2000), (2000, 1000)]:
            first = resample(x, from_hz, to_hz, axis=0)
            assert resample(x, from_hz, to_hz, axis=0).tobytes() == first.tobytes()
        taps = timeseries._design_lowpass(4, 2000, 500)
        assert timeseries._design_lowpass(4, 2000, 500) is taps
        assert taps.tobytes() == timeseries._design_lowpass.__wrapped__(4, 2000, 500).tobytes()
        assert not taps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            taps[0] = 0.0

    def test_a_batch_designs_one_filter(self, tmp_path):
        # Down-sampling 2 kHz sessions to the 500 Hz solve rate and
        # up-sampling their controls back both use the (4, 2000, 500)
        # design; the up-sampler normalizes a copy of its branches.
        from myoctl.pipeline import Session, run_batch, write_session

        plant = make_fixture("toy_finger")
        dt = 1.0 / 2000.0
        for i in range(8):
            ctrl = smooth_random_controls(plant.nactuators, 400, dt, i, settle=0.05)
            q = rollout(plant, rest_state(plant), ctrl, dt).q
            write_session(Session(id=f"s{i}", rate_hz=2000, channel_names=plant.joint_names,
                                  data=q.T, units=("rad",) * plant.njoints, metadata={}),
                          tmp_path / "in" / f"s{i}")
        timeseries._design_lowpass.cache_clear()
        manifest = run_batch(tmp_path / "in", plant, tmp_path / "out", workers=1)
        assert all(r.status == "ok" for r in manifest.records)
        info = timeseries._design_lowpass.cache_info()
        assert (info.misses, info.hits) == (1, 15)


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
        for dt in (np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                differentiate(np.zeros((10, 1)), dt)
