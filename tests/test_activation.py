import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myoctl.activation import _time_constant, smoothstep, step_activation


class TestSmoothstep:
    def test_clamped_branches(self):
        assert smoothstep(-0.3) == 0.0
        assert smoothstep(1.7) == 1.0

    def test_midpoint_exact(self):
        # 6/32 - 15/16 + 10/8 are all dyadic, so the midpoint is exactly 0.5.
        assert smoothstep(0.5) == 0.5

    def test_flat_at_both_ends(self):
        h = 1e-6
        for x0 in (0.0, 1.0):
            deriv = (smoothstep(x0 + h) - smoothstep(x0 - h)) / (2 * h)
            assert abs(deriv) < 1e-6

    def test_center_slope_is_15_eighths(self):
        h = 1e-5
        deriv = (smoothstep(0.5 + h) - smoothstep(0.5 - h)) / (2 * h)
        assert deriv == pytest.approx(15.0 / 8.0, abs=1e-9)

    def test_range_and_monotone(self):
        x = np.linspace(-1.0, 2.0, 5001)
        s = smoothstep(x)
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert np.all(np.diff(s) >= 0.0)


class TestTimeConstant:
    def test_smooth_midpoint_is_exact_average(self):
        tau = _time_constant(0.3 - 0.3, 0.01, 0.04, 0.005)
        assert tau == (0.01 + 0.04) / 2

    def test_smooth_is_always_positive(self):
        rng = np.random.default_rng(1)
        ctrl = rng.uniform(0, 1, 500)
        act = rng.uniform(0, 1, 500)
        tau = _time_constant(ctrl - act, 0.01, 0.04, 0.005)
        assert np.all(np.asarray(tau) > 0.0)

    def test_smoothing_width_to_zero_selects_the_switch(self):
        # Pointwise limit for ctrl != act: rising picks tau_act, falling tau_deact.
        for width in (1e-3, 1e-5, 1e-8):
            up = _time_constant(0.6 - 0.4, 0.01, 0.04, width)
            dn = _time_constant(0.4 - 0.6, 0.01, 0.04, width)
            assert up == pytest.approx(0.01)
            assert dn == pytest.approx(0.04)

    def test_mode_validation(self):
        for width in (0.0, -0.005, np.nan, np.array([0.005, 0.0])):
            with pytest.raises(ValueError, match="tau_smooth"):
                step_activation(0.4, 0.6, 0.002, 0.01, 0.04, width)


class TestStepActivation:
    def test_fixed_point(self):
        assert step_activation(0.37, 0.37, 0.002, 0.01, 0.04, 0.005) == pytest.approx(0.37)

    def test_euler_substitution(self):
        # An error of 1 saturates the smoothstep, so tau = tau_act = 0.01;
        # act' = 0 + 0.002 * (1 - 0) / 0.01 = 0.2.
        out = step_activation(0.0, 1.0, 0.002, 0.01, 0.04, 0.005)
        assert out == pytest.approx(0.2)

    def test_clamped_for_huge_step(self):
        assert step_activation(0.0, 1.0, 10.0, 0.01, 0.04, 0.005) == 1.0

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError, match="dt"):
            step_activation(0.0, 1.0, 0.0, 0.01, 0.04, 0.005)
        with pytest.raises(ValueError, match="dt"):
            step_activation(0.0, 1.0, -0.002, 0.01, 0.04, 0.005)

    @given(
        cases=st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.floats(0.0, 1.0),
                st.floats(0.005, 0.05),
                st.floats(0.005, 0.05),
            ),
            min_size=16,
            max_size=32,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_monotone_convergence_to_constant_control(self, cases):
        # Each example steps a batch of (ctrl, act0, tau_act, tau_deact)
        # tuples as one array: at least 160 tuples over the 10 examples.
        ctrl, act0, tau_act, tau_deact = np.array(cases).T
        dt = 0.4 * np.minimum(tau_act, tau_deact)
        act = act0
        up = ctrl > act0
        down = ctrl < act0
        # Slowest contraction is dt / max(tau_act, tau_deact) >= 0.04 per step;
        # 2000 steps close any unit gap well below the final tolerance.
        for _ in range(2000):
            nxt = step_activation(act, ctrl, dt, tau_act, tau_deact, 0.005)
            assert np.all((nxt >= 0.0) & (nxt <= 1.0))
            rising = (nxt >= act - 1e-15) & (nxt <= ctrl + 1e-12)
            falling = (nxt <= act + 1e-15) & (nxt >= ctrl - 1e-12)
            assert np.all(rising | ~up) and np.all(falling | ~down)
            act = nxt
        assert act == pytest.approx(ctrl, abs=1e-6)
