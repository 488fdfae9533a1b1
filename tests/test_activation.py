import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import myoctl.muscle
import step_oracle
from myoctl.inverse import _frame_problem
from myoctl.muscle import _edge_taus, _time_constant, smoothstep, step_activation
from myoctl.plant import make_fixture


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
        # Unchecked, these returned 1.0, NaN and 0.5 -> 0.515 under control 0.2.
        for name, args in (("tau_act", (0.0, 1.0, 0.002, 0.0, 0.04, 0.005)),
                           ("tau_act", (0.0, 1.0, 0.002, np.nan, 0.04, 0.005)),
                           ("tau_deact", (0.5, 0.2, 0.002, 0.01, -0.04, 0.005))):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                step_activation(*args)


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
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step_activation(0.0, 1.0, np.inf, 0.01, 0.04, 0.005)

    @pytest.mark.parametrize("index, name", [(2, "dt"), (3, "tau_act"), (5, "tau_smooth")])
    @pytest.mark.parametrize("value", [True, "0.002", np.array([True, False]), [0.01, True],
                                       np.array(["0.01"])])
    def test_argument_that_is_not_a_number_is_named(self, index, name, value):
        # True used to act as 1 and "0.002" as 0.002.
        args = [0.0, 1.0, 0.002, 0.01, 0.04, 0.005]
        args[index] = value
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
            step_activation(*args)

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


class TestActivationBounds:
    """The inversion's activation bounds, the step under controls 0 and 1,
    which skips the smoothstep when no control error lies inside the blend
    window, against the unsplit step of ``tests/step_oracle.py``, byte for
    byte, as the frame loop builds them on ``(lanes, nact)`` stacks and the
    check after it on ``(frames, lanes, nact)`` stacks."""

    @staticmethod
    def stack(case, tau_smooth):
        """Activations of 3 lanes whose smoothstep arguments all lie outside
        (0, 1) under both controls, except one entry per ``case``."""
        act = np.random.default_rng(3).uniform(tau_smooth, 1.0 - tau_smooth, (3, 4))
        if case == "one inside":
            # Control 0's argument is 1/4.
            act[1, 2] = 0.25 * tau_smooth
        elif case == "reach 0":
            act[1, 2] = 0.5 * tau_smooth
            assert (0.0 - act[1, 2]) / tau_smooth + 0.5 == 0.0
        elif case == "reach 1":
            act[2, 0] = 1.0 - 0.5 * tau_smooth
            assert (1.0 - act[2, 0]) / tau_smooth + 0.5 == 1.0
        return act

    @pytest.mark.parametrize("taus", [(0.02, 0.02), (0.01, 0.04), (0.005, 0.08)],
                             ids=["20/20", "10/40", "5/80"])
    # At the fixtures' 5 ms blend width no activation puts control 1's argument
    # at exactly 1; at 2**-8 s, 1 - 2**-9 does.
    @pytest.mark.parametrize("case, tau_smooth, blended", [
        ("all outside", 0.005, False), ("all outside", 2.0**-8, False),
        ("one inside", 0.005, True), ("reach 0", 2.0**-8, False), ("reach 1", 2.0**-8, False),
    ])
    @pytest.mark.parametrize("frames", [False, True], ids=["loop", "check"])
    def test_bounds_match_the_oracle_byte_for_byte(self, monkeypatch, taus, case, tau_smooth,
                                                   blended, frames):
        act = self.stack(case, tau_smooth)
        if frames:
            act = np.stack((act, act[::-1]))
        dt = np.asarray(0.002)
        tau_act, tau_deact, tau_smooth = (np.full(4, v) for v in (*taus, tau_smooth))
        filter_args = (dt, tau_act, tau_deact, tau_smooth)
        expected = np.stack([step_oracle.step_activation(act, np.asarray(ctrl), *filter_args)
                             for ctrl in (0.0, 1.0)])
        arms = make_fixture("toy_finger").moment_arms
        gain = -np.ones_like(act)
        gap_base = np.zeros(act.shape[:-1] + (2,))
        real, calls = myoctl.muscle._blend, []
        monkeypatch.setattr(myoctl.muscle, "_blend",
                            lambda *args: calls.append(None) or real(*args))
        # As the frame loop calls it, with the edge time constants built once,
        # and as the per-frame oracle of tests/kkt_oracle.py does, without.
        for extra in ((_edge_taus(tau_act, tau_deact),), ()):
            bounds = _frame_problem(arms, act, gain, gap_base, gain, filter_args, *extra)[3]
            assert bounds.tobytes() == expected.tobytes()
        assert len(calls) == (2 if blended else 0)
