import time

import numpy as np
import pytest

import myoctl.qp
from myoctl.inverse import (
    InfeasibleFrameError,
    InverseInputs,
    build_qp,
    invert_frame,
    invert_trajectory,
    recover_ctrl,
    roundtrip,
    tau_linearization,
)
from myoctl.plant import make_fixture, rest_state, rollout, smooth_random_controls
from myoctl.qp import kkt_residual, solve_box_qp


def scalar_inputs(**overrides):
    """One joint, one muscle; the hand-checked reference frame."""
    fields = dict(
        moment_arms=np.array([[1.0]]),
        gain=np.array([-2.0]),
        bias=np.array([0.0]),
        act=np.array([0.5]),
        q_frc=np.array([-1.5]),
        timestep=0.002,
        tau1=0.0,
        tau2=0.02,
    )
    fields.update(overrides)
    return InverseInputs(**fields)


class TestTauLinearization:
    def test_equal_constants_have_no_slope(self):
        tau1, tau2 = tau_linearization(0.03, 0.03, 0.005)
        assert tau1 == 0.0
        assert tau2 == pytest.approx(0.03)

    def test_reference_values(self):
        # (15/8) * (0.01 - 0.04) / 0.005 = -11.25 and midpoint 0.025.
        tau1, tau2 = tau_linearization(0.01, 0.04, 0.005)
        assert tau1 == pytest.approx(-11.25)
        assert tau2 == pytest.approx(0.025)

    def test_doubling_width_halves_slope(self):
        tau1a, tau2a = tau_linearization(0.01, 0.04, 0.005)
        tau1b, tau2b = tau_linearization(0.01, 0.04, 0.010)
        assert tau1b == pytest.approx(tau1a / 2)
        assert tau2b == tau2a

    def test_zero_width_points_to_hard_mode(self):
        with pytest.raises(ValueError, match="hard"):
            tau_linearization(0.01, 0.04, 0.0)


class TestBuildQp:
    def test_scalar_reference_frame(self):
        # k = 1*(-2*0.5) + 0 - (-1.5) = 0.5; A = 1, b = -k = -0.5;
        # lb = 0.002*(-2)*0.5/0.02 = -0.1; ub = 0.002*(-2)*(-0.5)/0.02 = 0.1.
        problem = build_qp(scalar_inputs())
        assert problem.A == pytest.approx(np.array([[1.0]]))
        assert problem.b == pytest.approx(np.array([-0.5]))
        assert problem.lb == pytest.approx(np.array([-0.1]))
        assert problem.ub == pytest.approx(np.array([0.1]))

    def test_zero_gain_pins_variable(self):
        inp = scalar_inputs(gain=np.array([0.0]))
        problem = build_qp(inp)
        assert problem.lb[0] == 0.0
        assert problem.ub[0] == 0.0

    def test_target_already_met(self):
        inp = scalar_inputs(q_frc=np.array([-2.0 * 0.5 + 0.0]))
        problem = build_qp(inp)
        assert problem.b == pytest.approx(np.zeros(1))

    def test_bounds_bracket_zero_for_pulling_muscles(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            act = rng.uniform(0.01, 0.99)
            tau2 = rng.uniform(0.01, 0.05)
            inp = scalar_inputs(
                gain=np.array([-rng.uniform(0.1, 5.0)]),
                act=np.array([act]),
                tau1=rng.uniform(-0.9, 0.9) * tau2,
                tau2=tau2,
            )
            problem = build_qp(inp)
            assert problem.lb[0] < 0.0 < problem.ub[0]

    def test_sign_flipped_denominator_is_infeasible(self):
        # The default asymmetric time constants give tau1 = -11.25, which
        # makes the lower-bound denominator negative at mid activation; the
        # linearization is only locally valid there and the frame must be
        # rejected rather than solved with an inverted box.
        tau1, tau2 = tau_linearization(0.01, 0.04, 0.005)
        with pytest.raises(InfeasibleFrameError):
            build_qp(scalar_inputs(tau1=tau1, tau2=tau2))

    def test_vanishing_denominator_is_infeasible(self):
        # (1 - act) * tau1 + tau2 == 0 exactly at act = 0.5, tau1 = -2*tau2.
        with pytest.raises(InfeasibleFrameError):
            build_qp(scalar_inputs(tau1=-0.04, tau2=0.02))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            scalar_inputs(gain=np.array([0.5]))  # positive gain
        with pytest.raises(ValueError):
            scalar_inputs(act=np.array([1.5]))
        with pytest.raises(ValueError):
            scalar_inputs(timestep=0.0)
        with pytest.raises(ValueError):
            scalar_inputs(tau2=0.0)
        with pytest.raises(ValueError):
            scalar_inputs(q_frc=np.zeros(2))


class TestRecoverCtrl:
    def test_zero_step_returns_activation(self):
        inp = scalar_inputs()
        assert recover_ctrl(np.zeros(1), inp) == pytest.approx(np.array([0.5]))

    def test_scalar_reference_value(self):
        # ctrl = 0.5 + (-0.1 * 0.02) / (0.002 * -2) = 1.0.
        inp = scalar_inputs()
        assert recover_ctrl(np.array([-0.1]), inp) == pytest.approx(np.array([1.0]))

    def test_bound_saturation(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            tau2 = rng.uniform(0.01, 0.05)
            inp = scalar_inputs(
                gain=np.array([-rng.uniform(0.1, 5.0)]),
                act=np.array([rng.uniform(0.02, 0.98)]),
                tau1=rng.uniform(-0.9, 0.9) * tau2,
                tau2=tau2,
                timestep=rng.uniform(5e-4, 5e-3),
            )
            problem = build_qp(inp)
            assert recover_ctrl(problem.lb, inp)[0] == pytest.approx(1.0, abs=1e-9)
            assert recover_ctrl(problem.ub, inp)[0] == pytest.approx(0.0, abs=1e-9)

    def test_monotone_non_increasing_in_x(self):
        inp = scalar_inputs(tau1=0.008)
        problem = build_qp(inp)
        grid = np.linspace(problem.lb[0], problem.ub[0], 501)
        ctrl = np.array([recover_ctrl(np.array([x]), inp)[0] for x in grid])
        assert np.all(np.diff(ctrl) <= 1e-12)

    def test_zero_gain_keeps_activation(self):
        inp = scalar_inputs(gain=np.array([0.0]))
        assert recover_ctrl(np.zeros(1), inp)[0] == 0.5

    def test_algebraic_inversion_identity(self):
        # Substituting the linearized update into the recovery formula must
        # reproduce the control exactly; 1e5-sample version in acceptance.
        rng = np.random.default_rng(11)
        count = 0
        while count < 20000:
            n = 1000
            gain = -rng.uniform(0.1, 5.0, n)
            act = rng.uniform(0.0, 1.0, n)
            ctrl = rng.uniform(0.0, 1.0, n)
            dt = rng.uniform(1e-4, 1e-2, n)
            tau1 = rng.uniform(-1.0, 1.0, n)
            tau2 = rng.uniform(0.005, 0.05, n)
            diff = ctrl - act
            den1 = diff * tau1 + tau2
            x = dt * gain * diff / den1
            den2 = dt * gain - x * tau1
            ok = (np.abs(den1) >= 1e-6) & (np.abs(den2) >= 1e-6)
            recovered = act[ok] + x[ok] * tau2[ok] / den2[ok]
            assert np.abs(recovered - ctrl[ok]).max() < 1e-9
            count += int(ok.sum())


class TestInvertFrame:
    def test_scalar_reference_frame(self):
        # One-variable problem solved by clipping: x = -0.1, ctrl = 1,
        # residual = |1*(-0.1) + 0.5| = 0.4.
        sol = invert_frame(scalar_inputs())
        assert sol.ctrl == pytest.approx(np.array([1.0]))
        assert sol.x == pytest.approx(np.array([-0.1]))
        assert sol.residual == pytest.approx(0.4)
        assert sol.converged

    def test_target_already_met(self):
        inp = scalar_inputs(q_frc=np.array([-1.0]))
        sol = invert_frame(inp)
        assert sol.x == pytest.approx(np.zeros(1), abs=1e-12)
        assert sol.ctrl == pytest.approx(np.array([0.5]), abs=1e-9)
        assert sol.residual <= 1e-10

    def test_antagonist_pair_reaches_known_target(self):
        # Build the target force from a known control, then invert; the
        # over-actuated frame must reach it to solver accuracy.
        moment_arms = np.array([[0.01, -0.01]])
        gain = np.array([-2.0, -2.2])
        bias = np.array([0.0, 0.0])
        act = np.array([0.3, 0.4])
        dt, tau1, tau2 = 0.002, 0.0, 0.02
        ctrl_true = np.array([0.8, 0.25])
        act_next = act + dt * (ctrl_true - act) / tau2
        q_frc = moment_arms @ (gain * act_next + bias)
        inp = InverseInputs(moment_arms, gain, bias, act, q_frc, dt, tau1, tau2)
        sol = invert_frame(inp)
        assert sol.residual < 1e-9
        assert np.all((sol.ctrl >= 0.0) & (sol.ctrl <= 1.0))
        # Over-actuated: controls are non-unique, so compare the achieved
        # force rather than the control vector itself.
        act_achieved = act + dt * (sol.ctrl - act) / tau2
        q_frc_achieved = moment_arms @ (gain * act_achieved + bias)
        assert q_frc_achieved == pytest.approx(q_frc, abs=1e-9)

    def test_zero_gain_actuator_stays_pinned(self):
        rng = np.random.default_rng(8)
        gain = -rng.uniform(0.5, 2.0, 4)
        gain[1] = 0.0
        act = rng.uniform(0.2, 0.8, 4)
        inp = InverseInputs(
            rng.uniform(-0.01, 0.01, (2, 4)), gain, np.zeros(4), act,
            q_frc=rng.uniform(-0.01, 0.01, 2), timestep=0.002, tau1=0.0, tau2=0.02,
        )
        problem = build_qp(inp)
        assert problem.lb[1] == problem.ub[1] == 0.0
        sol = invert_frame(inp)
        assert sol.x[1] == 0.0
        assert sol.ctrl[1] == act[1]
        assert sol.converged
        assert kkt_residual(problem, sol.x) <= 1e-10

    def test_all_pinned_frame_skips_the_solver(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("lsq_linear called with every variable pinned")

        monkeypatch.setattr(myoctl.qp, "lsq_linear", fail)
        act = np.array([0.3, 0.6])
        inp = InverseInputs(
            np.array([[0.01, -0.01]]), np.zeros(2), np.zeros(2), act,
            q_frc=np.array([0.5]), timestep=0.002, tau1=0.0, tau2=0.02,
        )
        x, diag = solve_box_qp(build_qp(inp))
        assert np.array_equal(x, np.zeros(2))
        assert diag.iterations == 0 and diag.converged
        sol = invert_frame(inp)
        assert np.array_equal(sol.ctrl, act)
        assert sol.residual == pytest.approx(0.5)

    def test_residual_optimality_against_random_sampling(self):
        rng = np.random.default_rng(5)
        moment_arms = rng.uniform(-0.01, 0.01, (2, 5))
        gain = -rng.uniform(0.5, 2.0, 5)
        act = rng.uniform(0.2, 0.8, 5)
        inp = InverseInputs(
            moment_arms, gain, np.zeros(5), act,
            q_frc=rng.uniform(-0.01, 0.01, 2),
            timestep=0.002, tau1=0.0, tau2=0.02,
        )
        problem = build_qp(inp)
        x, _ = solve_box_qp(problem)
        gap = inp.moment_arms @ (inp.gain * inp.act) - inp.q_frc
        best = np.linalg.norm(moment_arms @ x + gap)
        samples = rng.uniform(problem.lb, problem.ub, (1000, 5))
        sampled = np.linalg.norm(samples @ moment_arms.T + gap, axis=1)
        assert sampled.min() >= best - 1e-10


class TestInvertTrajectory:
    def test_equilibrium_pose_needs_no_control(self):
        plant = make_fixture("toy_finger")
        q = np.zeros((50, plant.njoints))
        result = invert_trajectory(plant, q, 500.0)
        assert result.status == "ok"
        assert result.infeasible_frames == 0
        assert np.abs(result.residuals).max() < 1e-9
        assert np.abs(result.ctrl).max() < 1e-9

    def test_nan_input_fails_with_frame_index(self):
        plant = make_fixture("toy_finger")
        q = np.zeros((50, plant.njoints))
        q[17, 0] = np.nan
        result = invert_trajectory(plant, q, 500.0)
        assert result.status == "failed"
        assert "frame 17" in result.failure_reason

    def test_too_few_frames_is_a_precondition(self):
        plant = make_fixture("toy_finger")
        with pytest.raises(ValueError):
            invert_trajectory(plant, np.zeros((2, plant.njoints)), 500.0)

    def test_activation_state_matches_replay(self):
        # The inversion propagates activation with its own recovered
        # controls, so replaying them reproduces that state sequence.
        plant = make_fixture("toy_finger")
        dt = 0.002
        ctrl = smooth_random_controls(plant.nactuators, 250, dt, 4)
        reference = rollout(plant, rest_state(plant), ctrl, dt)
        inv = invert_trajectory(plant, reference.q, 500.0)
        replay = rollout(plant, rest_state(plant), inv.ctrl, dt)
        assert np.allclose(replay.act, inv.act, atol=1e-12)

    def test_hand_like_roundtrip_has_no_solver_stalls(self):
        # Regression: frames of this trajectory once ran to the iteration cap
        # and were counted infeasible; the one left cannot reach its force.
        start = time.perf_counter()
        report = roundtrip(make_fixture("hand_like"), seed=1)
        elapsed = time.perf_counter() - start
        assert report.status == "ok"
        assert report.infeasible_frames <= 1
        assert elapsed < 10.0, f"took {elapsed:.1f} s"

    def test_short_roundtrip(self):
        plant = make_fixture("toy_finger")
        report = roundtrip(plant, seed=3, duration=0.5, rate_hz=500.0)
        assert report.status == "ok"
        assert report.rmse < 1e-2
