import dataclasses
import functools
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

import myoctl.inverse
import myoctl.qp
from myoctl.inverse import (
    CAUSES,
    MIN_FRAMES,
    _gap_base,
    _invert_lanes,
    _live,
    _prepare,
    _recover_ctrl,
    invert_frame,
    invert_trajectory,
    roundtrip,
)
from myoctl.muscle import MuscleParams, step_activation
from myoctl.pipeline import _GROUP_CAP
from myoctl.plant import (
    PlantError,
    _gain_bias,
    _normalized,
    differentiate,
    inverse_dynamics,
    make_fixture,
    rest_state,
    rollout,
    smooth_random_controls,
    tendon_kinematics,
)
from myoctl.qp import BoxQp, BvlsSolver, solve_box_qp

import kkt_oracle
from ctrl_oracle import bisect_ctrl
from qp_oracle import first_initialization_exit, kkt_residual


def invert_frame_by_frame(plant, q, rate_hz, fail_threshold=1e-3):
    """Reference inversion: every activation-independent term per frame.

    Returns ``(ctrl, act, residuals, infeasible_frames)``.
    """
    dt = 1.0 / rate_hz
    qdot, qddot = differentiate(q, dt)
    taus = plant._muscle.taus
    act = np.zeros(plant.nactuators)
    ctrl, acts, residuals, infeasible = [], [], [], 0
    for t in range(q.shape[0]):
        lengths, velocities = tendon_kinematics(plant, q[t], qdot[t])
        gain, bias = _gain_bias(plant, *_normalized(plant, lengths, velocities))
        q_frc = inverse_dynamics(plant, q[t], qdot[t], qddot[t])
        inp = frame_inputs(plant.moment_arms, gain, bias, act, q_frc, dt, *taus)
        threshold = fail_threshold * max(1.0, float(np.abs(q_frc).max()))
        frame = solve_frame(inp)
        infeasible += not (frame.converged and frame.residual <= threshold)
        ctrl.append(frame.ctrl)
        acts.append(act)
        residuals.append(frame.residual)
        act = step_activation(act, frame.ctrl, dt, *taus)
    return np.array(ctrl), np.array(acts), np.array(residuals), infeasible


def frame_inputs(moment_arms, gain, bias, act, q_frc, timestep, tau_act, tau_deact, tau_smooth):
    """One frame's inputs: the transmission matrix, the frame's gain and bias
    (N, ``gain <= 0``), the activation before the step, the target
    generalized force (N m), the time step (s) and the activation filter's
    time constants (s)."""
    return SimpleNamespace(**locals())


def scalar_inputs(**overrides):
    """One joint, one muscle; the hand-checked reference frame."""
    fields = dict(
        moment_arms=np.array([[1.0]]),
        gain=np.array([-2.0]),
        bias=np.array([0.0]),
        act=np.array([0.5]),
        q_frc=np.array([-1.5]),
        timestep=0.002,
        tau_act=0.02,
        tau_deact=0.02,
        tau_smooth=0.005,
    )
    fields.update(overrides)
    return frame_inputs(**fields)


def random_scalar_inputs(rng):
    """A scalar frame with random gain, activation, step and time constants."""
    return scalar_inputs(
        gain=np.array([-rng.uniform(0.1, 5.0)]),
        act=np.array([rng.uniform(0.02, 0.98)]),
        timestep=rng.uniform(5e-4, 5e-3),
        tau_act=rng.uniform(0.01, 0.05),
        tau_deact=rng.uniform(0.01, 0.05),
        tau_smooth=rng.uniform(0.001, 0.02),
    )


def recorded_solves(run):
    """``(A, b, lb, ub, x)`` of every ``BvlsSolver.solve`` call ``run()`` makes, and its result.

    ``b``, ``lb``, ``ub`` and the returned ``x`` are the call's stacks, one
    problem per row.
    """
    calls = []
    real = myoctl.qp.BvlsSolver.solve

    def recording(solver, b, lb, ub, *args, **kwargs):
        result = real(solver, b, lb, ub, *args, **kwargs)
        calls.append((solver.A, b, lb, ub, result[0]))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(myoctl.qp.BvlsSolver, "solve", recording)
        result = run()
    return calls, result


def solve_frame(inp):
    """Run the loop's frame function on ``inp`` as a stack of one.

    As a one-lane trajectory's frame does, it takes a solver bound to the
    moment arms, the force gap's activation-free part and the live and safe
    gains; the gap must not overflow (:func:`_prepare` rejects such a frame).
    Returns the control, the solve's ``x``, the residual's largest
    magnitude, the converged flag (both from ``BvlsSolver.check`` on the
    arrays the solver was handed, as the loop judges its frames after it
    ends), the iteration count and the checked problem the solver was handed.
    """
    gap_base, overflows = _gap_base(inp.moment_arms, inp.gain, inp.bias, inp.q_frc)
    assert not overflows
    solver = BvlsSolver(inp.moment_arms)
    ((A, b, lb, ub, x),), (act_next, frame_x, iterations) = recorded_solves(
        lambda: invert_frame(solver, inp.act[None], inp.gain, gap_base,
                             *_live(inp.gain), taus_of(inp)))
    assert b.shape[0] == lb.shape[0] == ub.shape[0] == x.shape[0] == act_next.shape[0] == 1
    assert frame_x.tobytes() == x.tobytes()
    converged, residual = solver.check(x, b, lb, ub)
    return SimpleNamespace(
        ctrl=_recover_ctrl(inp.act, act_next[0], *taus_of(inp)), x=x[0],
        residual=float(np.abs(residual).max()), converged=bool(converged[0]),
        iterations=int(iterations[0]), problem=BoxQp(A, b[0], lb[0], ub[0]))


def frame_problem(inp):
    """The checked problem on the arrays :func:`invert_frame` hands its solver for ``inp``."""
    return solve_frame(inp).problem


def taus_of(inp):
    return inp.timestep, inp.tau_act, inp.tau_deact, inp.tau_smooth


def ctrl_for(x, inp):
    """Control that realizes ``x = gain * (act' - act)``: ``act' = act + x / gain``."""
    return _recover_ctrl(inp.act, inp.act + np.asarray(x) / inp.gain, *taus_of(inp))


def with_time_constants(plant, tau_act, tau_deact):
    params = tuple(
        dataclasses.replace(p, tau_act=tau_act, tau_deact=tau_deact) for p in plant.params
    )
    return dataclasses.replace(plant, params=params)


class TestBuildQp:
    """The bounded least-squares problem each frame hands to the solver."""

    def test_scalar_reference_frame(self):
        # k = 1*(-2*0.5) + 0 - (-1.5) = 0.5; A = 1, b = -k = -0.5. Controls 0
        # and 1 step the activation to 0.45 and 0.55, so
        # lb = -2*(0.55 - 0.5) = -0.1 and ub = -2*(0.45 - 0.5) = 0.1.
        problem = frame_problem(scalar_inputs())
        assert problem.A == pytest.approx(np.array([[1.0]]))
        assert problem.b == pytest.approx(np.array([-0.5]))
        assert problem.lb == pytest.approx(np.array([-0.1]))
        assert problem.ub == pytest.approx(np.array([0.1]))

    def test_zero_gain_pins_variable(self):
        # A gain below 1e-12 N counts as dead, like an exact zero.
        for gain in (0.0, -1e-13):
            problem = frame_problem(scalar_inputs(gain=np.array([gain])))
            assert problem.lb[0] == 0.0
            assert problem.ub[0] == 0.0

    def test_target_already_met(self):
        inp = scalar_inputs(q_frc=np.array([-2.0 * 0.5 + 0.0]))
        problem = frame_problem(inp)
        assert problem.b == pytest.approx(np.zeros(1))

    def test_bounds_bracket_zero_for_pulling_muscles(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            problem = frame_problem(random_scalar_inputs(rng))
            assert problem.lb[0] < 0.0 < problem.ub[0]

    def test_box_is_the_activation_step_under_controls_0_and_1(self):
        # Unequal rise and fall constants, the MuscleParams defaults among
        # them, bound the next activation by the simulator's own step.
        rng = np.random.default_rng(4)
        defaults = MuscleParams()
        cases = [scalar_inputs(tau_act=defaults.tau_act, tau_deact=defaults.tau_deact,
                               tau_smooth=defaults.tau_smooth)]
        cases += [random_scalar_inputs(rng) for _ in range(100)]
        for inp in cases:
            problem = frame_problem(inp)
            lo, hi = (step_activation(inp.act, u, *taus_of(inp)) for u in (0.0, 1.0))
            assert problem.lb == pytest.approx(inp.gain * (hi - inp.act), rel=1e-15)
            assert problem.ub == pytest.approx(inp.gain * (lo - inp.act), rel=1e-15)


class TestRecoverCtrl:
    def test_zero_step_returns_activation(self):
        inp = scalar_inputs()
        assert ctrl_for(np.zeros(1), inp) == pytest.approx(np.array([0.5]), abs=1e-12)

    def test_scalar_reference_value(self):
        # x = -0.1 steps the activation to 0.5 + (-0.1) / (-2) = 0.55, which
        # control 1 reaches: 0.5 + 0.002 * (1 - 0.5) / 0.02.
        inp = scalar_inputs()
        assert ctrl_for(np.array([-0.1]), inp) == pytest.approx(np.array([1.0]), abs=1e-12)

    def test_bound_saturation(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            inp = random_scalar_inputs(rng)
            problem = frame_problem(inp)
            assert ctrl_for(problem.lb, inp)[0] == pytest.approx(1.0, abs=1e-9)
            assert ctrl_for(problem.ub, inp)[0] == pytest.approx(0.0, abs=1e-9)

    def test_monotone_non_increasing_in_x(self):
        inp = scalar_inputs(tau_act=0.01, tau_deact=0.04)
        problem = frame_problem(inp)
        grid = np.linspace(problem.lb[0], problem.ub[0], 501)
        ctrl = ctrl_for(grid, inp)
        assert np.all(np.diff(ctrl) <= 1e-12)

    def test_zero_gain_keeps_activation(self):
        inp = scalar_inputs(gain=np.array([0.0]))
        assert solve_frame(inp).ctrl[0] == pytest.approx(0.5, abs=1e-12)

    def test_algebraic_inversion_identity(self):
        # Recovering the control from the activation step it produced must
        # reproduce it wherever the step is not clamped to [0, 1] (there it
        # is strictly increasing); 1e5-sample version in acceptance.
        rng = np.random.default_rng(11)
        count = 0
        while count < 20000:
            n = 1000
            act = rng.uniform(0.0, 1.0, n)
            ctrl = rng.uniform(0.0, 1.0, n)
            args = (rng.uniform(1e-4, 1e-2, n), rng.uniform(0.005, 0.05, n),
                    rng.uniform(0.005, 0.05, n), rng.uniform(0.001, 0.05, n))
            act_next = step_activation(act, ctrl, *args)
            ok = (act_next > 0.0) & (act_next < 1.0)
            recovered = _recover_ctrl(act, act_next, *args)
            assert np.abs(recovered[ok] - ctrl[ok]).max() < 1e-9
            # The returned end of the bracket is the one whose step reaches.
            assert np.all(step_activation(act, recovered, *args) >= act_next)
            count += int(ok.sum())

    @staticmethod
    def assert_matches_bisection(act, act_next, *args):
        recovered = _recover_ctrl(act, act_next, *args)
        reference = bisect_ctrl(act, act_next, *args)
        assert recovered.shape == reference.shape
        assert recovered.tobytes() == reference.tobytes()

    def test_matches_bisection_on_random_steps(self, monkeypatch):
        # Criterion 4's draws: per-entry steps and unequal time constants,
        # with steps up to twice the shorter constant, so some clamp. Both
        # ways through the recovery run: the seeded bisection and, for
        # entries whose interval fails its check, the full one.
        levels = set()
        real = myoctl.inverse._bisect

        def recording(act, act_next, lo, level, filter_args):
            levels.add(level)
            return real(act, act_next, lo, level, filter_args)

        monkeypatch.setattr(myoctl.inverse, "_bisect", recording)
        rng = np.random.default_rng(4)
        n = 50_000
        act = rng.uniform(0.0, 1.0, n)
        args = (rng.uniform(1e-4, 1e-2, n), rng.uniform(0.005, 0.05, n),
                rng.uniform(0.005, 0.05, n), rng.uniform(0.001, 0.05, n))
        act_next = step_activation(act, rng.uniform(0.0, 1.0, n), *args)
        self.assert_matches_bisection(act, act_next, *args)
        assert levels == {0, 40}

    def test_matches_bisection_at_the_saturation_edges(self):
        # Next activations that controls 0 and 1 reach, from anywhere in
        # [0, 1] and from both ends, including steps clamped at 0 or 1.
        rng = np.random.default_rng(5)
        n = 20_000
        act = rng.uniform(0.0, 1.0, n)
        act[:500], act[500:1000] = 0.0, 1.0
        args = (rng.uniform(1e-4, 2e-2, n), rng.uniform(0.005, 0.05, n),
                rng.uniform(0.005, 0.05, n), rng.uniform(0.001, 0.05, n))
        for edge in (0.0, 1.0):
            self.assert_matches_bisection(act, step_activation(act, edge, *args), *args)
        for act_next in (0.0, 1.0):
            self.assert_matches_bisection(act, np.full(n, act_next), *args)

    @pytest.mark.parametrize("kind, time_constants", [
        ("toy_finger", None), ("hand_like", None), ("toy_finger", (0.01, 0.04)),
    ])
    def test_matches_bisection_on_an_inversion(self, kind, time_constants):
        plant = make_fixture(kind)
        if time_constants:
            plant = with_time_constants(plant, *time_constants)
        dt = 0.002
        ctrl = smooth_random_controls(plant.nactuators, 500, dt, 6)
        q = rollout(plant, rest_state(plant), ctrl, dt).q
        result = invert_trajectory(plant, q, 500.0)
        args = (dt, *plant._muscle.taus)
        reference = bisect_ctrl(result.act[:-1], result.act[1:], *args)
        assert result.ctrl[:-1].tobytes() == reference.tobytes()


class TestInvertFrame:
    def test_scalar_reference_frame(self):
        # One-variable problem solved by clipping: x = -0.1, ctrl = 1,
        # residual = |1*(-0.1) + 0.5| = 0.4.
        sol = solve_frame(scalar_inputs())
        assert sol.ctrl == pytest.approx(np.array([1.0]), abs=1e-12)
        assert sol.x == pytest.approx(np.array([-0.1]))
        assert sol.residual == pytest.approx(0.4)
        assert sol.converged

    def test_target_already_met(self):
        inp = scalar_inputs(q_frc=np.array([-1.0]))
        sol = solve_frame(inp)
        assert sol.x == pytest.approx(np.zeros(1), abs=1e-12)
        assert sol.ctrl == pytest.approx(np.array([0.5]), abs=1e-9)
        assert sol.residual <= 1e-10

    def test_antagonist_pair_reaches_known_target(self):
        # Build the target force from a known control, then invert; the
        # over-actuated frame must reach it to solver accuracy, with unequal
        # rise and fall time constants.
        moment_arms = np.array([[0.01, -0.01]])
        gain = np.array([-2.0, -2.2])
        bias = np.array([0.0, 0.0])
        act = np.array([0.3, 0.4])
        taus = (0.002, 0.01, 0.04, 0.005)
        ctrl_true = np.array([0.8, 0.25])
        act_next = step_activation(act, ctrl_true, *taus)
        q_frc = moment_arms @ (gain * act_next + bias)
        inp = frame_inputs(moment_arms, gain, bias, act, q_frc, *taus)
        sol = solve_frame(inp)
        assert sol.residual < 1e-9
        assert np.all((sol.ctrl >= 0.0) & (sol.ctrl <= 1.0))
        # Over-actuated: controls are non-unique, so compare the achieved
        # force rather than the control vector itself.
        act_achieved = step_activation(act, sol.ctrl, *taus)
        q_frc_achieved = moment_arms @ (gain * act_achieved + bias)
        assert q_frc_achieved == pytest.approx(q_frc, abs=1e-9)

    def test_zero_gain_actuator_stays_pinned(self):
        rng = np.random.default_rng(8)
        gain = -rng.uniform(0.5, 2.0, 4)
        gain[1] = 0.0
        act = rng.uniform(0.2, 0.8, 4)
        inp = frame_inputs(
            rng.uniform(-0.01, 0.01, (2, 4)), gain, np.zeros(4), act,
            q_frc=rng.uniform(-0.01, 0.01, 2), timestep=0.002,
            tau_act=0.02, tau_deact=0.02, tau_smooth=0.005,
        )
        problem = frame_problem(inp)
        assert problem.lb[1] == problem.ub[1] == 0.0
        sol = solve_frame(inp)
        assert sol.x[1] == 0.0
        assert sol.ctrl[1] == pytest.approx(act[1], abs=1e-12)
        assert sol.converged
        assert kkt_residual(problem.A, problem.b, problem.lb, problem.ub, sol.x) <= 1e-10

    def test_all_pinned_frame_skips_the_solver(self, monkeypatch):
        act = np.array([0.3, 0.6])
        inp = frame_inputs(
            np.array([[0.01, -0.01]]), np.zeros(2), np.zeros(2), act,
            q_frc=np.array([0.5]), timestep=0.002,
            tau_act=0.02, tau_deact=0.02, tau_smooth=0.005,
        )
        problem = frame_problem(inp)

        def fail(*args, **kwargs):
            raise AssertionError("subproblem solved with every variable pinned")

        monkeypatch.setattr(myoctl.qp.BvlsSolver, "_subproblem", fail)
        x, diag = solve_box_qp(problem)
        assert np.array_equal(x, np.zeros(2))
        assert diag.iterations == 0 and diag.converged
        sol = solve_frame(inp)
        assert sol.ctrl == pytest.approx(act, abs=1e-12)
        assert sol.residual == pytest.approx(0.5)

    def test_residual_optimality_against_random_sampling(self):
        rng = np.random.default_rng(5)
        moment_arms = rng.uniform(-0.01, 0.01, (2, 5))
        gain = -rng.uniform(0.5, 2.0, 5)
        act = rng.uniform(0.2, 0.8, 5)
        inp = frame_inputs(
            moment_arms, gain, np.zeros(5), act,
            q_frc=rng.uniform(-0.01, 0.01, 2),
            timestep=0.002, tau_act=0.02, tau_deact=0.02, tau_smooth=0.005,
        )
        problem = frame_problem(inp)
        x, _ = solve_box_qp(problem)
        gap = inp.moment_arms @ (inp.gain * inp.act) - inp.q_frc
        best = np.linalg.norm(moment_arms @ x + gap)
        samples = rng.uniform(problem.lb, problem.ub, (1000, 5))
        sampled = np.linalg.norm(samples @ moment_arms.T + gap, axis=1)
        assert sampled.min() >= best - 1e-10


def noisy_trajectories(plant, lengths, sigma, dt=0.002):
    """Forward-simulated trajectories of the given lengths, plus seeded pose noise."""
    rng = np.random.default_rng(17)
    trajectories = []
    for seed, nframes in enumerate(lengths):
        ctrl = smooth_random_controls(plant.nactuators, nframes, dt, seed)
        q = rollout(plant, rest_state(plant), ctrl, dt).q
        trajectories.append(q + sigma * rng.standard_normal(q.shape))
    return trajectories


def inversion_bytes(result):
    """Every field of a TrajectoryInversion, arrays as dtype, shape and bytes."""
    fields = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        fields[f.name] = value
    return fields


class TestLanes:
    """Trajectories inverted together in one frame loop, against one at a time.

    This guards the loop's stacked-column products: a numpy that evaluated
    ``M @ v[..., None]`` with another kernel than ``M @ v`` would change
    some lane's bits.
    """

    @pytest.mark.parametrize("nlanes", [1, 2, _GROUP_CAP, _GROUP_CAP + 1])
    @pytest.mark.parametrize("kind", ["toy_finger", "hand_like", "random"])
    @pytest.mark.parametrize("sigma", [0.0, 1e-6])
    def test_lanes_match_one_at_a_time(self, kind, nlanes, sigma):
        plant = make_fixture(kind, seed=3, njoints=3, nactuators=7) if kind == "random" \
            else make_fixture(kind)
        # Mixed lengths, MIN_FRAMES among them, so lanes drop out of the loop
        # at different frames.
        lengths = [(MIN_FRAMES, 150, 40, 400, 90, 260, 5, 330, 120)[i % 9] for i in range(nlanes)]
        if kind == "hand_like":
            lengths = [min(n, 120) for n in lengths]
        trajectories = noisy_trajectories(plant, lengths, sigma)
        lanes = [_prepare(plant, q, 500.0) for q in trajectories]
        together = _invert_lanes(plant, lanes)
        alone = [invert_trajectory(plant, q, 500.0) for q in trajectories]
        assert [inversion_bytes(r) for r in together] == [inversion_bytes(r) for r in alone]
        if nlanes >= _GROUP_CAP:
            # Lanes went through the solver, and on the small plants also
            # took their first step as the answer; noise made frames
            # infeasible.
            iterations = np.concatenate([r.iterations for r in alone])
            assert (iterations > 0).any()
            assert (iterations == 0).any() or kind == "hand_like"
            assert bool(sum(r.infeasible_frames for r in alone)) == bool(sigma)

    def test_one_solve_per_frame_and_bvls_only_where_the_first_step_is_not_the_answer(
            self, monkeypatch):
        # Each frame hands all its lanes to one solve call, which takes their
        # unbounded first steps together, and then the first initialization
        # step of those that leave a box pinning nothing. Only a lane-frame
        # whose box pins a variable, or that is alone in its frame (the
        # longest lane's last 70 frames), reaches the per-row BVLS loop from
        # its first step; one that the stacked step leaves unfinished
        # reaches it with the state the step left. Actuator 1's gain is dead
        # in frames 20-39, which pins its variable there.
        plant = make_fixture("toy_finger")
        real_gain_bias = myoctl.inverse._gain_bias

        def dead_actuator(*args):
            gain, bias = (np.array(a) for a in real_gain_bias(*args))
            gain[20:40, 1] = 0.0
            return gain, bias

        monkeypatch.setattr(myoctl.inverse, "_gain_bias", dead_actuator)
        lengths = (MIN_FRAMES, 150, 40, 400, 90, 260, 5, 330)
        lanes = [_prepare(plant, q, 500.0)
                 for q in noisy_trajectories(plant, lengths, 1e-6)]
        frames, bvls_rows = [], []
        real_solve, real_bvls = BvlsSolver.solve, BvlsSolver._bvls

        def solve(solver, b, lb, ub, *args, **kwargs):
            result = real_solve(solver, b, lb, ub, *args, **kwargs)
            frames.append((b, lb, ub, result[1]))
            return result

        def bvls(solver, b, lb, ub, x, max_iter, *state):
            bvls_rows.append((len(frames), b.tobytes(), bool(state)))
            return real_bvls(solver, b, lb, ub, x, max_iter, *state)

        monkeypatch.setattr(BvlsSolver, "solve", solve)
        monkeypatch.setattr(BvlsSolver, "_bvls", bvls)
        results = _invert_lanes(plant, lanes)
        assert [len(b) for b, _, _, _ in frames] == [
            sum(n > t for n in lengths) for t in range(max(lengths))]
        oracle = BvlsSolver(plant.moment_arms)
        expected, exits = [], []
        for t, (b, lb, ub, iterations) in enumerate(frames):
            pinned = (lb == ub).any(axis=1)
            if len(b) == 1:
                if pinned[0] or iterations[0] > 0:
                    expected.append((t, b[0].tobytes(), False))
                continue
            expected += [(t, b[i].tobytes(), False) for i in np.flatnonzero(pinned)]
            for i in np.flatnonzero(~pinned & (iterations > 0)):
                exits.append(first_initialization_exit(oracle, b[i], lb[i], ub[i]))
                if exits[-1] != "finished":
                    expected.append((t, b[i].tobytes(), True))
        assert bvls_rows == expected
        pinned_rows = sum(int(((lb == ub).any(axis=1) & (it == 0)).sum())
                          for _, lb, ub, it in frames)
        iterating_rows = sum(int(np.count_nonzero(r.iterations)) for r in results)
        assert pinned_rows > 0
        assert 0 < iterating_rows and len(expected) < sum(lengths)
        assert exits.count("finished") > 0 and len(exits) > exits.count("finished")
        assert any(len(frames[t][0]) == 1 for t, _, _ in expected)

    def test_lanes_must_share_one_rate(self):
        plant = make_fixture("toy_finger")
        q = np.zeros((10, plant.njoints))
        lanes = [_prepare(plant, q, rate) for rate in (500.0, 2000.0)]
        with pytest.raises(ValueError, match="share one rate"):
            _invert_lanes(plant, lanes)


class TestDeferredCheck:
    """The checks after the loop, one per block of frames, against each
    frame's check inside it (``tests/kkt_oracle.py``): every field, byte for
    byte, across block boundaries (the longest lane here spans three)."""

    @pytest.mark.parametrize("kind", ["toy_finger", "hand_like"])
    @pytest.mark.parametrize("nlanes", [1, 8])
    @pytest.mark.parametrize("max_iter", [20000, 1])
    def test_matches_the_per_frame_check(self, monkeypatch, kind, nlanes, max_iter):
        # Pose noise makes frames unreachable, and a cap of one BVLS
        # iteration leaves frames not converged; the lanes have mixed lengths.
        plant = make_fixture(kind)
        lengths = (MIN_FRAMES, 150, 40, 300, 90, 260, 5, 330)[-nlanes:]
        if kind == "hand_like":
            lengths = tuple(min(n, 120) for n in lengths)
        lanes = [_prepare(plant, q, 500.0) for q in noisy_trajectories(plant, lengths, 1e-5)]
        monkeypatch.setattr(BvlsSolver, "solve",
                            functools.partialmethod(BvlsSolver.solve, max_iter=max_iter))
        deferred = _invert_lanes(plant, lanes)
        per_frame = kkt_oracle.invert_lanes(plant, lanes)
        assert [inversion_bytes(r) for r in deferred] == [inversion_bytes(r) for r in per_frame]
        causes = set(np.concatenate([r.causes for r in deferred]).tolist())
        assert CAUSES.index("not converged") in causes or max_iter > 1
        assert CAUSES.index("unreachable force") in causes or kind == "hand_like"


class TestFrameLookup:
    """The loop calls its frame function by its module-global name, once per
    frame, so a wrapper set on ``myoctl.inverse.invert_frame`` (the
    benchmark tracer's frame span) sees every frame that runs."""

    @staticmethod
    def count_frames(monkeypatch):
        """Lanes in each ``invert_frame`` call, in call order."""
        lanes = []
        real = myoctl.inverse.invert_frame

        def counting(solver, act, *args):
            lanes.append(act.shape[0])
            return real(solver, act, *args)

        monkeypatch.setattr(myoctl.inverse, "invert_frame", counting)
        return lanes

    def test_a_trajectory_of_n_frames_makes_n_calls(self, monkeypatch):
        plant = make_fixture("toy_finger")
        (q,) = noisy_trajectories(plant, [120], 0.0)
        lanes = self.count_frames(monkeypatch)
        invert_trajectory(plant, q, 500.0)
        assert lanes == [1] * 120

    def test_lanes_make_one_call_per_frame_of_the_longest(self, monkeypatch):
        plant = make_fixture("toy_finger")
        prepared = [_prepare(plant, q, 500.0)
                    for q in noisy_trajectories(plant, (90, 60, 30), 0.0)]
        lanes = self.count_frames(monkeypatch)
        _invert_lanes(plant, prepared)
        assert lanes == [3] * 30 + [2] * 30 + [1] * 30


class TestRoundTripExactness:
    @pytest.mark.parametrize("kind", ["toy_finger", "hand_like"])
    @pytest.mark.parametrize("time_constants", [None, (0.01, 0.04), (0.015, 0.025)])
    def test_replay_reproduces_the_reference(self, kind, time_constants):
        # The fixtures' equal constants, the MuscleParams defaults, and a
        # milder asymmetric pair.
        plant = make_fixture(kind)
        if time_constants is not None:
            plant = with_time_constants(plant, *time_constants)
        report = roundtrip(plant, seed=1)
        assert report.status == "ok"
        assert report.infeasible_frames == 0
        assert report.rmse <= 1e-9, f"RMSE {report.rmse:.2e} rad"


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
        with pytest.raises(ValueError, match="non-finite input at frame 17"):
            invert_trajectory(plant, q, 500.0)

    @pytest.mark.parametrize("kind", ["toy_finger", "hand_like"])
    def test_matches_a_frame_by_frame_reference(self, kind):
        plant = make_fixture(kind)
        dt = 0.002
        ctrl = smooth_random_controls(plant.nactuators, 500, dt, 1)
        q = rollout(plant, rest_state(plant), ctrl, dt).q
        result = invert_trajectory(plant, q, 500.0)
        ref_ctrl, ref_act, ref_residuals, ref_infeasible = invert_frame_by_frame(plant, q, 500.0)
        # The one array pass sums matrix products in another order than the
        # per-frame vector products, so outputs agree to round-off.
        assert np.allclose(result.ctrl, ref_ctrl, rtol=0.0, atol=1e-12)
        assert np.allclose(result.act, ref_act, rtol=0.0, atol=1e-12)
        assert np.allclose(result.residuals, ref_residuals, rtol=0.0, atol=1e-12)
        assert result.infeasible_frames == ref_infeasible

    def test_iterations_are_each_frame_solver_count(self):
        plant = make_fixture("hand_like")
        dt = 0.002
        ctrl = smooth_random_controls(plant.nactuators, 120, dt, 2)
        q = rollout(plant, rest_state(plant), ctrl, dt).q
        result = invert_trajectory(plant, q, 500.0)
        qdot, qddot = differentiate(q, dt)
        gain, bias = _gain_bias(plant, *_normalized(plant, *tendon_kinematics(plant, q, qdot)))
        q_frc = inverse_dynamics(plant, q, qdot, qddot)
        frames = [
            solve_frame(frame_inputs(
                plant.moment_arms, gain[t], bias[t], result.act[t], q_frc[t], dt,
                *plant._muscle.taus,
            ))
            for t in range(q.shape[0])
        ]
        expected = [solve_box_qp(frame.problem)[1].iterations for frame in frames]
        assert [frame.iterations for frame in frames] == expected
        assert result.iterations.dtype.kind == "i"
        assert result.iterations.tolist() == expected
        assert max(expected) >= 2

    def test_frames_are_solved_without_a_problem_object(self, monkeypatch):
        # The loop hands its solver plain arrays, one stack of one problem
        # per frame: each frame's iterations are those of the checked problem
        # on the same arrays, 0 where the unbounded first step is the answer
        # (none of toy_finger's variables is pinned).
        def fail(self):
            raise AssertionError("a BoxQp was built inside the inversion")

        plant = make_fixture("toy_finger")
        dt = 0.002
        q = rollout(plant, rest_state(plant), smooth_random_controls(4, 80, dt, 3), dt).q
        with monkeypatch.context() as patch:
            patch.setattr(BoxQp, "__post_init__", fail)
            calls, result = recorded_solves(lambda: invert_trajectory(plant, q, 500.0))
        expected = [solve_box_qp(BoxQp(A, b[0], lb[0], ub[0]))[1].iterations
                    for A, b, lb, ub, _ in calls]
        assert result.iterations.tolist() == expected
        assert len(calls) == q.shape[0]
        assert 0 < np.count_nonzero(expected) < q.shape[0]

    def test_inf_input_fails_with_frame_index(self):
        plant = make_fixture("toy_finger")
        q = np.zeros((10, plant.njoints))
        q[4, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite input at frame 4"):
            invert_trajectory(plant, q, 500.0)

    @pytest.mark.parametrize("term, value, message", [
        (0, 0.5, "gain must be non-positive .*frame 6"),
        (0, np.nan, "non-finite muscle gain at frame 6"),
        (1, -np.inf, "non-finite muscle bias at frame 6"),
    ])
    def test_bad_muscle_force_is_rejected_with_its_frame(self, monkeypatch, term, value, message):
        plant = make_fixture("toy_finger")
        real = myoctl.inverse._gain_bias

        def corrupted(*args):
            gain_bias = [np.array(a) for a in real(*args)]
            gain_bias[term][6, 1] = value
            return tuple(gain_bias)

        monkeypatch.setattr(myoctl.inverse, "_gain_bias", corrupted)
        with pytest.raises(ValueError, match=message):
            invert_trajectory(plant, np.zeros((10, plant.njoints)), 500.0)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_generalized_force_is_rejected_with_its_frame(self, monkeypatch, value):
        plant = make_fixture("toy_finger")
        real = myoctl.inverse.inverse_dynamics

        def corrupted(*args):
            q_frc = np.array(real(*args))
            q_frc[6, 1] = value
            return q_frc

        monkeypatch.setattr(myoctl.inverse, "inverse_dynamics", corrupted)
        with pytest.raises(ValueError, match="non-finite generalized force at frame 6$"):
            invert_trajectory(plant, np.zeros((10, plant.njoints)), 500.0)

    def test_overflowing_force_gap_is_rejected_with_its_frame(self, monkeypatch):
        # Every input is finite, but with the largest double as a target
        # force and a huge gain the force gap overflows for some activation
        # in [0, 1], which would leave the solver a non-finite target.
        plant = make_fixture("toy_finger")
        real_gain_bias = myoctl.inverse._gain_bias
        real_dynamics = myoctl.inverse.inverse_dynamics

        def huge_gain(*args):
            gain, bias = (np.array(a) for a in real_gain_bias(*args))
            gain[6] = -1e300
            return gain, bias

        def extreme_force(*args):
            q_frc = np.array(real_dynamics(*args))
            q_frc[6, 0] = -np.finfo(float).max
            return q_frc

        monkeypatch.setattr(myoctl.inverse, "_gain_bias", huge_gain)
        monkeypatch.setattr(myoctl.inverse, "inverse_dynamics", extreme_force)
        with pytest.raises(ValueError, match=r"force gap overflows .*; frame 6$"):
            invert_trajectory(plant, np.zeros((10, plant.njoints)), 500.0)
        # One such frame alone: the gap base is finite, but its bound over
        # activations in [0, 1] is not, so the frame is flagged.
        one_frame = scalar_inputs(gain=np.array([-1e300]),
                                  q_frc=np.array([-np.finfo(float).max]))
        gap_base, overflows = _gap_base(one_frame.moment_arms, one_frame.gain,
                                        one_frame.bias, one_frame.q_frc)
        assert np.isfinite(gap_base).all()
        assert overflows

    @pytest.mark.parametrize("rate_hz", [0.0, -500.0, np.inf, np.nan])
    def test_rate_must_be_positive_and_finite(self, rate_hz):
        plant = make_fixture("toy_finger")
        with pytest.raises(ValueError, match="rate_hz must be positive"):
            invert_trajectory(plant, np.zeros((10, plant.njoints)), rate_hz)

    @pytest.mark.parametrize("kind", ["toy_finger", "hand_like"])
    def test_shape_that_does_not_fit_the_plant_is_named(self, kind):
        plant = make_fixture(kind)
        need = rf"; the plant needs \(nframes, {plant.njoints}\)$"
        for shape in [(50, plant.njoints + 1), (50,), (50, 1, plant.njoints)]:
            with pytest.raises(ValueError, match=re.escape(f"q_traj has shape {shape}") + need):
                invert_trajectory(plant, np.zeros(shape), 500.0)
        # One pose is one frame: too few, not a wrong shape.
        with pytest.raises(ValueError, match="need at least 3 frames"):
            invert_trajectory(plant, np.zeros(plant.njoints), 500.0)

    @pytest.mark.parametrize("kind", ["toy_finger", "hand_like"])
    def test_non_positive_tendon_length_names_the_frame(self, kind):
        plant = make_fixture(kind)
        q = np.zeros((40, plant.njoints))
        q[29] = 20.0 * plant.joint_range
        lengths = plant.length_offsets - q[29] @ plant.moment_arms
        shortest = plant.actuator_names[int(np.argmin(lengths))]
        with pytest.raises(PlantError, match=f"tendon {shortest!r} .* at frame 29"):
            invert_trajectory(plant, q, 500.0)

    def test_too_few_frames_is_a_precondition(self):
        plant = make_fixture("toy_finger")
        with pytest.raises(ValueError):
            invert_trajectory(plant, np.zeros((2, plant.njoints)), 500.0)

    def test_cause_codes_name_the_infeasible_frames(self):
        # A 0.3 rad jump at frame 150 asks for forces no activation reaches
        # in the two frames whose stencils span it.
        plant = make_fixture("toy_finger")
        dt = 0.002
        q = rollout(plant, rest_state(plant), smooth_random_controls(4, 300, dt, 5), dt).q
        q[150:, 0] += 0.3
        result = invert_trajectory(plant, q, 500.0)
        assert result.causes.shape == (300,)
        assert np.count_nonzero(result.causes) == result.infeasible_frames == 2
        assert np.flatnonzero(result.causes).tolist() == [149, 150]
        assert {CAUSES[c] for c in result.causes[149:151]} == {"unreachable force"}
        assert set(result.causes[:149]) == {0}
        assert CAUSES[0] == "ok"

    def test_non_converged_frame_gets_its_own_cause(self, monkeypatch):
        plant = make_fixture("toy_finger")
        dt = 0.002
        q = rollout(plant, rest_state(plant), smooth_random_controls(4, 80, dt, 3), dt).q
        real = myoctl.qp.BvlsSolver.check
        shapes = []

        def stalls_at_frame_7(solver, x, b, lb, ub):
            converged, residual = real(solver, x, b, lb, ub)
            shapes.append(converged.shape)
            # After the loop one check judges a block of frames on an
            # (nframes, lanes) stack, here the whole trajectory; frame 7 of
            # the one lane is marked not converged.
            converged[7, 0] = False
            return converged, residual

        monkeypatch.setattr(myoctl.qp.BvlsSolver, "check", stalls_at_frame_7)
        result = invert_trajectory(plant, q, 500.0)
        assert shapes == [(80, 1)]
        assert np.flatnonzero(result.causes).tolist() == [7]
        assert CAUSES[result.causes[7]] == "not converged"
        assert result.infeasible_frames == 1

    def test_activation_state_matches_replay(self):
        # Each recovered control steps the activation to the one the
        # inversion solved for, so replaying them reproduces that sequence.
        plant = make_fixture("toy_finger")
        dt = 0.002
        ctrl = smooth_random_controls(plant.nactuators, 250, dt, 4)
        reference = rollout(plant, rest_state(plant), ctrl, dt)
        inv = invert_trajectory(plant, reference.q, 500.0)
        replay = rollout(plant, rest_state(plant), inv.ctrl, dt)
        assert np.allclose(replay.act, inv.act, atol=1e-12)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_activations_stay_within_each_steps_reach(self, seed):
        # At 100 Hz one step covers half the gap to the control (dt / tau =
        # 0.5), so many solutions sit on box edges, where act + x / gain
        # can round past the reachable activation.
        plant = make_fixture("toy_finger")
        dt = 0.01
        ctrl = smooth_random_controls(plant.nactuators, 400, dt, seed)
        inv = invert_trajectory(plant, rollout(plant, rest_state(plant), ctrl, dt).q, 100.0)
        reach = [step_activation(inv.act[:-1], u, dt, *plant._muscle.taus)
                 for u in (0.0, 1.0)]
        assert np.all((reach[0] <= inv.act[1:]) & (inv.act[1:] <= reach[1]))

    def test_hand_like_roundtrip_has_no_solver_stalls(self):
        # Regression: frames of this trajectory once ran to the iteration cap
        # and were counted infeasible.
        start = time.perf_counter()
        report = roundtrip(make_fixture("hand_like"), seed=1)
        elapsed = time.perf_counter() - start
        assert report.status == "ok"
        assert report.infeasible_frames == 0
        assert elapsed < 10.0, f"took {elapsed:.1f} s"

    def test_short_roundtrip(self):
        plant = make_fixture("toy_finger")
        report = roundtrip(plant, seed=3, duration=0.5, rate_hz=500.0)
        assert report.status == "ok"
        assert report.rmse < 1e-2

    @pytest.mark.parametrize("duration, rate_hz, message", [
        (0.004, 500.0, "need at least 3 frames for a round trip"),
        (0.002, 500.0, "need at least 3 frames for a round trip"),
        (-1.0, 500.0, "duration must be positive and finite"),
        (float("nan"), 500.0, "duration must be positive and finite"),
        (float("inf"), 500.0, "duration must be positive and finite"),
        (2.0, 0.0, "rate_hz must be positive and finite"),
        (2.0, float("nan"), "rate_hz must be positive and finite"),
    ])
    def test_bad_roundtrip_length_is_rejected_by_name(self, duration, rate_hz, message):
        with pytest.raises(ValueError, match=message):
            roundtrip(make_fixture("toy_finger"), duration=duration, rate_hz=rate_hz)
