import dataclasses
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import step_oracle
from inputs import coupled_hand
from myoctl import plant as plant_module
from myoctl.inverse import roundtrip
from myoctl.muscle import (
    CalibrationError,
    MuscleGeometry,
    MuscleParams,
    calibrate_geometry,
    fl_curve,
    fp_curve,
    fv_curve,
    step_activation,
)
from myoctl.plant import (
    Plant,
    PlantError,
    PlantFormatError,
    PlantState,
    _assemble,
    _stepper,
    forward_step,
    inverse_dynamics,
    load_plant,
    make_fixture,
    rest_state,
    rollout,
    save_plant,
    smooth_random_controls,
    tendon_kinematics,
)


def numeric_paths(node, path=()):
    """Key paths of every number in a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from numeric_paths(value, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def block_count(arms):
    """How many independent blocks a moment-arm matrix splits into: two
    joints share a block when a chain of muscles, each crossing joints of
    the chain, links them."""
    crosses = arms != 0.0
    unseen, count = set(range(arms.shape[0])), 0
    while unseen:
        count += 1
        joints = {unseen.pop()}
        while joints:
            muscles = crosses[sorted(joints)].any(axis=0)
            joints = set(np.flatnonzero(crosses[:, muscles].any(axis=1)).tolist()) & unseen
            unseen -= joints
    return count


def toy_finger_document(tmp_path):
    path = tmp_path / "plant.json"
    save_plant(make_fixture("toy_finger"), path)
    return path, json.loads(path.read_text())


def simple_plant(njoints=1, inertia=None, arm=0.01, offset=0.3):
    """Minimal hand-built plant: one +/- muscle pair per joint."""
    nactuators = 2 * njoints
    moment_arms = np.zeros((njoints, nactuators))
    for j in range(njoints):
        moment_arms[j, 2 * j] = arm
        moment_arms[j, 2 * j + 1] = -arm
    params = MuscleParams(force_override=1.0, tau_act=0.02, tau_deact=0.02)
    geometry = MuscleGeometry(l0=0.1, lt=offset - 0.1, f0=1.0)
    return Plant(
        name="simple",
        joint_names=tuple(f"j{j}" for j in range(njoints)),
        actuator_names=tuple(f"m{i}" for i in range(nactuators)),
        moment_arms=moment_arms,
        length_offsets=np.full(nactuators, offset),
        inertia=np.full(njoints, 1e-3) if inertia is None else np.asarray(inertia, float),
        damping=np.full(njoints, 0.02),
        gravity=np.zeros(njoints),
        joint_range=np.full(njoints, 1.5),
        params=(params,) * nactuators,
        geometry=(geometry,) * nactuators,
    )


class TestTendonKinematics:
    def test_zero_pose_returns_offsets(self):
        plant = simple_plant()
        lengths, velocities = tendon_kinematics(plant, np.zeros(1), np.zeros(1))
        assert lengths == pytest.approx(plant.length_offsets)
        assert velocities == pytest.approx(np.zeros(2))

    def test_linear_moment_arm_model(self):
        # arm 0.01, offset 0.3, q = 1 rad shortens the agonist to 0.29.
        plant = simple_plant()
        lengths, _ = tendon_kinematics(plant, np.array([1.0]), np.zeros(1))
        assert lengths[0] == pytest.approx(0.29)
        assert lengths[1] == pytest.approx(0.31)

    def test_velocity_sign_flip(self):
        plant = simple_plant()
        _, fwd = tendon_kinematics(plant, np.zeros(1), np.array([2.0]))
        _, rev = tendon_kinematics(plant, np.zeros(1), np.array([-2.0]))
        assert fwd == pytest.approx(-rev)

    def test_non_positive_length_rejected(self):
        plant = simple_plant()
        with pytest.raises(PlantError, match="length"):
            tendon_kinematics(plant, np.array([31.0]), np.zeros(1))

    @pytest.mark.parametrize("kind", ["toy_finger", "hand_like"])
    def test_trajectory_matches_per_frame_rows(self, kind):
        plant = make_fixture(kind)
        rng = np.random.default_rng(5)
        q = rng.uniform(-1.0, 1.0, (50, plant.njoints)) * plant.joint_range
        qdot = rng.normal(0.0, 3.0, (50, plant.njoints))
        lengths, velocities = tendon_kinematics(plant, q, qdot)
        rows = [tendon_kinematics(plant, q[t], qdot[t]) for t in range(50)]
        # A matrix product may sum in another order than 50 vector products.
        assert np.allclose(lengths, [r[0] for r in rows], rtol=0.0, atol=1e-15)
        assert np.allclose(velocities, [r[1] for r in rows], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("kind", ["toy_finger", "hand_like"])
    def test_trajectory_error_names_tendon_and_frame(self, kind):
        plant = make_fixture(kind)
        q = np.zeros((20, plant.njoints))
        q[13] = 20.0 * plant.joint_range
        shortest = plant.actuator_names[int(np.argmin(plant.length_offsets - q[13] @ plant.moment_arms))]
        with pytest.raises(PlantError, match=f"tendon {shortest!r} has non-positive length at frame 13"):
            tendon_kinematics(plant, q, np.zeros_like(q))


class TestInverseDynamics:
    def test_static_without_gravity(self):
        plant = simple_plant()
        assert inverse_dynamics(plant, np.zeros(1), np.zeros(1), np.zeros(1)) == pytest.approx(
            np.zeros(1)
        )

    def test_inertial_term(self):
        plant = simple_plant(inertia=[2.0])
        q_frc = inverse_dynamics(plant, np.zeros(1), np.zeros(1), np.array([0.5]))
        assert q_frc == pytest.approx(np.array([1.0]))

    def test_damping_term(self):
        plant = simple_plant()
        object.__setattr__(plant, "damping", np.array([0.1]))
        q_frc = inverse_dynamics(plant, np.zeros(1), np.array([2.0]), np.zeros(1))
        assert q_frc == pytest.approx(np.array([0.2]))

    def test_gravity_term(self):
        plant = simple_plant()
        object.__setattr__(plant, "gravity", np.array([0.5]))
        q = np.array([np.pi / 6])
        q_frc = inverse_dynamics(plant, q, np.zeros(1), np.zeros(1))
        assert q_frc == pytest.approx(np.array([0.5 * np.sin(np.pi / 6)]))
        # Gravity load accelerates the joint away from rest at a tilted pose.
        state = PlantState(q=q, qdot=np.zeros(1), act=np.zeros(2))
        nxt = forward_step(plant, state, np.zeros(2), 0.002)
        assert nxt.qdot[0] != 0.0


def assembled_plant(moment_arms, inertia):
    """A plant calibrated by the fixtures' assembly (auto-scaled peak forces)."""
    moment_arms = np.asarray(moment_arms, dtype=float)
    nj, na = moment_arms.shape
    return _assemble(
        "assembled", [f"j{j}" for j in range(nj)], [f"m{i}" for i in range(na)],
        moment_arms, np.asarray(inertia, dtype=float), np.full(nj, 0.02),
        np.full(nj, 1.0), [MuscleParams()] * na,
    )


class TestAcc0:
    """Auto-scaled peak force is ``scale / acc0``; ``acc0`` is the joint
    acceleration magnitude per unit force on the actuator's column."""

    def test_unit_column(self):
        # Column 0 is e1 scaled by arm 1.0; |M^-1 e1| = 0.5.
        plant = assembled_plant([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]], [2.0, 2.0])
        assert plant.geometry[0].f0 == pytest.approx(MuscleParams().scale / 0.5)

    def test_zero_column_and_calibration_consequence(self):
        plant = simple_plant(njoints=2)
        arms = plant.moment_arms.copy()
        arms[:, 3] = [0.0, -0.01]  # keep coverage on joint 1
        object.__setattr__(plant, "moment_arms", arms)
        zeroed = arms.copy()
        zeroed[:, 3] = 0.0
        # acc0 of an all-zero column is 0, and auto-scaled calibration then
        # refuses to run without an explicit peak force.
        assert float(np.linalg.norm(zeroed[:, 3] / plant.inertia)) == 0.0
        with pytest.raises(CalibrationError):
            calibrate_geometry(0.75, 1.05, MuscleParams(), 0.0)

    def test_inertia_scaling(self):
        light = assembled_plant([[0.01, -0.01]], [1e-3])
        heavy = assembled_plant([[0.01, -0.01]], [2e-3])
        assert heavy.geometry[0].f0 == pytest.approx(2.0 * light.geometry[0].f0)


class TestForwardStep:
    def test_equilibrium_is_a_fixed_point(self):
        plant = make_fixture("toy_finger")
        state = rest_state(plant)
        nxt = forward_step(plant, state, np.zeros(plant.nactuators), 0.002)
        assert nxt.q == pytest.approx(state.q)
        assert nxt.qdot == pytest.approx(state.qdot)
        assert nxt.act == pytest.approx(state.act)

    def test_single_muscle_torque_sign(self):
        plant = make_fixture("toy_finger")
        ctrl = np.zeros(plant.nactuators)
        ctrl[0] = 1.0  # positive moment arm on the first joint
        nxt = forward_step(plant, rest_state(plant), ctrl, 0.002)
        assert nxt.qdot[0] < 0.0  # torque = moment_arm * force and force <= 0

    def test_control_validation(self):
        plant = make_fixture("toy_finger")
        with pytest.raises(ValueError):
            forward_step(plant, rest_state(plant), np.full(plant.nactuators, 1.5), 0.002)
        with pytest.raises(ValueError):
            forward_step(plant, rest_state(plant), np.zeros(plant.nactuators), 0.0)

    def test_two_second_rollout_stays_bounded(self):
        plant = make_fixture("toy_finger")
        ctrl = smooth_random_controls(plant.nactuators, 1000, 0.002, 12)
        result = rollout(plant, rest_state(plant), ctrl, 0.002)
        assert np.abs(result.q).max() < 10.0
        assert np.isfinite(result.q).all()


class TestRollout:
    @pytest.mark.parametrize("kind", ["toy_finger", "hand_like"])
    def test_matches_a_forward_step_loop_bit_for_bit(self, kind):
        plant = make_fixture(kind)
        ctrl = smooth_random_controls(plant.nactuators, 300, 0.002, 21)
        result = rollout(plant, rest_state(plant), ctrl, 0.002)
        state = rest_state(plant)
        for t in range(300):
            assert np.array_equal(result.q[t], state.q)
            assert np.array_equal(result.qdot[t], state.qdot)
            assert np.array_equal(result.act[t], state.act)
            state = forward_step(plant, state, ctrl[t], 0.002)

    @pytest.mark.parametrize("name", ["toy_finger", "gravity_finger", "coupled_hand"])
    def test_returns_a_plant_state_log_whose_rows_chain_forward_steps(self, name):
        plant = {"toy_finger": lambda: make_fixture("toy_finger"),
                 "gravity_finger": gravity_finger, "coupled_hand": coupled_hand}[name]()
        ctrl = smooth_random_controls(plant.nactuators, 200, 0.002, 4, settle=0.1)
        log = rollout(plant, rest_state(plant), ctrl, 0.002)
        assert type(log) is PlantState
        assert log.q.shape == log.qdot.shape == (200, plant.njoints)
        assert log.act.shape == (200, plant.nactuators)
        state = rest_state(plant)
        for t in range(200):
            for attr in ("q", "qdot", "act"):
                assert getattr(log, attr)[t].tobytes() == getattr(state, attr).tobytes()
            state = forward_step(plant, state, ctrl[t], 0.002)

    @pytest.mark.parametrize("kind", ["toy_finger", "hand_like"])
    def test_matches_a_step_built_from_the_public_functions(self, kind):
        # The same semi-implicit Euler step, written with the checked public
        # functions and per-call curve parameters instead of the plant's
        # cached constants and unchecked kernels.
        plant = make_fixture(kind)
        dt = 0.002
        ctrl = smooth_random_controls(plant.nactuators, 1000, dt, 21)
        result = rollout(plant, rest_state(plant), ctrl, dt)

        def per_actuator(records, attr):
            return np.array([getattr(r, attr) for r in records])

        p, g = plant.params, plant.geometry
        l0, lt, f0 = (per_actuator(g, a) for a in ("l0", "lt", "f0"))
        lmin, lmax, vmax, fvmax, fpmax, tau_act, tau_deact, tau_smooth = (
            per_actuator(p, a) for a in ("lmin", "lmax", "vmax", "fvmax", "fpmax",
                                         "tau_act", "tau_deact", "tau_smooth")
        )
        q = np.zeros(plant.njoints)
        qdot = np.zeros(plant.njoints)
        act = np.zeros(plant.nactuators)
        for t in range(1000):
            for logged, expected in ((result.q, q), (result.qdot, qdot), (result.act, act)):
                np.testing.assert_allclose(logged[t], expected, rtol=0.0, atol=1e-12)
            lengths, velocities = tendon_kinematics(plant, q, qdot)
            act = step_activation(act, ctrl[t], dt, tau_act, tau_deact, tau_smooth)
            norm_len, norm_vel = (lengths - lt) / l0, velocities / l0
            gain = -f0 * fl_curve(norm_len, lmin, lmax) * fv_curve(norm_vel, vmax, fvmax)
            bias = -f0 * fp_curve(norm_len, lmax, fpmax)
            torque = plant.moment_arms @ (gain * act + bias)
            qddot = (torque - plant.damping * qdot - plant.gravity * np.sin(q)) / plant.inertia
            qdot = qdot + dt * qddot
            q = q + dt * qdot

    def test_arguments_checked_before_the_first_step(self):
        plant = make_fixture("toy_finger")
        ctrl = np.zeros((100, plant.nactuators))
        ctrl[-1, 2] = 1.5
        with pytest.raises(ValueError, match="controls"):
            rollout(plant, rest_state(plant), ctrl, 0.002)
        with pytest.raises(ValueError, match="dt"):
            rollout(plant, rest_state(plant), np.zeros((100, plant.nactuators)), 0.0)
        # NaN and infinity fail the same checks instead of diverging later.
        state = rest_state(plant)
        ctrl[-1, 2] = np.nan
        with pytest.raises(ValueError, match="controls"):
            rollout(plant, state, ctrl, 0.002)
        with pytest.raises(ValueError, match="controls"):
            forward_step(plant, state, ctrl[-1], 0.002)
        for dt in (np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                rollout(plant, state, np.zeros((100, plant.nactuators)), dt)
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                forward_step(plant, state, np.zeros(plant.nactuators), dt)
            bad = np.full(plant.njoints, dt)
            with pytest.raises(PlantError, match="^q has non-finite entries"):
                PlantState(q=bad, qdot=state.qdot, act=state.act)
            with pytest.raises(PlantError, match="^qdot has non-finite entries"):
                PlantState(q=state.q, qdot=bad, act=state.act)

    @pytest.mark.parametrize("step, ctrl_shape, njoints, nact, message", [
        ("rollout", (50, 1), 2, 4, "ctrl_traj has shape (50, 1); the plant needs (nframes, 4)"),
        ("rollout", (50,), 2, 4, "ctrl_traj has shape (50,); the plant needs (nframes, 4)"),
        ("rollout", (50, 3), 2, 4, "ctrl_traj has shape (50, 3); the plant needs (nframes, 4)"),
        ("forward_step", (), 2, 4, "ctrl has shape (); the plant needs (4,)"),
        ("forward_step", (1,), 2, 4, "ctrl has shape (1,); the plant needs (4,)"),
        ("forward_step", (3,), 2, 4, "ctrl has shape (3,); the plant needs (4,)"),
        ("rollout", (50, 4), 2, 1, "state.act has shape (1,); the plant has 4 actuators"),
        ("forward_step", (4,), 2, 1, "state.act has shape (1,); the plant has 4 actuators"),
        ("rollout", (50, 4), 3, 4, "state.q has shape (3,); the plant has 2 joints"),
        ("forward_step", (4,), 3, 4, "state.q has shape (3,); the plant has 2 joints"),
    ], ids=["traj_1_column", "traj_1d", "traj_3_columns", "scalar_ctrl", "ctrl_1", "ctrl_3",
            "rollout_act_1", "step_act_1", "rollout_3_joints", "step_3_joints"])
    def test_sizes_that_do_not_fit_the_plant_are_named(
        self, monkeypatch, step, ctrl_shape, njoints, nact, message
    ):
        # A single control column or activation must not broadcast to all
        # four toy_finger muscles.
        plant = make_fixture("toy_finger")
        state = PlantState(q=np.zeros(njoints), qdot=np.zeros(njoints), act=np.full(nact, 0.5))
        monkeypatch.setattr(plant_module, "_simulate", None)  # rejected before any step
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(plant_module, step)(plant, state, np.full(ctrl_shape, 0.5), 0.002)

    def test_divergence_is_detected_at_the_step(self):
        plant = make_fixture("toy_finger")
        state = PlantState(
            q=np.zeros(plant.njoints),
            qdot=np.array([1e308, 0.0]),
            act=np.zeros(plant.nactuators),
        )
        with pytest.raises(PlantError, match="diverged"):
            rollout(plant, state, np.zeros((5, plant.nactuators)), 0.002)
        with pytest.raises(PlantError, match="diverged"):
            forward_step(plant, state, np.zeros(plant.nactuators), 0.002)

    def test_slack_tendon_is_named_at_its_frame(self):
        # Flung at 500 rad/s with no control, the base joint coasts past
        # 14.4 rad, where the flexor's tendon length reaches 0, at frame 23.
        plant = make_fixture("toy_finger")
        state = PlantState(q=np.zeros(2), qdot=np.array([500.0, 0.0]), act=np.zeros(4))
        ctrl = np.zeros((40, plant.nactuators))
        slack = "tendon 'mcp_flex' has non-positive length at frame"
        with pytest.raises(PlantError, match=f"{slack} 23$"):
            rollout(plant, state, ctrl, 0.002)
        # The final state is checked too: 23 steps end on the slack pose.
        with pytest.raises(PlantError, match=f"{slack} 23$"):
            rollout(plant, state, ctrl[:23], 0.002)
        before = rollout(plant, state, ctrl[:22], 0.002)
        at_21 = PlantState(q=before.q[-1], qdot=before.qdot[-1], act=before.act[-1])
        at_22 = forward_step(plant, at_21, ctrl[21], 0.002)
        with pytest.raises(PlantError, match=f"{slack} 1$"):
            forward_step(plant, at_22, ctrl[22], 0.002)
        # From frame 23's pose itself, which only the unchecked step reaches.
        q, qdot, act = np.empty(2), np.empty(2), np.empty(4)
        _stepper(plant, np.asarray(0.002))(at_22.q, at_22.qdot, at_22.act, ctrl[22],
                                           q, qdot, act)
        at_23 = PlantState(q, qdot, act)
        with pytest.raises(PlantError, match=f"{slack} 0$"):
            forward_step(plant, at_23, ctrl[23], 0.002)


def gravity_finger():
    """The toy finger with gravity on both joints; no fixture has gravity."""
    return dataclasses.replace(make_fixture("toy_finger"), gravity=np.array([0.3, -0.2]))


ORACLE_PLANTS = {
    "toy_finger": lambda: make_fixture("toy_finger"),
    "hand_like": lambda: make_fixture("hand_like"),
    "random_3x8": lambda: make_fixture("random", seed=3, njoints=3, nactuators=8),
    "random_5x12": lambda: make_fixture("random", seed=7, njoints=5, nactuators=12),
    "gravity_finger": gravity_finger,
}


class TestStepOracle:
    """``rollout`` and ``forward_step`` against the step as it stood before each
    law was split at its clamp (``tests/step_oracle.py``), byte for byte."""

    @pytest.mark.parametrize("rate_hz", [500, 2000])
    @pytest.mark.parametrize("name", sorted(ORACLE_PLANTS))
    def test_rollout_matches_the_oracle_byte_for_byte(self, name, rate_hz):
        plant = ORACLE_PLANTS[name]()
        dt = 1.0 / rate_hz
        # The settled ends start and finish at rest, where zeros carry signs.
        ctrl = smooth_random_controls(plant.nactuators, rate_hz, dt, 5, settle=0.2)
        assert (ctrl[0] == 0.0).all() and (ctrl[-1] == 0.0).all()
        result = rollout(plant, rest_state(plant), ctrl, dt)
        q, qdot, act = step_oracle.simulate(plant, rest_state(plant), ctrl, dt)
        for logged, expected in ((result.q, q), (result.qdot, qdot), (result.act, act)):
            assert logged.tobytes() == expected[:-1].tobytes()

    @pytest.mark.parametrize("name", ["toy_finger", "hand_like", "gravity_finger"])
    def test_forward_step_matches_the_oracle_byte_for_byte(self, name):
        plant = ORACLE_PLANTS[name]()
        ctrl = smooth_random_controls(plant.nactuators, 200, 0.002, 6, settle=0.1)
        state = reference = rest_state(plant)
        args = step_oracle.muscle_args(plant)
        for row in ctrl:
            state = forward_step(plant, state, row, 0.002)
            reference = PlantState(*step_oracle.step(plant, args, reference.q, reference.qdot,
                                                     reference.act, row, np.asarray(0.002)))
            for attr in ("q", "qdot", "act"):
                assert getattr(state, attr).tobytes() == getattr(reference, attr).tobytes()

    @pytest.mark.parametrize("lengths", [("one", "lmin", "lmax", "one"),
                                         ("lmax", "one", "lmin", "lmin")])
    @pytest.mark.parametrize("q, qdot", [([0.0, 0.0], [0.0, 0.0]), ([-0.0, 0.0], [-0.0, -0.0]),
                                         ([0.0, -0.0], [-0.0, 0.0])])
    def test_forward_step_matches_the_oracle_at_the_force_length_edges(self, lengths, q, qdot):
        # With l0 = 1, lt = 0 and a zero pose, each normalized length is its
        # tendon offset exactly: 1, lmin or lmax, where the force-length
        # distances are zeros of either sign. A zero joint velocity gives the
        # muscle velocity -0 (qdot @ moment_arms is +0 for either zero).
        base = make_fixture("toy_finger")
        p = base.params[0]
        at = {"one": 1.0, "lmin": p.lmin, "lmax": p.lmax}
        plant = dataclasses.replace(
            base, length_offsets=[at[name] for name in lengths],
            geometry=tuple(MuscleGeometry(l0=1.0, lt=0.0, f0=g.f0) for g in base.geometry))
        state = PlantState(q=np.array(q), qdot=np.array(qdot), act=np.array([0.3, 0.0, 1.0, 0.6]))
        norm_len, norm_vel = plant_module._normalized(
            plant, *tendon_kinematics(plant, state.q, state.qdot))
        assert norm_len.tolist() == [at[name] for name in lengths]
        assert (norm_vel == 0.0).all()
        args = step_oracle.muscle_args(plant)
        for ctrl in ([1.0, 0.0, 0.5, 0.6], [0.0, 1.0, 0.0, 0.3]):
            stepped = forward_step(plant, state, ctrl, 0.002)
            expected = step_oracle.step(plant, args, state.q, state.qdot, state.act,
                                        np.array(ctrl), np.asarray(0.002))
            for got, want in zip((stepped.q, stepped.qdot, stepped.act), expected):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("qdot, nframes", [([1e308, 0.0], 5), ([500.0, 0.0], 40)],
                             ids=["diverging", "slack"])
    def test_failing_rollouts_raise_what_the_oracle_raises(self, qdot, nframes):
        plant = make_fixture("toy_finger")
        state = PlantState(q=np.zeros(2), qdot=np.array(qdot), act=np.zeros(4))
        ctrl = np.zeros((nframes, plant.nactuators))
        with pytest.raises(PlantError) as expected:
            step_oracle.simulate(plant, state, ctrl, 0.002)
        with pytest.raises(PlantError, match=f"^{re.escape(str(expected.value))}$"):
            rollout(plant, state, ctrl, 0.002)


class TestStepInvariants:
    def test_virtual_work_balance(self):
        # Power into the joints equals power extracted from the tendons.
        plant = make_fixture("toy_finger")
        ctrl = smooth_random_controls(plant.nactuators, 300, 0.002, 8)
        state = rest_state(plant)
        muscles = plant._muscle
        for t in range(300):
            lengths, velocities = tendon_kinematics(plant, state.q, state.qdot)
            nxt = forward_step(plant, state, ctrl[t], 0.002)
            norm_len = (lengths - muscles.lt) / muscles.l0
            norm_vel = velocities / muscles.l0
            from myoctl.plant import _gain_bias

            gain, bias = _gain_bias(plant, norm_len, norm_vel)
            force = gain * nxt.act + bias
            joint_power = (plant.moment_arms @ force) @ state.qdot
            tendon_power = force @ velocities
            assert abs(joint_power + tendon_power) < 1e-9
            state = nxt

    def test_inverse_dynamics_reproduces_muscle_torque(self):
        # With qddot taken from the velocity update, inverse dynamics must
        # return exactly the torque the muscles applied.
        plant = make_fixture("toy_finger")
        ctrl = smooth_random_controls(plant.nactuators, 300, 0.002, 9)
        state = rest_state(plant)
        muscles = plant._muscle
        from myoctl.plant import _gain_bias

        for t in range(300):
            lengths, velocities = tendon_kinematics(plant, state.q, state.qdot)
            nxt = forward_step(plant, state, ctrl[t], 0.002)
            gain, bias = _gain_bias(
                plant, (lengths - muscles.lt) / muscles.l0, velocities / muscles.l0
            )
            applied = plant.moment_arms @ (gain * nxt.act + bias)
            qddot = (nxt.qdot - state.qdot) / 0.002
            recovered = inverse_dynamics(plant, state.q, state.qdot, qddot)
            assert np.abs(recovered - applied).max() < 1e-9
            state = nxt

    def test_kinetic_energy_dissipates_without_control(self):
        plant = make_fixture("toy_finger")
        state = PlantState(
            q=np.zeros(plant.njoints),
            qdot=np.array([0.4, -0.3]),
            act=np.zeros(plant.nactuators),
        )
        energy = 0.5 * float(plant.inertia @ state.qdot**2)
        for _ in range(400):
            lengths, _ = tendon_kinematics(plant, state.q, state.qdot)
            norm_len = (lengths - plant._muscle.lt) / plant._muscle.l0
            assert np.all(norm_len <= 1.0), "test motion left the slack region"
            state = forward_step(plant, state, np.zeros(plant.nactuators), 0.002)
            nxt_energy = 0.5 * float(plant.inertia @ state.qdot**2)
            assert nxt_energy <= energy + 1e-15
            energy = nxt_energy


class TestFixtures:
    def test_toy_finger_is_deterministic(self):
        a, b = make_fixture("toy_finger"), make_fixture("toy_finger")
        assert np.array_equal(a.moment_arms, b.moment_arms)
        assert a.params == b.params
        assert a.geometry == b.geometry

    def test_hand_like_dimensions(self):
        plant = make_fixture("hand_like")
        assert plant.njoints == 23
        assert plant.nactuators == 39

    def test_coupled_hand_is_one_block_of_full_row_rank(self):
        # hand_like splits into 11 blocks (5 digits, 5 abduction pairs, the
        # wrist); the wrist arms of the coupled variant join them all.
        assert block_count(make_fixture("hand_like").moment_arms) == 11
        plant = coupled_hand()
        assert (plant.njoints, plant.nactuators) == (23, 39)
        assert block_count(plant.moment_arms) == 1
        assert np.count_nonzero(plant.moment_arms) == 85
        assert np.linalg.matrix_rank(plant.moment_arms) == 23

    def test_random_fixture_has_antagonist_coverage(self):
        plant = make_fixture("random", seed=7, njoints=3, nactuators=8)
        for row in plant.moment_arms:
            assert np.any(row > 0.0) and np.any(row < 0.0)

    def test_random_fixture_is_seeded(self):
        a = make_fixture("random", seed=7, njoints=3, nactuators=8)
        b = make_fixture("random", seed=7, njoints=3, nactuators=8)
        c = make_fixture("random", seed=8, njoints=3, nactuators=8)
        assert np.array_equal(a.moment_arms, b.moment_arms)
        assert not np.array_equal(a.moment_arms, c.moment_arms)

    @pytest.mark.parametrize("seed", [None, True, False, 7.0, -1, "7"])
    def test_random_fixture_seed_must_be_a_non_negative_integer(self, seed):
        # None would draw OS entropy: two calls gave different plants under
        # one name, random_None_3x8. True would act as 1.
        message = f"seed must be an integer of at least 0, got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_fixture("random", seed=seed, njoints=3, nactuators=8)

    def test_random_fixture_takes_numpy_integer_seeds(self):
        # And numpy integer dimensions.
        a = make_fixture("random", seed=np.int64(7), njoints=np.int32(3), nactuators=np.int64(8))
        b = make_fixture("random", seed=7, njoints=3, nactuators=8)
        assert a.name == b.name == "random_7_3x8"
        assert np.array_equal(a.moment_arms, b.moment_arms)

    def test_random_fixture_dimension_preconditions(self):
        with pytest.raises(PlantError):
            make_fixture("random", seed=0, njoints=3, nactuators=5)
        with pytest.raises(PlantError):
            make_fixture("random", seed=0, njoints=0, nactuators=4)

    @pytest.mark.parametrize("njoints, nactuators", [(True, 8), (2.5, 8), (3, 8.0), (3.0, 8),
                                                     (None, 8)])
    def test_random_fixture_dimension_that_is_not_an_integer_is_named(self, njoints,
                                                                      nactuators):
        # 2.5 used to fail inside numpy with an unnamed TypeError, and True
        # used to build a one-joint plant.
        message = ("random fixture needs integers njoints >= 1 and nactuators >= 2 * njoints, "
                   f"got njoints={njoints!r}, nactuators={nactuators!r}")
        with pytest.raises(PlantError, match=f"^{re.escape(message)}$"):
            make_fixture("random", seed=0, njoints=njoints, nactuators=nactuators)

    def test_unknown_kind(self):
        with pytest.raises(PlantError):
            make_fixture("octopus")

    def test_coverage_validated_on_construction(self):
        plant = simple_plant()
        arms = plant.moment_arms.copy()
        arms[0, 1] = 0.0
        with pytest.raises(PlantError, match="antagonist"):
            Plant(
                name="broken",
                joint_names=plant.joint_names,
                actuator_names=plant.actuator_names,
                moment_arms=arms,
                length_offsets=plant.length_offsets,
                inertia=plant.inertia,
                damping=plant.damping,
                gravity=plant.gravity,
                joint_range=plant.joint_range,
                params=plant.params,
                geometry=plant.geometry,
            )

    def test_state_validation(self):
        with pytest.raises(PlantError):
            PlantState(q=np.zeros(2), qdot=np.zeros(2), act=np.array([0.5, 1.4]))
        with pytest.raises(PlantError, match="^q and qdot shapes differ$"):
            PlantState(q=np.zeros(2), qdot=np.zeros(3), act=np.zeros(4))


FINGER = make_fixture("toy_finger")


class TestPlantValidation:
    """Each invalid plant is rejected on construction, naming its cause."""

    @pytest.mark.parametrize("changes, message", [
        (dict(moment_arms=np.zeros((2, 3))),
         "moment_arms shape does not match joint/actuator counts"),
        (dict(moment_arms=np.zeros((4, 2))),
         "moment_arms shape does not match joint/actuator counts"),
        (dict(length_offsets=[0.2, 0.2, 0.2]), "length_offsets has wrong length"),
        (dict(inertia=[1e-3]), "inertia has wrong length"),
        (dict(damping=[[0.02, 0.01]]), "damping has wrong length"),
        (dict(gravity=[0.0, 0.0, 0.0]), "gravity has wrong length"),
        (dict(joint_range=1.2), "joint_range has wrong length"),
        (dict(params=FINGER.params[:3]), "per-actuator parameter lists have wrong length"),
        (dict(geometry=FINGER.geometry * 2), "per-actuator parameter lists have wrong length"),
        (dict(inertia=[1e-3, 0.0]), "inertia diagonal must be positive"),
        (dict(inertia=[-1e-3, 5e-4]), "inertia diagonal must be positive"),
        (dict(damping=[0.02, -1e-9]), "damping diagonal must be non-negative"),
        (dict(joint_range=[1.2, 0.0]), "joint_range must be positive"),
        # The offsets leave 12x the calibrated range (1.2 rad); mcp_flex's
        # tendon reaches zero at 14.4 rad.
        (dict(joint_range=[14.5, 1.2]),
         "tendon lengths reach zero inside the declared joint range"),
    ], ids=["arms_3_columns", "arms_4_rows", "offsets_3", "inertia_1", "damping_2d",
            "gravity_3", "range_scalar", "params_3", "geometry_8", "inertia_zero",
            "inertia_negative", "damping_negative", "range_zero", "range_slack"])
    def test_invalid_plant_is_named(self, changes, message):
        with pytest.raises(PlantError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(FINGER, **changes)

    @pytest.mark.parametrize("field, value", [
        ("damping", [True, False]),
        ("damping", np.array([True, False])),
        ("damping", ["0.02", "0.01"]),
        ("moment_arms", [[0.01, -0.01, 0.005, -0.005], [False, 0.0, 0.008, -0.008]]),
        ("moment_arms", [[0.01, -0.01, 0.005, -0.005], [0.0, 0.0, 0.008, "-0.008"]]),
        ("gravity", [False, False]),
        ("gravity", ["0.3", 0.0]),
    ], ids=["damping_bools", "damping_bool_array", "damping_strings", "arms_bool",
            "arms_string", "gravity_bools", "gravity_string"])
    def test_value_that_is_not_a_number_is_named(self, field, value):
        # Each used to build a plant, the bools as 1 and 0 and the strings as
        # the numbers they spell, as load_plant refuses to.
        with pytest.raises(PlantError, match=f"^{field} must hold only numbers "
                                             r"\(not bools or strings\)$"):
            dataclasses.replace(FINGER, **{field: value})

    def test_zero_damping_is_valid(self):
        plant = dataclasses.replace(FINGER, damping=[0.0, 0.0])
        assert plant.damping.tolist() == [0.0, 0.0]


class TestPlantFiles:
    def test_round_trip(self, tmp_path):
        plant = make_fixture("hand_like")
        path = tmp_path / "plant.json"
        save_plant(plant, path)
        loaded = load_plant(path)
        assert loaded.joint_names == plant.joint_names
        assert loaded.actuator_names == plant.actuator_names
        assert np.array_equal(loaded.moment_arms, plant.moment_arms)
        assert np.array_equal(loaded.length_offsets, plant.length_offsets)
        assert loaded.params == plant.params
        assert loaded.geometry == plant.geometry

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "plant.json"
        path.write_text('{"format": "myoctl-plant/999"}')
        with pytest.raises(PlantFormatError, match="myoctl-plant/1"):
            load_plant(path)

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "plant.json"
        path.write_text('{"format": "myoctl-plant/1", "njoints": 2}')
        with pytest.raises(PlantFormatError):
            load_plant(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "plant.json"
        path.write_text("moment arms go brr")
        with pytest.raises(PlantFormatError):
            load_plant(path)

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path):
        # A directory in the way makes the rename onto it fail.
        (tmp_path / "plant.json").mkdir()
        with pytest.raises(IsADirectoryError):
            save_plant(make_fixture("toy_finger"), tmp_path / "plant.json")
        assert [p.name for p in tmp_path.iterdir()] == ["plant.json"]
        assert (tmp_path / "plant.json").is_dir()

    @pytest.mark.parametrize("kind", ["toy_finger", "hand_like"])
    def test_file_layout(self, tmp_path, kind):
        path = tmp_path / "plant.json"
        save_plant(make_fixture(kind), path)
        doc = json.loads(path.read_text())
        assert list(doc) == [
            "format", "name", "njoints", "nactuators", "joint_names", "actuator_names",
            "moment_arms", "length_offsets", "inertia", "damping", "gravity",
            "joint_range", "muscles",
        ]
        keys = [f.name for f in fields(MuscleParams) + fields(MuscleGeometry)]
        assert [list(entry) for entry in doc["muscles"]] == [keys] * len(doc["muscles"])
        again = tmp_path / "again.json"
        save_plant(load_plant(path), again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("field", ["njoints", "nactuators"])
    @pytest.mark.parametrize("token", ["2.5", "4.9", "true", "0", "-1"])
    def test_bad_count_is_named(self, tmp_path, field, token):
        path, doc = toy_finger_document(tmp_path)
        doc[field] = json.loads(token)
        path.write_text(json.dumps(doc))
        with pytest.raises(PlantFormatError, match=rf"'{field}' must be a whole number >= 1"):
            load_plant(path)

    @pytest.mark.parametrize("field, names", [("njoints", "joint_names"),
                                              ("nactuators", "actuator_names")])
    @pytest.mark.parametrize("count", [1, 5])
    def test_count_must_match_the_names(self, tmp_path, field, names, count):
        path, doc = toy_finger_document(tmp_path)
        doc[field] = count
        path.write_text(json.dumps(doc))
        listed = len(doc[names])
        with pytest.raises(PlantFormatError,
                           match=rf"'{field}' is {count} but '{names}' has {listed} names"):
            load_plant(path)

    @pytest.mark.parametrize("field, name", [("joint_names", "mcp"),
                                             ("actuator_names", "mcp_flex")])
    def test_repeated_names_are_named(self, tmp_path, field, name):
        # A repeated joint would take one channel twice; a repeated actuator
        # would fail every session only when its output is written.
        path, doc = toy_finger_document(tmp_path)
        doc[field][1] = name
        path.write_text(json.dumps(doc))
        with pytest.raises(PlantError, match=rf"{field} repeats the names \['{name}'\]"):
            load_plant(path)

    @pytest.mark.parametrize("field", ["joint_names", "actuator_names"])
    def test_name_that_is_not_a_string_is_named(self, tmp_path, field):
        # A joint named 7 would otherwise load and fail only at conversion.
        path, doc = toy_finger_document(tmp_path)
        doc[field][1] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(PlantError, match=re.escape(f"{field} must hold strings, not [7]")):
            load_plant(path)

    def test_failed_write_leaves_the_old_file_and_no_temporary_file(self, tmp_path,
                                                                     monkeypatch):
        path = tmp_path / "p.json"
        save_plant(make_fixture("toy_finger"), path)
        before = path.read_bytes()
        real = Path.write_bytes

        def disk_full_after_10_bytes(self, data):
            real(self, data[:10])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", disk_full_after_10_bytes)
        with pytest.raises(OSError, match="No space left on device"):
            save_plant(make_fixture("hand_like"), path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]
        assert path.read_bytes() == before

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_plant(tmp_path / "nope.json")

    def test_zero_smoothing_width_is_rejected(self, tmp_path):
        path, doc = toy_finger_document(tmp_path)
        for muscle in doc["muscles"]:
            muscle["tau_smooth"] = 0.0
        path.write_text(json.dumps(doc))
        with pytest.raises(PlantFormatError, match="tau_smooth"):
            load_plant(path)

    @pytest.mark.parametrize("field, value, message", [
        ("damping", [True, False], "'damping' must hold only numbers"),
        ("damping", ["0.02", "0.01"], "'damping' must hold only numbers"),
        ("damping", [0.02, True], "'damping' must hold only numbers"),
        ("moment_arms", [0.01, -0.01, 0.01, -0.01, 0.01, -0.01, 0.01, None],
         "'moment_arms' must hold only numbers"),
        ("tau_act", True, "tau_act must be a finite number, got True"),
        ("tau_act", "0.01", "tau_act must be a finite number, got '0.01'"),
    ])
    def test_value_that_is_not_a_number_is_named(self, tmp_path, field, value, message):
        # Each used to load: tau_act true as a 1 s time constant (and save
        # back as true), [true, false] as [1, 0], ["0.02", "0.01"] as numbers.
        path, doc = toy_finger_document(tmp_path)
        for entry in doc["muscles"] if field == "tau_act" else [doc]:
            entry[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(PlantFormatError, match=re.escape(f"is malformed: {message}")):
            load_plant(path)

    @given(data=st.data(),
           bad=st.sampled_from([np.nan, np.inf, -np.inf, True, False, "0.5", None]))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_non_finite_number_is_named(self, tmp_path, data, bad):
        path, doc = toy_finger_document(tmp_path)
        key_path = data.draw(st.sampled_from(list(numeric_paths(doc))))
        node = doc
        for key in key_path[:-1]:
            node = node[key]
        node[key_path[-1]] = bad
        path.write_text(json.dumps(doc))
        field = next(key for key in reversed(key_path) if isinstance(key, str))
        with pytest.raises((PlantError, PlantFormatError)) as excinfo:
            load_plant(path)
        message = str(excinfo.value).replace(str(path), "")
        assert re.search(rf"\b{field}\b", message), message


class TestRandomControls:
    def test_seeded_and_bounded(self):
        a = smooth_random_controls(4, 500, 0.002, 3)
        b = smooth_random_controls(4, 500, 0.002, 3)
        c = smooth_random_controls(4, 500, 0.002, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (500, 4)
        assert np.all((a >= 0.0) & (a <= 1.0))

    def test_settle_zeroes_the_ends(self):
        ctrl = smooth_random_controls(4, 1000, 0.002, 3, settle=0.25)
        assert np.all(ctrl[0] == 0.0)
        assert np.all(ctrl[-1] == 0.0)
        # smoothstep envelope: ~10 (t/settle)^3 near the ends
        assert ctrl[:12].max() < 0.01
        assert ctrl[-12:].max() < 0.01
        assert ctrl.max() > 0.2

    def test_settle_envelope_stays_within_the_unit_interval(self):
        # The smoothstep envelope exceeds 1 by round-off just below 1: here
        # the plain product reaches 1.0000000000000013 at frame 949, which
        # rollout would reject. The controls are bounded by 1 after the
        # envelope, and every product already in [0, 1] keeps its bits.
        from myoctl.muscle import smoothstep

        nframes, dt, settle = 1000, 0.002, 0.1
        ctrl = smooth_random_controls(4, nframes, dt, 100, settle=settle)
        times = np.arange(nframes) * dt
        duration = times[-1]
        envelope = smoothstep(times / settle) * smoothstep((duration - times) / settle)
        product = smooth_random_controls(4, nframes, dt, 100) * envelope[:, None]
        over = product > 1.0
        assert over.any()
        assert np.all(ctrl[over] == 1.0)
        assert ctrl[~over].tobytes() == product[~over].tobytes()
        plant = make_fixture("toy_finger")
        assert np.isfinite(rollout(plant, rest_state(plant), ctrl, dt).q).all()

    @pytest.mark.parametrize("settle", [float("nan"), -1.0, -0.25, float("inf"), True, "0.25"])
    def test_settle_must_be_non_negative_and_finite(self, settle):
        with pytest.raises(ValueError, match="settle must be non-negative and finite"):
            smooth_random_controls(4, 100, 0.002, 3, settle=settle)

    @pytest.mark.parametrize("seed", [None, True, False, 3.0, -1])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        message = f"^{re.escape(f'seed must be an integer of at least 0, got {seed!r}')}$"
        with pytest.raises(ValueError, match=message):
            smooth_random_controls(4, 100, 0.002, seed)
        # roundtrip draws its reference controls here.
        with pytest.raises(ValueError, match=message):
            roundtrip(make_fixture("toy_finger"), seed=seed, duration=0.1)

    @pytest.fixture
    def no_scipy(self, monkeypatch):
        """Make every scipy import fail, so anything that still needs it errors."""
        for name in [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]:
            monkeypatch.delitem(sys.modules, name)
        monkeypatch.setitem(sys.modules, "scipy", None)

    @pytest.mark.parametrize("nframes, dt, message", [
        (1, 0.002, "^nframes must be an integer of at least 2, got 1$"),
        (0, 0.002, "^nframes must be an integer of at least 2, got 0$"),
        (100, 0.0, "dt must be positive and finite"),
        (100, -0.002, "dt must be positive and finite"),
        (100, float("nan"), "dt must be positive and finite"),
        (100, float("inf"), "dt must be positive and finite"),
        (100.0, 0.002, "nframes must be an integer"),
        (True, 0.002, "nframes must be an integer"),
    ])
    def test_bad_length_or_step_is_rejected_before_scipy(self, no_scipy, nframes, dt, message):
        # With scipy unimportable, the named error comes first and a valid
        # call still succeeds.
        with pytest.raises(ValueError, match=message):
            smooth_random_controls(4, nframes, dt, 3)
        assert smooth_random_controls(4, 100, 0.002, 3).shape == (100, 4)

    @pytest.mark.parametrize("nactuators", [-1, 0, 2.0, True])
    def test_bad_actuator_count_is_rejected_by_name(self, no_scipy, nactuators):
        with pytest.raises(ValueError, match="nactuators must be an integer of at least 1"):
            smooth_random_controls(nactuators, 100, 0.002, 3)

    def test_numpy_integer_counts_are_accepted(self):
        assert np.array_equal(smooth_random_controls(np.int64(4), np.int32(100), 0.002, 3),
                              smooth_random_controls(4, 100, 0.002, 3))

    @pytest.mark.parametrize("nframes, dt", [
        (2, 0.002),  # the shortest trajectory: 4 knots
        (1000, 1.0 / 500.0),
        (4000, 1.0 / 2000.0),
        (300_000, 1.0 / 500.0),  # 1202 knots
    ])
    def test_spline_matches_scipy_cubic_spline(self, monkeypatch, nframes, dt):
        from scipy.interpolate import CubicSpline

        ours = smooth_random_controls(4, nframes, dt, 5, settle=0.0)
        monkeypatch.setattr(
            plant_module, "_natural_cubic_spline",
            lambda x, y, t: CubicSpline(x, y, axis=0, bc_type="natural")(t),
        )
        reference = smooth_random_controls(4, nframes, dt, 5, settle=0.0)
        assert np.abs(ours - reference).max() <= 1e-14

    @pytest.mark.parametrize("nknots", [2, 3, 4, 9])
    def test_spline_on_uneven_knots_matches_scipy(self, nknots):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(nknots)
        x = np.cumsum(rng.uniform(0.1, 2.0, nknots))
        y = rng.uniform(-3.0, 3.0, (nknots, 3))
        t = np.sort(np.concatenate([x, rng.uniform(x[0], x[-1], 500)]))
        ours = plant_module._natural_cubic_spline(x, y, t)
        reference = CubicSpline(x, y, axis=0, bc_type="natural")(t)
        assert np.abs(ours - reference).max() <= 1e-14
