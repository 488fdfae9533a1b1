"""Synthetic tendon-driven test plants.

A plant couples a rigid-body skeleton (diagonal inertia, viscous damping,
optional gravity) to muscle-tendon actuators through a constant moment-arm
matrix: tendon lengths are affine in the joint angles
(``lengths = offsets - moment_arms' q``) and muscle tensions map back to
joint torques as ``torque = moment_arms @ force``. Gravity, when enabled,
contributes ``gravity * sin(q)`` to the joint load.

Plants are immutable after construction and safe to share across workers;
stepping returns a fresh state. Definitions round-trip through a
human-readable JSON document versioned ``myoctl-plant/1``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# The step calls the unchecked kernels. bench/spans.py patches
# step_activation and the public curves in this module, so those names must
# stay importable here.
from .activation import _step_activation, step_activation  # noqa: F401
from .muscle import (  # noqa: F401
    MuscleGeometry,
    MuscleParams,
    _fl,
    _fl_constants,
    _fp,
    _fp_constants,
    _fv,
    _fv_constants,
    calibrate_geometry,
    fl_curve,
    fp_curve,
    fv_curve,
)

__all__ = [
    "PlantError",
    "PlantFormatError",
    "Plant",
    "PlantState",
    "tendon_kinematics",
    "inverse_dynamics",
    "forward_step",
    "make_fixture",
    "rollout",
    "RolloutResult",
    "rest_state",
    "smooth_random_controls",
    "save_plant",
    "load_plant",
    "PLANT_FORMAT",
]

PLANT_FORMAT = "myoctl-plant/1"


class PlantError(ValueError):
    """Raised for invalid plant configurations or states."""


class PlantFormatError(ValueError):
    """Raised when a plant definition file cannot be parsed."""


@dataclass(frozen=True)
class _MuscleArrays:
    """Per-actuator parameters stacked for vectorized evaluation, and the
    constants the curve kernels derive from them (``fl_*``, ``fv_*``,
    ``fp_*``), computed once per plant as the public curves compute them."""

    l0: np.ndarray
    lt: np.ndarray
    f0: np.ndarray
    lmin: np.ndarray
    lmax: np.ndarray
    vmax: np.ndarray
    tau_act: np.ndarray
    tau_deact: np.ndarray
    tau_smooth: np.ndarray
    fl_half_lo: np.ndarray
    fl_half_hi: np.ndarray
    fv_rise: np.ndarray
    fv_rise_width: np.ndarray
    fp_width: np.ndarray
    fp_quarter: np.ndarray


@dataclass(frozen=True, eq=False)
class Plant:
    """Immutable synthetic musculoskeletal model.

    Attributes:
        moment_arms: (njoints, nactuators) matrix of moment arms (m); joint
            torque per unit actuator force.
        length_offsets: tendon lengths at the zero pose (m).
        inertia, damping: diagonals of the joint-space inertia (kg m^2) and
            viscous damping (N m s/rad) matrices.
        gravity: per-joint torque coefficient multiplying ``sin(q)``; zeros
            disable gravity.
        joint_range: symmetric joint excursion (rad) the plant is calibrated
            for; tendon lengths stay positive well beyond it.
        params, geometry: per-actuator muscle parameters and calibrated
            geometry, aligned with ``actuator_names``.
    """

    name: str
    joint_names: tuple[str, ...]
    actuator_names: tuple[str, ...]
    moment_arms: np.ndarray
    length_offsets: np.ndarray
    inertia: np.ndarray
    damping: np.ndarray
    gravity: np.ndarray
    joint_range: np.ndarray
    params: tuple[MuscleParams, ...]
    geometry: tuple[MuscleGeometry, ...]

    def __post_init__(self) -> None:
        for attr in ("moment_arms", "length_offsets", "inertia", "damping",
                     "gravity", "joint_range"):
            value = np.asarray(getattr(self, attr), dtype=float)
            if not np.isfinite(value).all():
                raise PlantError(f"{attr} has non-finite entries")
            object.__setattr__(self, attr, value)
        nj, na = len(self.joint_names), len(self.actuator_names)
        if self.moment_arms.shape != (nj, na):
            raise PlantError("moment_arms shape does not match joint/actuator counts")
        for attr, size in (("length_offsets", na), ("inertia", nj), ("damping", nj),
                           ("gravity", nj), ("joint_range", nj)):
            if getattr(self, attr).shape != (size,):
                raise PlantError(f"{attr} has wrong length")
        if len(self.params) != na or len(self.geometry) != na:
            raise PlantError("per-actuator parameter lists have wrong length")
        if np.any(self.inertia <= 0.0):
            raise PlantError("inertia diagonal must be positive")
        if np.any(self.damping < 0.0):
            raise PlantError("damping diagonal must be non-negative")
        if np.any(self.joint_range <= 0.0):
            raise PlantError("joint_range must be positive")
        for j in range(nj):
            row = self.moment_arms[j]
            if not (np.any(row > 0.0) and np.any(row < 0.0)):
                raise PlantError(
                    f"joint {self.joint_names[j]!r} lacks antagonist coverage"
                )
        min_lengths = self.length_offsets - np.abs(self.moment_arms).T @ self.joint_range
        if np.any(min_lengths <= 0.0):
            raise PlantError("tendon lengths reach zero inside the declared joint range")

    @property
    def njoints(self) -> int:
        return len(self.joint_names)

    @property
    def nactuators(self) -> int:
        return len(self.actuator_names)

    @cached_property
    def _muscle(self) -> _MuscleArrays:
        def stack(records, attr):
            return np.array([getattr(r, attr) for r in records])

        p, g = self.params, self.geometry
        lmin, lmax = stack(p, "lmin"), stack(p, "lmax")
        fl_half_lo, fl_half_hi = _fl_constants(lmin, lmax)
        fv_rise, fv_rise_width = _fv_constants(stack(p, "fvmax"))
        fp_width, fp_quarter = _fp_constants(lmax, stack(p, "fpmax"))
        return _MuscleArrays(
            l0=stack(g, "l0"),
            lt=stack(g, "lt"),
            f0=stack(g, "f0"),
            lmin=lmin,
            lmax=lmax,
            vmax=stack(p, "vmax"),
            tau_act=stack(p, "tau_act"),
            tau_deact=stack(p, "tau_deact"),
            tau_smooth=stack(p, "tau_smooth"),
            fl_half_lo=fl_half_lo,
            fl_half_hi=fl_half_hi,
            fv_rise=fv_rise,
            fv_rise_width=fv_rise_width,
            fp_width=fp_width,
            fp_quarter=fp_quarter,
        )


@dataclass(frozen=True, eq=False)
class PlantState:
    """Joint positions, joint velocities and per-muscle activations."""

    q: np.ndarray
    qdot: np.ndarray
    act: np.ndarray

    def __post_init__(self) -> None:
        for attr in ("q", "qdot", "act"):
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), dtype=float))
        if self.q.shape != self.qdot.shape:
            raise PlantError("q and qdot shapes differ")
        if np.any(self.act < 0.0) or np.any(self.act > 1.0):
            raise PlantError("activations must lie in [0, 1]")


def rest_state(plant: Plant) -> PlantState:
    """Zero pose, zero velocity, zero activation."""
    return PlantState(
        q=np.zeros(plant.njoints),
        qdot=np.zeros(plant.njoints),
        act=np.zeros(plant.nactuators),
    )


def _tendon_kinematics(plant: Plant, q: np.ndarray, qdot: np.ndarray):
    lengths = plant.length_offsets - q @ plant.moment_arms
    if (lengths <= 0.0).any():
        where = np.unravel_index(int(np.argmin(lengths)), lengths.shape)
        name = plant.actuator_names[where[-1]]
        at = f"frame {where[0]}" if lengths.ndim == 2 else "this pose"
        raise PlantError(f"tendon {name!r} has non-positive length at {at}")
    return lengths, -(qdot @ plant.moment_arms)


def tendon_kinematics(plant: Plant, q, qdot):
    """Tendon lengths and velocities at a joint state or along a trajectory.

    ``q`` and ``qdot`` have shape ``(..., njoints)``; the results have shape
    ``(..., nactuators)``: ``lengths = offsets - q @ moment_arms`` and
    ``velocities = -qdot @ moment_arms``.

    Raises:
        PlantError: if any tendon length is non-positive; for a trajectory
            ``(nframes, njoints)`` the message names the tendon and frame.
    """
    return _tendon_kinematics(plant, np.asarray(q, dtype=float), np.asarray(qdot, dtype=float))


def _normalized(plant: Plant, lengths, velocities):
    """Muscle length and velocity in optimal lengths: ``((l - lt) / l0, v / l0)``."""
    m = plant._muscle
    return (lengths - m.lt) / m.l0, velocities / m.l0


def _gain_bias(plant: Plant, norm_len, norm_vel):
    """Affine force decomposition ``(gain, bias)`` at a normalized state.

    ``gain = -f0 * FL * FV`` and ``bias = -f0 * FP``, both non-positive,
    for inputs of shape ``(..., nactuators)``. It runs the kernels of
    :func:`~myoctl.muscle.fl_curve`, :func:`~myoctl.muscle.fv_curve` and
    :func:`~myoctl.muscle.fp_curve` on the plant's cached constants; the
    forward step and the inversion both evaluate forces through it.
    """
    m = plant._muscle
    fl = _fl(norm_len, m.lmin, m.lmax, m.fl_half_lo, m.fl_half_hi)
    fv = _fv(norm_vel, m.vmax, m.fv_rise, m.fv_rise_width)
    fp = _fp(norm_len, m.fp_width, m.fp_quarter)
    return -m.f0 * fl * fv, -m.f0 * fp


def inverse_dynamics(plant: Plant, q, qdot, qddot):
    """Generalized force required to realize an acceleration.

    ``q_frc = M qddot + D qdot + gravity * sin(q)``.
    """
    q = np.asarray(q, dtype=float)
    return (
        plant.inertia * np.asarray(qddot, dtype=float)
        + plant.damping * np.asarray(qdot, dtype=float)
        + plant.gravity * np.sin(q)
    )


def _check_step_args(ctrl, dt: float) -> np.ndarray:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    ctrl = np.asarray(ctrl, dtype=float)
    if np.any(ctrl < 0.0) or np.any(ctrl > 1.0):
        raise ValueError("controls must lie in [0, 1]")
    return ctrl


def _step(plant: Plant, q, qdot, act, ctrl, dt: float):
    """One semi-implicit Euler step on float arrays; arguments are not checked.

    Returns ``(q, qdot, act)`` after the step. The activation advances
    first, the muscle forces are evaluated at the pre-step pose with the new
    activation (:func:`_gain_bias` on the plant's cached constants), then
    the velocity update precedes the position update. A non-finite velocity
    always makes the new position non-finite (``dt > 0``), so checking the
    position covers both.

    Callers suppress numpy's overflow and invalid-value warnings, so that
    a diverging state surfaces as the named :class:`PlantError`.

    Raises:
        PlantError: if a tendon length is non-positive (naming the tendon)
            or the state goes non-finite.
    """
    m = plant._muscle
    norm_len, norm_vel = _normalized(plant, *_tendon_kinematics(plant, q, qdot))
    act_next = _step_activation(act, ctrl, dt, m.tau_act, m.tau_deact, m.tau_smooth)
    gain, bias = _gain_bias(plant, norm_len, norm_vel)
    torque = plant.moment_arms @ (gain * act_next + bias)
    qddot = (torque - plant.damping * qdot - plant.gravity * np.sin(q)) / plant.inertia
    qdot_next = qdot + dt * qddot
    q_next = q + dt * qdot_next
    if not np.isfinite(q_next).all():
        raise PlantError("simulation diverged to a non-finite state")
    return q_next, qdot_next, act_next


def forward_step(plant: Plant, state: PlantState, ctrl, dt: float) -> PlantState:
    """Advance the plant one semi-implicit Euler step under a control vector.

    Activations update first (smoothed time constants), forces are evaluated
    at the pre-step pose, and the velocity update precedes the position
    update.

    Raises:
        ValueError: for controls outside [0, 1] or non-positive ``dt``.
        PlantError: if a tendon length is non-positive or the state goes
            non-finite.
    """
    ctrl = _check_step_args(ctrl, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        q, qdot, act = _step(plant, state.q, state.qdot, state.act, ctrl, dt)
    return PlantState(q=q, qdot=qdot, act=act)


@dataclass(frozen=True)
class RolloutResult:
    """Trajectory logs aligned with the applied control rows."""

    q: np.ndarray
    qdot: np.ndarray
    act: np.ndarray


def rollout(plant: Plant, state: PlantState, ctrl_traj, dt: float) -> RolloutResult:
    """Apply a control trajectory row by row, logging the pre-step states.

    ``dt`` and the whole control trajectory are checked once, then each row
    is applied by the same step as :func:`forward_step`, on plain arrays,
    so the states match a loop over :func:`forward_step` bit for bit.

    Raises:
        ValueError: for any control outside [0, 1] or non-positive ``dt``,
            before the first step.
        PlantError: at the step where a tendon length turns non-positive or
            the state goes non-finite.
    """
    ctrl_traj = _check_step_args(ctrl_traj, dt)
    n = ctrl_traj.shape[0]
    q = np.empty((n, plant.njoints))
    qdot = np.empty((n, plant.njoints))
    act = np.empty((n, plant.nactuators))
    q_t, qdot_t, act_t = state.q, state.qdot, state.act
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n):
            q[t], qdot[t], act[t] = q_t, qdot_t, act_t
            q_t, qdot_t, act_t = _step(plant, q_t, qdot_t, act_t, ctrl_traj[t], dt)
    return RolloutResult(q=q, qdot=qdot, act=act)


def smooth_random_controls(
    nactuators: int,
    nframes: int,
    dt: float,
    seed: int,
    settle: float = 0.0,
) -> np.ndarray:
    """Seeded band-limited random control trajectory in [0, 1].

    Uniform random knots, about two a second, joined by a cubic spline and
    clipped to the unit interval. With ``settle > 0`` a smoothstep envelope fades the
    controls to exactly zero over that many seconds at both ends, so the
    plant starts and finishes at rest (filter-friendly session edges);
    ``settle = 0`` applies no envelope. Deterministic for a fixed seed. The
    first call imports ``scipy.interpolate`` for the spline.

    Raises:
        ValueError: for fewer than 2 frames, a ``dt`` that is not positive
            and finite, or a ``settle`` that is not non-negative and finite.
    """
    if nframes < 2:
        raise ValueError(f"need at least 2 frames of controls, got {nframes}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(settle) and settle >= 0.0):
        raise ValueError(f"settle must be non-negative and finite, got {settle!r}")
    from scipy.interpolate import CubicSpline

    from .activation import smoothstep

    rng = np.random.default_rng(seed)
    duration = (nframes - 1) * dt
    nknots = max(4, int(round(duration * 2.0)) + 2)
    knot_times = np.linspace(0.0, duration, nknots)
    knots = rng.uniform(0.0, 1.0, size=(nknots, nactuators))
    spline = CubicSpline(knot_times, knots, axis=0, bc_type="natural")
    times = np.arange(nframes) * dt
    ctrl = np.clip(spline(times), 0.0, 1.0)
    if settle > 0.0:
        envelope = smoothstep(times / settle) * smoothstep((duration - times) / settle)
        ctrl = ctrl * envelope[:, None]
    return ctrl


# ---------------------------------------------------------------------------
# Fixtures


def _assemble(
    name: str,
    joint_names: list[str],
    actuator_names: list[str],
    moment_arms: np.ndarray,
    inertia: np.ndarray,
    damping: np.ndarray,
    joint_range: np.ndarray,
    params: list[MuscleParams],
) -> Plant:
    moment_arms = np.asarray(moment_arms, dtype=float)
    inertia = np.asarray(inertia, dtype=float)
    # Offsets leave generous headroom: lengths only vanish at ~12x the
    # declared range, while the active-force region spans ~1x the range.
    delta = np.abs(moment_arms).T @ np.asarray(joint_range, dtype=float)
    offsets = 12.0 * delta
    geometry = []
    for i, p in enumerate(params):
        unit_acc = float(np.linalg.norm(moment_arms[:, i] / inertia))
        geometry.append(
            calibrate_geometry(
                offsets[i] - delta[i],
                offsets[i] + delta[i],
                p,
                unit_acc,
                name=actuator_names[i],
            )
        )
    return Plant(
        name=name,
        joint_names=tuple(joint_names),
        actuator_names=tuple(actuator_names),
        moment_arms=moment_arms,
        length_offsets=offsets,
        inertia=inertia,
        damping=damping,
        gravity=np.zeros(len(joint_names)),
        joint_range=np.asarray(joint_range, dtype=float),
        params=tuple(params),
        geometry=tuple(geometry),
    )


def _toy_finger() -> Plant:
    # Planar two-joint finger: one antagonist pair on the base joint plus a
    # biarticular pair spanning both joints.
    joint_names = ["mcp", "pip"]
    actuator_names = ["mcp_flex", "mcp_ext", "bi_flex", "bi_ext"]
    moment_arms = np.array(
        [
            [0.010, -0.010, 0.005, -0.005],
            [0.000, 0.000, 0.008, -0.008],
        ]
    )
    params = [
        MuscleParams(scale=20.0, tau_act=0.02, tau_deact=0.02, tau_smooth=0.005)
        for _ in actuator_names
    ]
    return _assemble(
        "toy_finger",
        joint_names,
        actuator_names,
        moment_arms,
        inertia=np.array([1e-3, 5e-4]),
        damping=np.array([0.020, 0.010]),
        joint_range=np.array([1.2, 1.2]),
        params=params,
    )


def _hand_like() -> Plant:
    # 23 joints, 39 actuators: five digits of four joints each plus three
    # wrist joints; every joint carries an antagonist pair.
    joint_names: list[str] = []
    actuator_names: list[str] = []
    rows: dict[str, dict[str, float]] = {}

    def add_muscle(label: str, arms: dict[str, float]) -> None:
        actuator_names.append(label)
        rows[label] = arms

    for d in range(5):
        scale = 1.0 + 0.06 * d
        jn = [f"d{d}_abd", f"d{d}_mcp", f"d{d}_pip", f"d{d}_dip"]
        joint_names.extend(jn)
        add_muscle(f"d{d}_flex_long", {jn[1]: 0.009 * scale, jn[2]: 0.007 * scale, jn[3]: 0.005 * scale})
        add_muscle(f"d{d}_ext_long", {jn[1]: -0.008 * scale, jn[2]: -0.006 * scale, jn[3]: -0.004 * scale})
        add_muscle(f"d{d}_flex_short", {jn[1]: 0.010 * scale})
        add_muscle(f"d{d}_ext_short", {jn[1]: -0.009 * scale})
        add_muscle(f"d{d}_abductor", {jn[0]: 0.006 * scale})
        add_muscle(f"d{d}_adductor", {jn[0]: -0.006 * scale})
    wrist = ["wrist_flex", "wrist_dev", "wrist_rot"]
    joint_names.extend(wrist)
    add_muscle("wrist_flexor", {wrist[0]: 0.012})
    add_muscle("wrist_extensor", {wrist[0]: -0.012})
    add_muscle("wrist_dev_pos", {wrist[1]: 0.010})
    add_muscle("wrist_dev_neg", {wrist[1]: -0.010})
    add_muscle("wrist_rot_pos", {wrist[2]: 0.008})
    add_muscle("wrist_rot_neg", {wrist[2]: -0.008})
    add_muscle("wrist_poly_a", {wrist[0]: 0.004, wrist[1]: -0.003, wrist[2]: 0.002})
    add_muscle("wrist_poly_b", {wrist[0]: -0.004, wrist[1]: 0.003, wrist[2]: -0.002})
    add_muscle("wrist_poly_c", {wrist[0]: 0.003, wrist[1]: 0.002, wrist[2]: -0.004})

    nj, na = len(joint_names), len(actuator_names)
    moment_arms = np.zeros((nj, na))
    index = {jn: j for j, jn in enumerate(joint_names)}
    for i, label in enumerate(actuator_names):
        for jn, arm in rows[label].items():
            moment_arms[index[jn], i] = arm

    inertia = np.empty(nj)
    joint_range = np.empty(nj)
    for j, jn in enumerate(joint_names):
        if jn.startswith("wrist"):
            inertia[j] = 5e-3
            joint_range[j] = 1.0
        elif jn.endswith("_abd"):
            inertia[j] = 8e-4
            joint_range[j] = 0.5
        else:
            inertia[j] = {"_mcp": 1e-3, "_pip": 6e-4, "_dip": 4e-4}[jn[-4:]]
            joint_range[j] = 1.2
    damping = 40.0 * inertia
    params = [
        MuscleParams(scale=50.0, tau_act=0.02, tau_deact=0.02, tau_smooth=0.005)
        for _ in actuator_names
    ]
    return _assemble(
        "hand_like", joint_names, actuator_names, moment_arms,
        inertia, damping, joint_range, params,
    )


def _random_plant(seed: int, njoints: int, nactuators: int) -> Plant:
    if njoints < 1 or nactuators < 2 * njoints:
        raise PlantError(
            "random fixture needs njoints >= 1 and nactuators >= 2 * njoints"
        )
    rng = np.random.default_rng(seed)
    moment_arms = np.zeros((njoints, nactuators))
    for j in range(njoints):
        moment_arms[j, 2 * j] = rng.uniform(0.006, 0.012)
        moment_arms[j, 2 * j + 1] = -rng.uniform(0.006, 0.012)
    for i in range(2 * njoints, nactuators):
        j = int(rng.integers(njoints))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        moment_arms[j, i] = sign * rng.uniform(0.002, 0.006)
    inertia = rng.uniform(5e-4, 2e-3, njoints)
    damping = 25.0 * inertia
    joint_range = rng.uniform(0.8, 1.5, njoints)
    params = []
    for _ in range(nactuators):
        tau = rng.uniform(0.015, 0.03)
        params.append(
            MuscleParams(scale=20.0, tau_act=tau, tau_deact=tau, tau_smooth=0.005)
        )
    return _assemble(
        f"random_{seed}_{njoints}x{nactuators}",
        [f"j{j}" for j in range(njoints)],
        [f"m{i}" for i in range(nactuators)],
        moment_arms, inertia, damping, joint_range, params,
    )


def make_fixture(
    kind: str,
    *,
    seed: int = 0,
    njoints: int | None = None,
    nactuators: int | None = None,
) -> Plant:
    """Build one of the standard test plants.

    ``toy_finger`` is a 2-joint, 4-muscle planar finger; ``hand_like`` has
    23 joints and 39 muscles; ``random`` generates a seeded plant with the
    requested dimensions (``nactuators >= 2 * njoints``). Deterministic for
    a fixed kind and seed.
    """
    if kind == "toy_finger":
        return _toy_finger()
    if kind == "hand_like":
        return _hand_like()
    if kind == "random":
        if njoints is None or nactuators is None:
            raise PlantError("random fixture requires njoints and nactuators")
        return _random_plant(seed, njoints, nactuators)
    raise PlantError(f"unknown fixture kind {kind!r}")


# ---------------------------------------------------------------------------
# Plant definition files


def save_plant(plant: Plant, path) -> None:
    """Write a plant definition as a versioned JSON document."""
    doc = {
        "format": PLANT_FORMAT,
        "name": plant.name,
        "njoints": plant.njoints,
        "nactuators": plant.nactuators,
        "joint_names": list(plant.joint_names),
        "actuator_names": list(plant.actuator_names),
        "moment_arms": plant.moment_arms.flatten().tolist(),
        "length_offsets": plant.length_offsets.tolist(),
        "inertia": plant.inertia.tolist(),
        "damping": plant.damping.tolist(),
        "gravity": plant.gravity.tolist(),
        "joint_range": plant.joint_range.tolist(),
        "muscles": [
            {
                "range_lo": p.range_lo, "range_hi": p.range_hi,
                "lmin": p.lmin, "lmax": p.lmax, "vmax": p.vmax,
                "fpmax": p.fpmax, "fvmax": p.fvmax, "scale": p.scale,
                "force_override": p.force_override,
                "tau_act": p.tau_act, "tau_deact": p.tau_deact,
                "tau_smooth": p.tau_smooth,
                "l0": g.l0, "lt": g.lt, "f0": g.f0,
            }
            for p, g in zip(plant.params, plant.geometry)
        ],
    }
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text(json.dumps(doc, indent=2) + "\n")
    os.replace(tmp, path)


def _count(doc: dict, key: str) -> int:
    value = doc[key]
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite")
    return int(value)


def load_plant(path) -> Plant:
    """Read a plant definition written by :func:`save_plant`.

    Raises:
        PlantFormatError: for a wrong format header or malformed document.
        PlantError: for a well-formed document describing an invalid plant.
        Either error names the field that holds a NaN or infinite number.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PlantFormatError(f"cannot parse plant file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != PLANT_FORMAT:
        raise PlantFormatError(
            f"plant file {path} is not in the expected {PLANT_FORMAT} format"
        )
    try:
        nj, na = _count(doc, "njoints"), _count(doc, "nactuators")
        params = []
        geometry = []
        for entry in doc["muscles"]:
            params.append(MuscleParams(
                range_lo=entry["range_lo"], range_hi=entry["range_hi"],
                lmin=entry["lmin"], lmax=entry["lmax"], vmax=entry["vmax"],
                fpmax=entry["fpmax"], fvmax=entry["fvmax"], scale=entry["scale"],
                force_override=entry["force_override"], tau_act=entry["tau_act"],
                tau_deact=entry["tau_deact"], tau_smooth=entry["tau_smooth"],
            ))
            geometry.append(MuscleGeometry(entry["l0"], entry["lt"], entry["f0"]))
        return Plant(
            name=str(doc.get("name", Path(path).stem)),
            joint_names=tuple(doc["joint_names"]),
            actuator_names=tuple(doc["actuator_names"]),
            moment_arms=np.asarray(doc["moment_arms"], dtype=float).reshape(nj, na),
            length_offsets=doc["length_offsets"],
            inertia=doc["inertia"],
            damping=doc["damping"],
            gravity=doc["gravity"],
            joint_range=doc["joint_range"],
            params=tuple(params),
            geometry=tuple(geometry),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, PlantError):
            raise
        raise PlantFormatError(f"plant file {path} is malformed: {exc}") from exc
