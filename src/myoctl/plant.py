"""Synthetic tendon-driven test plants.

A plant couples a rigid-body skeleton (diagonal inertia, viscous damping,
optional gravity) to muscle-tendon actuators through a constant moment-arm
matrix: tendon lengths are affine in the joint angles
(``lengths = offsets - moment_arms' q``) and muscle tensions map back to
joint torques as ``torque = moment_arms @ force``. Gravity, when enabled,
contributes ``gravity * sin(q)`` to the joint load.

A plant advances by semi-implicit Euler steps: the activation filter of
:mod:`myoctl.muscle`, then the velocity, then the pose. :func:`differentiate`
inverts the last two updates, giving the inversion its velocities and
accelerations from a pose trajectory. A rollout builds one step kernel bound
to the plant (:func:`_stepper`): it clamps the distances of every muscle law
at once, as rows of one array, takes its three 1-D products with
``ndarray.dot`` and writes each state straight into the log rows.

Plants are immutable after construction and safe to share across workers;
stepping returns a fresh state. Definitions round-trip through a
human-readable JSON document versioned ``myoctl-plant/1``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

# The step kernel and _gain_bias call the unchecked law pieces.
from .muscle import (
    MuscleGeometry, MuscleParams, _euler, _fl, _fl_args, _fl_poly, _fl_reach, _fp,
    _fp_args, _fp_poly, _fp_reach, _fv, _fv_args, _fv_poly, _fv_reach, _is_integer, _is_number,
    _require_int, _require_positive, _tau_poly, _tau_reach, _unit_clamp, calibrate_geometry,
    smoothstep,
)

# bench/spans.py patches these names in this module, so they must stay
# importable here.
from .muscle import fl_curve, fp_curve, fv_curve, step_activation  # noqa: F401

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
    "rest_state",
    "smooth_random_controls",
    "save_plant",
    "load_plant",
    "differentiate",
]

PLANT_FORMAT = "myoctl-plant/1"

# The array fields of a Plant, in file order.
_ARRAYS = ("moment_arms", "length_offsets", "inertia", "damping", "gravity", "joint_range")


class PlantError(ValueError):
    """Raised for invalid plant configurations or states."""


class PlantFormatError(ValueError):
    """Raised when a plant definition file cannot be parsed."""


@dataclass(frozen=True)
class _MuscleArrays:
    """Per-actuator parameters stacked for vectorized evaluation, computed
    once per plant. ``l0`` and ``lt`` normalize tendon lengths, ``neg_f0`` is
    the peak forces negated, as the force terms use them, and ``taus`` is
    ``(tau_act, tau_deact, tau_smooth)``, the activation step's arguments
    after ``dt``. ``fl``, ``fv`` and ``fp`` are the curve kernels' arguments
    after the state, from ``myoctl.muscle``'s ``_fl_args`` (FL's offsets and
    signed widths, ``(nactuators, 4)`` each), ``_fv_args`` and ``_fp_args``
    as the public curves derive them."""

    l0: np.ndarray
    lt: np.ndarray
    neg_f0: np.ndarray
    taus: tuple[np.ndarray, ...]
    fl: tuple[np.ndarray, ...]
    fv: tuple[np.ndarray, ...]
    fp: tuple[np.ndarray, ...]


def _require_names(error: type, attr: str, names, distinct: bool = True) -> None:
    """The string rule for name lists: raise ``error`` naming ``attr`` and the
    entries of ``names`` that are not strings, or, when ``distinct``, the
    names that occur more than once (sorted)."""
    others = [name for name in names if not isinstance(name, str)]
    if others:
        raise error(f"{attr} must hold strings, not {others}")
    if distinct:
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise error(f"{attr} repeats the names {repeated}")


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
        joint_range: symmetric joint excursion (rad) the muscle geometry is
            calibrated over, not a limit: ``hand_like``'s own 2 s seeded
            reference motion reaches 3.3, 2.3 and 3.9 times it (seeds 1-3)
            and simulates and inverts without error.
        params, geometry: per-actuator muscle parameters and calibrated
            geometry, aligned with ``actuator_names``.

    Joint and actuator names must be strings, the joint names distinct and
    the actuator names distinct: a ``PlantError`` names any name that is not
    a string and any that repeats. Each array field must hold only numbers
    (:func:`~myoctl.muscle._is_number`: a bool or a string is not one),
    checked before it is converted; a ``PlantError`` names the field.
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
        for attr in _ARRAYS:
            value = getattr(self, attr)
            if not _is_number(value):
                raise PlantError(f"{attr} must hold only numbers (not bools or strings)")
            value = np.asarray(value, dtype=float)
            if not np.isfinite(value).all():
                raise PlantError(f"{attr} has non-finite entries")
            object.__setattr__(self, attr, value)
        for attr in ("joint_names", "actuator_names"):
            _require_names(PlantError, attr, getattr(self, attr))
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
        def stacked(records, attr):
            return np.array([getattr(r, attr) for r in records])

        p, g = self.params, self.geometry
        lmax = stacked(p, "lmax")
        return _MuscleArrays(
            l0=stacked(g, "l0"),
            lt=stacked(g, "lt"),
            neg_f0=-stacked(g, "f0"),
            taus=tuple(stacked(p, a) for a in ("tau_act", "tau_deact", "tau_smooth")),
            fl=_fl_args(stacked(p, "lmin"), lmax),
            fv=_fv_args(stacked(p, "vmax"), stacked(p, "fvmax")),
            fp=_fp_args(lmax, stacked(p, "fpmax")),
        )


@dataclass(frozen=True, eq=False)
class PlantState:
    """Joint positions, joint velocities and per-muscle activations.

    One state holds ``(njoints,)``, ``(njoints,)`` and ``(nactuators,)``
    arrays; a log of states (as :func:`rollout` returns) holds the same with
    leading axes, time on axis 0.

    Raises:
        PlantError: for ``q`` and ``qdot`` of different shapes or with a
            non-finite entry (named), or an activation outside [0, 1] or NaN.
    """

    q: np.ndarray
    qdot: np.ndarray
    act: np.ndarray

    def __post_init__(self) -> None:
        for attr in ("q", "qdot", "act"):
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), dtype=float))
        if self.q.shape != self.qdot.shape:
            raise PlantError("q and qdot shapes differ")
        for attr in ("q", "qdot"):
            if not np.isfinite(getattr(self, attr)).all():
                raise PlantError(f"{attr} has non-finite entries")
        if not ((self.act >= 0.0) & (self.act <= 1.0)).all():
            raise PlantError("activations must lie in [0, 1]")


def rest_state(plant: Plant) -> PlantState:
    """Zero pose, zero velocity, zero activation."""
    return PlantState(
        q=np.zeros(plant.njoints),
        qdot=np.zeros(plant.njoints),
        act=np.zeros(plant.nactuators),
    )


def _check_lengths(plant: Plant, lengths: np.ndarray) -> None:
    """Raise :class:`PlantError` if a tendon length is non-positive.

    For ``(nframes, nactuators)`` lengths the message names the first such
    frame and its shortest tendon; for one pose's, the shortest tendon.
    """
    slack = lengths <= 0.0
    if slack.any():
        if lengths.ndim == 2:
            frame = int(np.argmax(slack.any(axis=1)))
            lengths, at = lengths[frame], f"frame {frame}"
        else:
            at = "this pose"
        name = plant.actuator_names[int(np.argmin(lengths))]
        raise PlantError(f"tendon {name!r} has non-positive length at {at}")


def tendon_kinematics(plant: Plant, q, qdot):
    """Tendon lengths and velocities at a joint state or along a trajectory.

    ``q`` and ``qdot`` have shape ``(..., njoints)``; the results have shape
    ``(..., nactuators)``: ``lengths = offsets - q @ moment_arms`` and
    ``velocities = -qdot @ moment_arms``.

    Raises:
        PlantError: if any tendon length is non-positive; for a trajectory
            ``(nframes, njoints)`` the message names the first such frame
            and its shortest tendon.
    """
    q, qdot = np.asarray(q, dtype=float), np.asarray(qdot, dtype=float)
    lengths = plant.length_offsets - q @ plant.moment_arms
    _check_lengths(plant, lengths)
    return lengths, -(qdot @ plant.moment_arms)


def _normalized(plant: Plant, lengths, velocities):
    """Muscle length and velocity in optimal lengths: ``((l - lt) / l0, v / l0)``."""
    m = plant._muscle
    return (lengths - m.lt) / m.l0, velocities / m.l0


def _gain_bias(plant: Plant, norm_len, norm_vel):
    """Affine force decomposition ``(gain, bias)`` at a normalized state.

    ``gain = -f0 * FL * FV`` and ``bias = -f0 * FP``, both non-positive,
    for inputs of shape ``(..., nactuators)``. It runs the kernels of
    :func:`~myoctl.muscle.fl_curve`, :func:`~myoctl.muscle.fv_curve` and
    :func:`~myoctl.muscle.fp_curve` on the plant's cached argument lists
    (:class:`_MuscleArrays`); the forward step and the inversion both
    evaluate forces through it.
    """
    m = plant._muscle
    gain = m.neg_f0 * _fl(norm_len, *m.fl) * _fv(norm_vel, *m.fv)
    return gain, m.neg_f0 * _fp(norm_len, *m.fp)


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


def _check_step_args(plant: Plant, state: PlantState, name: str, ctrl, dt: float) -> np.ndarray:
    """``ctrl`` as float64: one control vector (``name="ctrl"``) or rows of them."""
    _require_positive("dt", dt)
    # PlantState keeps qdot the shape of q.
    for attr, size, what in (("q", plant.njoints, "joints"),
                             ("act", plant.nactuators, "actuators")):
        shape = getattr(state, attr).shape
        if shape != (size,):
            raise ValueError(f"state.{attr} has shape {shape}; the plant has {size} {what}")
    ctrl = np.asarray(ctrl, dtype=float)
    rows = name == "ctrl_traj"
    if ctrl.ndim != 1 + rows or ctrl.shape[-1] != plant.nactuators:
        expected = f"(nframes, {plant.nactuators})" if rows else f"({plant.nactuators},)"
        raise ValueError(f"{name} has shape {ctrl.shape}; the plant needs {expected}")
    if not ((ctrl >= 0.0) & (ctrl <= 1.0)).all():
        raise ValueError("controls must lie in [0, 1]")
    return ctrl


def _stepper(plant: Plant, dt):
    """The step of one rollout, bound to ``plant`` and a 0-d float64 ``dt``.

    ``step(q, qdot, act, ctrl, q_next, qdot_next, act_next)`` takes one
    semi-implicit Euler step on float64 arrays and writes the state after
    it into the last three, which must not overlap the first four; nothing
    is checked. The activation advances first, the muscle forces are
    evaluated at the pre-step pose with the new activation, then the
    velocity update precedes the position update. A slack tendon or a
    non-finite state does not stop the step: :func:`_simulate` checks the
    whole log once.

    Each law of :mod:`myoctl.muscle` runs as its two pieces, on 60 numpy
    calls a step. The pose's tendon lengths less ``lt`` and the velocity's
    ``qdot @ arms`` are the rows of one ``(2, nactuators)`` array, normalized
    by one divide by ``(l0, -l0)``; ``-l0`` gives the bits of
    :func:`_normalized`'s ``-(qdot @ arms) / l0``, as negation is exact. The
    reach pieces write the laws' distances as the rows of another array
    (FL's near and far, FV's a and w, FP's t and the activation's smoothstep
    argument): FL's four scaled distances come from one subtract and one
    divide, and FP's t from the first of FL's numerators, ``L - 1``. One
    ``np.maximum``/``np.minimum`` pair clamps all six rows, one multiply
    squares them, and each law's polynomial runs on its rows. FL's near and
    FP's t are never negative, so the clamp's lower bound leaves them as
    they are: the forces keep the bits of :func:`_gain_bias` and the
    activation those of ``_step_activation``. The three 1-D products use
    ``ndarray.dot``, which gives the bits of ``@`` at half its cost on these
    sizes. A plant whose gravity is all zero skips ``gravity * sin(q)``:
    subtracting that zero could at most turn a load of -0 into +0, and no
    fixture's rollout changes a bit without it.
    """
    m = plant._muscle
    arms, offsets, damping, inertia = (
        plant.moment_arms, plant.length_offsets, plant.damping, plant.inertia)
    gravity = plant.gravity if plant.gravity.any() else None
    lt, neg_f0, (fl_offsets, fl_widths) = m.lt, m.neg_f0, m.fl
    vmax, rise, rise_width = m.fv
    width, quarter_fpmax = m.fp
    tau_act, tau_deact, tau_smooth = m.taus
    muscle, scale = np.empty((2, plant.nactuators)), np.stack((m.l0, -m.l0))
    length, vel = muscle
    rows = np.empty((6, plant.nactuators))
    clamped, squares = np.empty_like(rows), np.empty_like(rows)
    near, far, a, w, t, x = rows
    _, _, _, w_c, c, x_c = clamped
    near_sq, far_sq, a_sq, _, c_sq, x_sq = squares

    def step(q, qdot, act, ctrl, q_next, qdot_next, act_next):
        np.subtract(np.subtract(offsets, q.dot(arms), out=length), lt, out=length)
        qdot.dot(arms, out=vel)
        np.divide(muscle, scale, out=muscle)
        err = ctrl - act
        excess = _fl_reach(length, fl_offsets, fl_widths, near=near, far=far)[2][:, 0]
        _fv_reach(vel, vmax, rise_width, a=a, w=w)
        _fp_reach(excess, width, out=t)
        _tau_reach(err, tau_smooth, out=x)
        _unit_clamp(rows, out=clamped)
        np.multiply(clamped, clamped, out=squares)
        _euler(act, err, dt, _tau_poly(x_c, x_sq, tau_act, tau_deact), out=act_next)
        gain = neg_f0 * _fl_poly(near_sq, far_sq) * _fv_poly(a_sq, w_c, rise)
        load = arms.dot(gain * act_next + neg_f0 * _fp_poly(t, c, c_sq, quarter_fpmax))
        load = load - damping * qdot
        if gravity is not None:
            load = load - gravity * np.sin(q)
        np.add(qdot, dt * (load / inertia), out=qdot_next)
        np.add(q, dt * qdot_next, out=q_next)

    return step


def _simulate(plant: Plant, state: PlantState, ctrl_traj: np.ndarray, dt):
    """Step from ``state`` through each control row; ``(q, qdot, act)`` logs.

    Row ``t`` of each log is the state before step ``t`` and the last row
    the state after the last step; the step writes each row in place. The
    loop checks nothing; one pass over the pose log afterwards raises what
    checking each step would have. A non-finite velocity always makes the
    next pose non-finite (``dt > 0``), so the poses cover both. The tendon
    lengths are checked on every pose before the first non-finite one and on
    no later pose, as checking each step would have stopped there.

    Raises:
        PlantError: naming the tendon and the frame (the log row) where a
            tendon length is first non-positive, or if the state goes
            non-finite before any tendon does.
    """
    n = ctrl_traj.shape[0]
    q = np.empty((n + 1, plant.njoints))
    qdot = np.empty((n + 1, plant.njoints))
    act = np.empty((n + 1, plant.nactuators))
    q[0], qdot[0], act[0] = state.q, state.qdot, state.act
    step = _stepper(plant, np.asarray(dt, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in zip(q, qdot, act, ctrl_traj, q[1:], qdot[1:], act[1:]):
            step(*rows)
        finite = np.isfinite(q).all(axis=1)
        diverged = not finite.all()
        valid = q[: int(np.argmin(finite))] if diverged else q
        _check_lengths(plant, plant.length_offsets - valid @ plant.moment_arms)
    if diverged:
        raise PlantError("simulation diverged to a non-finite state")
    return q, qdot, act


def differentiate(q_traj, dt: float):
    """Velocities and accelerations with the semi-implicit Euler stencils.

    Time runs along axis 0. The velocity is the backward difference
    ``qdot_t = (q_t - q_{t-1}) / dt``, with ``qdot_0 = 0`` (a start from
    rest), and the acceleration the forward difference of the velocity,
    ``qddot_t = (qdot_{t+1} - qdot_t) / dt``, with the last frame copied.
    They invert the two updates of the step (:func:`_stepper`), ``qdot' =
    qdot + dt * qddot`` and ``q' = q + dt * qdot'``: on a trajectory logged
    by :func:`rollout` from rest they give, to round-off, the logged pre-step
    velocities and the accelerations each step applied.

    Raises:
        ValueError: for fewer than 3 frames or a ``dt`` that is not positive
            and finite.
    """
    q = np.asarray(q_traj, dtype=float)
    if q.shape[0] < 3:
        raise ValueError("need at least 3 frames to differentiate")
    _require_positive("dt", dt)
    qdot = np.zeros_like(q)
    qdot[1:] = (q[1:] - q[:-1]) / dt
    qddot = np.empty_like(q)
    qddot[:-1] = (qdot[1:] - qdot[:-1]) / dt
    qddot[-1] = qddot[-2]
    return qdot, qddot


def forward_step(plant: Plant, state: PlantState, ctrl, dt: float) -> PlantState:
    """Advance the plant one semi-implicit Euler step under a control vector.

    Activations update first (smoothed time constants), forces are evaluated
    at the pre-step pose, and the velocity update precedes the position
    update. It is a one-row :func:`rollout` that returns the state after the
    step.

    Raises:
        ValueError: for a control outside [0, 1] or NaN, a ``ctrl`` that is
            not one entry per actuator, a ``state`` whose sizes do not match
            the plant, or a ``dt`` that is not positive and finite.
        PlantError: if a tendon length is non-positive at the given pose
            (named frame 0) or the stepped one (frame 1), or the state goes
            non-finite.
    """
    ctrl = _check_step_args(plant, state, "ctrl", ctrl, dt)
    q, qdot, act = _simulate(plant, state, ctrl[np.newaxis], dt)
    return PlantState(q=q[1], qdot=qdot[1], act=act[1])


def rollout(plant: Plant, state: PlantState, ctrl_traj, dt: float) -> PlantState:
    """Apply a control trajectory row by row, logging the pre-step states.

    Returns a :class:`PlantState` log: row ``t`` of its ``q``, ``qdot`` and
    ``act`` is the state before control row ``t``. ``dt`` and the whole
    control trajectory are checked once, then each row is applied by the
    same step as :func:`forward_step`, on plain arrays, so the rows match a
    loop over :func:`forward_step` bit for bit.

    Raises:
        ValueError: before the first step, for any control outside [0, 1]
            or NaN, a ``ctrl_traj`` that is not ``(nframes, nactuators)``, a
            ``state`` whose sizes do not match the plant, or a ``dt`` that is
            not positive and finite.
        PlantError: after the last step, if a tendon length is non-positive
            at some pose, the final one included (the message names the
            tendon and the first such frame), or the state went non-finite.
    """
    ctrl_traj = _check_step_args(plant, state, "ctrl_traj", ctrl_traj, dt)
    q, qdot, act = _simulate(plant, state, ctrl_traj, dt)
    return PlantState(q=q[:-1], qdot=qdot[:-1], act=act[:-1])


def _natural_cubic_spline(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Natural cubic spline through knots ``(x, y[i])``, evaluated at times ``t``.

    ``x`` is increasing with at least 2 entries, ``y`` holds one row per
    knot and ``t`` is non-decreasing within ``[x[0], x[-1]]``. The knot
    second derivatives solve the tridiagonal continuity system with zero end
    values by one forward and one backward sweep, in O(len(x)) time and
    memory; each piece is then evaluated in Horner form from its left knot.
    Matches ``scipy.interpolate.CubicSpline(x, y, bc_type="natural")`` to
    round-off.
    """
    h = np.diff(x)
    slope = np.diff(y, axis=0) / h[:, None]
    # Interior row j: h[j] m[j] + 2 (h[j] + h[j+1]) m[j+1] + h[j+1] m[j+2] = rhs[j].
    # Scalars stay Python floats: numpy scalar arithmetic is slower, not different.
    step = h.tolist()
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    rhs = 6.0 * np.diff(slope, axis=0)
    for j in range(1, len(rhs)):
        w = step[j] / diag[j - 1]
        diag[j] -= w * step[j]
        rhs[j] -= w * rhs[j - 1]
    m = np.zeros_like(y)
    for j in range(len(rhs) - 1, -1, -1):
        m[j + 1] = (rhs[j] - step[j + 1] * m[j + 2]) / diag[j]

    # Piece i covers x[i] <= t < x[i+1] (the last one also t == x[-1]) and
    # is y[i] + b (c1 + b (c2 + b c3)) with b = t - x[i].
    c1 = slope - h[:, None] * (2.0 * m[:-1] + m[1:]) / 6.0
    c2 = 0.5 * m[:-1]
    c3 = np.diff(m, axis=0) / (6.0 * h[:, None])
    bounds = [0, *np.searchsorted(t, x[1:-1]).tolist(), len(t)]
    out = np.empty((len(t), y.shape[1]))
    for i in range(len(h)):
        lo, hi = bounds[i], bounds[i + 1]
        b = (t[lo:hi] - x[i])[:, None]
        out[lo:hi] = y[i] + b * (c1[i] + b * (c2[i] + b * c3[i]))
    return out


def smooth_random_controls(
    nactuators: int,
    nframes: int,
    dt: float,
    seed: int,
    settle: float = 0.0,
) -> np.ndarray:
    """Seeded band-limited random control trajectory in [0, 1].

    Uniform random knots, about two a second, joined by a natural cubic
    spline and clipped to the unit interval. With ``settle > 0`` a smoothstep envelope fades the
    controls to exactly zero over that many seconds at both ends, so the
    plant starts and finishes at rest (filter-friendly session edges);
    ``settle = 0`` applies no envelope. Deterministic for a fixed seed.

    Raises:
        ValueError: ``"<name> must be an integer of at least <minimum>, got
            <value!r>"`` for an ``nactuators``, ``nframes`` or ``seed`` that
            is not an integer of at least 1, 2 or 0 respectively (a bool, a
            float such as ``100.0`` and ``None`` are not: ``None`` would draw
            OS entropy and ``True`` act as 1); or for a ``dt`` that is not a
            positive and finite number, or a ``settle`` that is not a
            non-negative and finite number.
    """
    _require_int("nactuators", nactuators, 1)
    _require_int("nframes", nframes, 2)
    _require_positive("dt", dt)
    if not (_is_number(settle) and math.isfinite(settle) and settle >= 0.0):
        raise ValueError(f"settle must be non-negative and finite, got {settle!r}")
    _require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    duration = (nframes - 1) * dt
    nknots = max(4, int(round(duration * 2.0)) + 2)
    knot_times = np.linspace(0.0, duration, nknots)
    knots = rng.uniform(0.0, 1.0, size=(nknots, nactuators))
    times = np.arange(nframes) * dt
    ctrl = np.clip(_natural_cubic_spline(knot_times, knots, times), 0.0, 1.0)
    if settle > 0.0:
        envelope = smoothstep(times / settle) * smoothstep((duration - times) / settle)
        # The smoothstep exceeds 1 by round-off just below 1; the bound keeps
        # every other control's bits.
        ctrl = np.minimum(ctrl * envelope[:, None], 1.0)
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
    if not (_is_integer(njoints) and _is_integer(nactuators) and 1 <= njoints <= nactuators // 2):
        raise PlantError("random fixture needs integers njoints >= 1 and nactuators >= "
                         f"2 * njoints, got njoints={njoints!r}, nactuators={nactuators!r}")
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

    Raises:
        PlantError: for an unknown kind, or a ``random`` plant without both
            dimensions, or with either one not an integer (a bool or a float
            such as ``2.0`` included), ``njoints < 1`` or fewer than ``2 *
            njoints`` actuators; the message gives both dimensions.
        ValueError: ``"seed must be an integer of at least 0, got
            <seed!r>"`` for a ``random`` plant whose ``seed`` is not one
            (``None`` or a bool included).
    """
    if kind == "toy_finger":
        return _toy_finger()
    if kind == "hand_like":
        return _hand_like()
    if kind == "random":
        _require_int("seed", seed, 0)
        return _random_plant(seed, njoints, nactuators)
    raise PlantError(f"unknown fixture kind {kind!r}")


# ---------------------------------------------------------------------------
# Plant definition files


def _write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON with a trailing newline to a temporary
    sibling, then rename it onto ``path``, so readers see the old file or
    the new one, never a partial write. A failed write or rename removes the
    temporary file and raises."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        tmp.write_bytes((json.dumps(doc, indent=2) + "\n").encode())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _whole_number(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``, if it is a whole number of at least ``minimum``.

    Raises:
        ValueError: naming ``name``, for anything but a finite whole number
            (``2000`` or ``2000.0``, not ``True`` or ``"2000"``) of at least
            ``minimum``.
    """
    if not (np.ndim(value) == 0 and _is_number(value) and math.isfinite(value)
            and value == int(value) and value >= minimum):
        raise ValueError(f"{name!r} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


def _record(cls, entry: dict):
    """A ``cls`` dataclass built from the entry's values for its fields."""
    return cls(**{f.name: entry[f.name] for f in fields(cls)})


def save_plant(plant: Plant, path) -> None:
    """Write a plant definition as a versioned JSON document, atomically."""
    _write_json(path, {
        "format": PLANT_FORMAT,
        "name": plant.name,
        "njoints": plant.njoints,
        "nactuators": plant.nactuators,
        "joint_names": list(plant.joint_names),
        "actuator_names": list(plant.actuator_names),
        **{attr: getattr(plant, attr).ravel().tolist() for attr in _ARRAYS},
        "muscles": [
            {**asdict(p), **asdict(g)} for p, g in zip(plant.params, plant.geometry)
        ],
    })


def load_plant(path) -> Plant:
    """Read a plant definition written by :func:`save_plant`.

    Raises:
        OSError: if the file cannot be read, such as a missing file.
        PlantFormatError: for text that is not JSON, a wrong format header
            or a malformed document, such as a missing field, a joint or
            actuator count that is not a whole number of at least 1 or
            differs from the number of names, or an array entry or muscle
            field that is not a number (``true`` and ``"0.02"`` are not);
            the message names the field.
        PlantError: for a well-formed document describing an invalid plant.
        Either error names the field that holds a NaN or infinite number.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlantFormatError(f"cannot parse plant file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != PLANT_FORMAT:
        raise PlantFormatError(
            f"plant file {path} is not in the expected {PLANT_FORMAT} format"
        )
    try:
        nj, na = (_whole_number(key, doc[key], 1) for key in ("njoints", "nactuators"))
        for key, count, names in (("njoints", nj, "joint_names"),
                                  ("nactuators", na, "actuator_names")):
            if count != len(doc[names]):
                raise ValueError(f"{key!r} is {count} but {names!r} has {len(doc[names])} names")
        arrays = {attr: doc[attr] for attr in _ARRAYS}
        for attr, value in arrays.items():
            if not _is_number(value):
                raise ValueError(f"{attr!r} must hold only numbers (not bools or strings)")
        arrays["moment_arms"] = np.asarray(arrays["moment_arms"], dtype=float).reshape(nj, na)
        muscles = doc["muscles"]
        return Plant(
            name=str(doc.get("name", Path(path).stem)),
            joint_names=tuple(doc["joint_names"]),
            actuator_names=tuple(doc["actuator_names"]),
            params=tuple(_record(MuscleParams, entry) for entry in muscles),
            geometry=tuple(_record(MuscleGeometry, entry) for entry in muscles),
            **arrays,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, PlantError):
            raise
        raise PlantFormatError(f"plant file {path} is malformed: {exc}") from exc
