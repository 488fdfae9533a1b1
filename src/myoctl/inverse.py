"""Trajectory inversion that reproduces the forward model exactly.

One forward step (:func:`myoctl.plant._stepper`) advances the activation by
``act' = f(act, ctrl)``, the simulator's own
:func:`~myoctl.muscle._step_activation`, and then applies the joint
torque ``moment_arms @ (gain * act' + bias)``. ``f`` is monotone in the
control, so controls in [0, 1] reach exactly the activations in
``[f(act, 0), f(act, 1)]``. In the force-space variable ``x = gain * (act' -
act)`` the force balance is linear, and each frame is a bounded linear
least-squares problem on the moment-arm matrix, ``min ||moment_arms @ x +
k||`` over the box those bounds give, solved by bounded-variable least
squares. The next activation is ``act + x / gain``, clamped to its bounds; a
dead (zero-gain) actuator keeps its activation.

A trajectory is inverted in three passes. Everything that depends only on
the joint motion (the integrator's difference stencils of
:func:`myoctl.plant.differentiate`, tendon kinematics, muscle gain and
bias, the required generalized force, the activation-free part of each
frame's force gap and each frame's failure threshold) is
computed and checked once on the whole ``(nframes, ...)`` arrays, and a
frame that fails a check raises a ``ValueError`` naming it. The sequential
loop then keeps only what depends on the running activation, which starts
from zero: the frame's activation bounds and box, the solve, and the next
activation. The loop advances several trajectories (lanes) of one plant
together on ``(lanes, nact)`` stacks, the longest first, each lane while
its frames last; a single trajectory is the one-lane case. Each frame is
one call of :func:`invert_frame`, the module's one frame function, which
computes for every lane at once the force gap, the bounds and the box,
solves the lanes' problems in one
:meth:`~myoctl.qp.BvlsSolver.solve` call on the stack, by one solver bound
to the moment arms (so a free set's cached pseudo-inverse serves every
frame that meets it, and no per-frame problem object is built or checked),
and clamps the next activations. A lane's outputs are bit for bit the same
whichever lanes share its loop. The loop logs each frame's activations and
solutions and nothing else. After it, every frame's problem is rebuilt from
the activation log by the helper the frame used (:func:`_frame_problem`),
and :meth:`~myoctl.qp.BvlsSolver.check` judges every solve on ``(frames,
lanes)`` stacks of a fixed number of frames, which bounds its temporaries;
its residual vectors ``A x - b`` are reduced to each frame's residual. A
last vectorized pass per lane recovers every frame's control from
its pair of activations: it returns what 53 bisections of [0, 1] on ``f``
would, starting from a short dyadic interval around a Newton estimate of
the control (see :func:`_recover_ctrl`). Replaying the controls from rest
therefore reproduces the inversion's activations, and a trajectory the
forward model produced at the same rate, to round-off. A returned
inversion's status is failed only when more than 1 % of its frames are
infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .muscle import _require_positive, _step_activation, _time_constant
from .plant import Plant, differentiate, inverse_dynamics, tendon_kinematics, _gain_bias, _normalized
from .qp import BvlsSolver

# bench/spans.py patches these names in this module, so they must stay
# importable here.
from .muscle import step_activation  # noqa: F401
from .qp import solve_box_qp  # noqa: F401

__all__ = [
    "TrajectoryInversion",
    "RoundTripReport",
    "invert_trajectory",
    "roundtrip",
    "MIN_FRAMES",
    "CAUSES",
]

_ZERO_GAIN = 1e-12
# The status rule: a frame is infeasible when its force residual exceeds
# _FAIL_THRESHOLD * max(1, ||q_frc||_inf) or its solve does not converge, and
# a trajectory fails when more than _MAX_INFEASIBLE_FRACTION of its frames are.
_FAIL_THRESHOLD = 1e-3
_MAX_INFEASIBLE_FRACTION = 0.01
# Controls 0 and 1; one activation step from them gives the bounds of the
# next activations.
_CTRL_EDGES = np.array([0.0, 1.0])
# Halvings of [0, 1] in control recovery: the midpoints are multiples of
# 2**-53, the spacing of doubles just below 1.
_BISECTIONS = 53
# Control recovery starts bisecting from the dyadic interval of width
# 2**-_SEED_LEVEL (about 9e-13) that holds a Newton estimate of the control,
# taken in this many Newton steps. An estimate that lands in another interval
# than the result only costs that entry the full bisection.
_SEED_LEVEL = 40
_NEWTON_STEPS = 4
# Frames whose problems one check call judges after the frame loop: the
# check's temporaries are several (frames, lanes, nact) arrays, so blocks
# keep them bounded however long the trajectories are.
_CHECK_FRAMES = 128
# Fewest frames a trajectory needs: the acceleration stencil spans three.
MIN_FRAMES = 3
# What each per-frame cause code in TrajectoryInversion.causes means.
CAUSES = ("ok", "unreachable force", "not converged")
_UNREACHABLE, _NOT_CONVERGED = 1, 2


@dataclass(frozen=True, eq=False)
class TrajectoryInversion:
    """Outcome of inverting a joint trajectory.

    ``causes`` holds one code per frame, an index into :data:`CAUSES`: 0 ok,
    1 unreachable force (the residual exceeds the frame's threshold), 2
    solver not converged. Its nonzero count is ``infeasible_frames``.
    ``status`` is ``"failed"`` only when more than 1 % of the frames are infeasible.
    """

    ctrl: np.ndarray
    residuals: np.ndarray
    act: np.ndarray
    status: str
    failure_reason: str | None
    infeasible_frames: int
    iterations: np.ndarray
    causes: np.ndarray


def _live(gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gain with each unusable entry set to 0, and the same set to 1."""
    live = np.abs(gain) >= _ZERO_GAIN
    return np.where(live, gain, 0.0), np.where(live, gain, 1.0)


def _gap_base(moment_arms, gain, bias, q_frc) -> tuple[np.ndarray, np.ndarray]:
    """The force gap's activation-free part and where the gap can overflow.

    Returns ``bias @ moment_arms' - q_frc`` and a flag per row (per frame)
    that is set where ``|gain| @ |moment_arms|' + |gap_base|``, a bound on
    the force gap ``moment_arms @ (gain * act) + gap_base`` for every
    activation in [0, 1], is not finite.
    """
    with np.errstate(over="ignore"):
        gap_base = bias @ moment_arms.T - q_frc
        bound = np.abs(gain) @ np.abs(moment_arms.T) + np.abs(gap_base)
    return gap_base, ~np.isfinite(bound).all(axis=-1)


def _frame_problem(A, act, gain, gap_base, live_gain, filter_args):
    """The bounded least-squares problems of frames whose activations are ``act``.

    ``act``, ``gain`` and ``live_gain`` are ``(..., nact)`` stacks and
    ``gap_base`` is ``(..., njoints)``, one problem per row. Returns ``(b,
    lb, ub, bounds)``: ``b`` is minus the force gap ``A @ (gain * act) +
    gap_base``, a stacked-column product, which gives each row the bits of
    its own matrix-vector product; ``bounds`` (``(2, ..., nact)``) are the
    activation step's results under controls 0 and 1 (``filter_args`` are
    its ``(dt, tau_act, tau_deact, tau_smooth)``), which bound the next
    activation; and the bounds map through the non-positive ``live_gain``
    to the box ``[lb, ub]`` of ``x = gain * (act' - act)``, where a dead
    actuator's edges are both 0, which pins its ``x``.
    """
    gap = (A @ (gain * act)[..., None])[..., 0] + gap_base
    bounds = _step_activation(act, _CTRL_EDGES.reshape((2,) + (1,) * act.ndim), *filter_args)
    # Control 0 gives the lower activation bound and the upper edge of x.
    ub, lb = live_gain * (bounds - act)
    return -gap, lb, ub, bounds


def invert_frame(solver, act, gain, gap_base, live_gain, safe_gain, filter_args):
    """One frame's step for a ``(lanes, nact)`` stack of activations.

    Returns ``(act_next, x, iterations)``, one row per lane. The frame's
    problems are :func:`_frame_problem`'s, and one ``solver.solve`` call
    (``solver`` is bound to the moment arms) solves every lane. The next
    activation is ``act + x / gain`` clamped to the activation bounds, which
    a dead actuator's ``safe_gain`` of 1 and pinned ``x`` keep at ``act``.
    Whether each solve converged, and its residual, are judged after the
    loop (see :func:`_invert_lanes`).

    It has a public name because :func:`_invert_lanes` looks it up by that
    module-global name on every frame, so a wrapper set on
    ``myoctl.inverse.invert_frame`` (the benchmark tracer's frame span) sees
    each frame that runs. It takes unchecked arrays, so it is not in ``__all__``.
    """
    b, lb, ub, bounds = _frame_problem(solver.A, act, gain, gap_base, live_gain, filter_args)
    x, iterations = solver.solve(b, lb, ub)
    act_next = np.minimum(np.maximum(act + x / safe_gain, bounds[0]), bounds[1])
    return act_next, x, iterations


def _reject_frames(what: str, bad: np.ndarray) -> None:
    """Raise ``ValueError(f"{what} {frame}")`` for the first flagged frame, if any."""
    if bad.any():
        raise ValueError(f"{what} {int(np.argmax(bad))}")


def _bisect(act, act_next, lo, level, filter_args):
    """Bisect ``[lo, lo + 2**-level]`` on the step down to width ``2**-53``.

    Each pass keeps the upper half when the step from the midpoint falls
    short of ``act_next`` and the lower half otherwise; the upper end of the
    last bracket is returned. ``lo`` is a multiple of ``2**-level``, so
    every midpoint is exact, and from ``lo = 0`` at level 0 the passes are
    those of a plain bisection of [0, 1].
    """
    for k in range(level + 1, _BISECTIONS + 1):
        mid = lo + 2.0**-k
        lo = np.where(_step_activation(act, mid, *filter_args) < act_next, mid, lo)
    return lo + 2.0**-_BISECTIONS


def _estimate_ctrl(act, act_next, dt, tau_act, tau_deact, tau_smooth):
    """Control whose unclamped step takes ``act`` to ``act_next``, to round-off.

    The step is ``act' = act + dt * e / tau(e)`` with ``e = ctrl - act``.
    Outside the blend window ``|e| >= tau_smooth / 2`` the time constant is
    ``tau_act`` or ``tau_deact``, and ``e = r * tau`` with ``r = (act' -
    act) / dt``; inside it, Newton steps on ``e - r * tau(e)`` from the
    window's middle time constant find ``e`` (one step, when the constants
    are equal). An ``act'`` of 0, which a step clamped at 0 reaches from a
    range of controls, gives control 0. Where Newton fails the estimate may
    be wrong or NaN; :func:`_recover_ctrl`'s check catches both.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rate = (act_next - act) / dt
        half = 0.5 * tau_smooth
        stretch = rate * (tau_act - tau_deact) * (30.0 / tau_smooth)
        e = np.minimum(np.maximum(rate * (0.5 * (tau_act + tau_deact)), -half), half)
        for _ in range(_NEWTON_STEPS):
            u = e / tau_smooth + 0.5
            # d/de of e - r * tau(e); the smoothstep's slope is 30 u^2 (1 - u)^2.
            slope = 1.0 - stretch * (u * (1.0 - u)) ** 2
            e = e - (e - rate * _time_constant(e, tau_act, tau_deact, tau_smooth)) / slope
            e = np.minimum(np.maximum(e, -half), half)
        rise, fall = rate * tau_act, rate * tau_deact
        e = np.where(rise >= half, rise, np.where(fall <= -half, fall, e))
        ctrl = np.where(act_next > 0.0, act + e, 0.0)
    return np.minimum(np.maximum(ctrl, 0.0), 1.0)


def _recover_ctrl(act, act_next, dt, tau_act, tau_deact, tau_smooth):
    """Controls in [0, 1] whose activation step takes ``act`` to ``act_next``.

    The result is that of 53 bisections of [0, 1] on the step, which is
    monotone in the control: the upper end of the last bracket, a multiple
    of ``2**-53`` whose step reaches ``act_next``, the least such wherever
    the step is strictly increasing. Each entry starts instead from the
    dyadic interval of width ``2**-40`` that holds its Newton estimate
    (:func:`_estimate_ctrl`). When the step from the interval's lower end
    falls short of ``act_next`` and the step from its upper end does not
    (an end at 0 or 1 passes, as the full bisection tests neither), a
    monotone step leads the full bisection into the same interval, so 13
    passes from there return its result; an entry that fails the check
    runs all 53. The arguments broadcast together, for example
    ``(nframes, nact)`` activations with per-muscle time constants.
    """
    # The time constants at full shape, once: an elementwise call that
    # broadcasts a (nact,) operand across the frames costs several times more.
    taus = (tau_act, tau_deact, tau_smooth)
    shape = np.broadcast_shapes(*map(np.shape, (act, act_next, dt, *taus)))
    filter_args = (dt, *(np.broadcast_to(tau, shape).copy() for tau in taus))
    width = 2.0**-_SEED_LEVEL
    # The estimate has the arguments' broadcast shape, and so has lo.
    lo = np.minimum(np.floor(_estimate_ctrl(act, act_next, *filter_args) / width),
                    2.0**_SEED_LEVEL - 1.0) * width
    ends = np.stack((lo, lo + width))
    short = _step_activation(act, ends, *filter_args) < act_next
    seeded = (short[0] | (ends[0] == 0.0)) & ~(short[1] & (ends[1] < 1.0))
    ctrl = np.asarray(_bisect(act, act_next, lo, _SEED_LEVEL, filter_args))
    if not seeded.all():
        rest = [np.broadcast_to(v, lo.shape)[~seeded] for v in (act, act_next) + filter_args]
        ctrl[~seeded] = _bisect(rest[0], rest[1], 0.0, 0, rest[2:])
    return ctrl


@dataclass(frozen=True, eq=False)
class _Lane:
    """One checked trajectory, ready for the frame loop: every per-frame term
    that does not depend on the activation (see :func:`_prepare`)."""

    dt: float
    gain: np.ndarray
    gap_base: np.ndarray
    thresholds: np.ndarray

    @property
    def nframes(self) -> int:
        return self.gain.shape[0]


def _prepare(plant: Plant, q_traj, rate_hz: float) -> _Lane:
    """The up-front pass over one trajectory; raises what :func:`invert_trajectory` does.

    It differentiates the trajectory with the integrator's stencils,
    evaluates tendon kinematics, muscle gain/bias and the generalized force,
    and checks, for every frame at once, what does not depend on the
    activation (finite values, ``gain <= 0``, a force gap that stays finite
    for every activation in [0, 1]).
    """
    q = np.atleast_2d(np.asarray(q_traj, dtype=float))
    if q.ndim != 2 or q.shape[1] != plant.njoints:
        raise ValueError(f"q_traj has shape {np.shape(q_traj)}; "
                         f"the plant needs (nframes, {plant.njoints})")
    if q.shape[0] < MIN_FRAMES:
        raise ValueError(f"need at least {MIN_FRAMES} frames to invert a trajectory")
    _require_positive("rate_hz", rate_hz)
    _reject_frames("non-finite input at frame", ~np.isfinite(q).all(axis=1))

    dt = 1.0 / rate_hz
    qdot, qddot = differentiate(q, dt)
    lengths, velocities = tendon_kinematics(plant, q, qdot)
    gain, bias = _gain_bias(plant, *_normalized(plant, lengths, velocities))
    q_frc = inverse_dynamics(plant, q, qdot, qddot)
    for label, values in (("muscle gain", gain), ("muscle bias", bias),
                          ("generalized force", q_frc)):
        _reject_frames(f"non-finite {label} at frame", ~np.isfinite(values).all(axis=1))
    _reject_frames("gain must be non-positive (muscles only pull); frame",
                   (gain > 0.0).any(axis=1))
    gap_base, overflows = _gap_base(plant.moment_arms, gain, bias, q_frc)
    _reject_frames("force gap overflows for some activation in [0, 1]; frame", overflows)
    return _Lane(dt, gain, gap_base, _FAIL_THRESHOLD * np.maximum(1.0, np.abs(q_frc).max(axis=1)))


def _invert_lanes(plant: Plant, lanes: list[_Lane]) -> list[TrajectoryInversion]:
    """Invert prepared trajectories of one plant together, in one frame loop.

    Frames ``[start, stop)`` advance the lanes that still have frames, the
    longest first, on ``(lanes, nact)`` stacks (see the module docstring).
    One solver serves every lane. After the loop, one check per block of
    ``_CHECK_FRAMES`` frames judges the solves of every lane: past a lane's
    end its gain, gap base and solution are 0, a problem the check passes
    over harmlessly and whose verdict no lane reads. The lanes must share one
    rate; a ``ValueError`` says so otherwise.
    """
    dt = lanes[0].dt
    if any(lane.dt != dt for lane in lanes):
        raise ValueError("lanes inverted together must share one rate")
    filter_args = (np.asarray(dt), *plant._muscle.taus)
    order = sorted(range(len(lanes)), key=lambda i: -lanes[i].nframes)
    nframes = lanes[order[0]].nframes

    def stack(attr, width):
        # (nframes, lanes, width), lanes longest first; zero past a lane's end.
        out = np.zeros((nframes, len(lanes), width))
        for j, i in enumerate(order):
            out[:lanes[i].nframes, j] = getattr(lanes[i], attr)
        return out

    nact, njoints = plant.nactuators, plant.njoints
    gain, gap_base = stack("gain", nact), stack("gap_base", njoints)
    live_gain, safe_gain = _live(gain)
    solver = BvlsSolver(plant.moment_arms)

    # Row t is the activation before frame t's step; row t + 1, after it.
    act = np.zeros((nframes + 1, len(lanes), nact))
    x = np.zeros((nframes, len(lanes), nact))
    iterations = np.zeros((nframes, len(lanes)), dtype=int)
    start = 0
    for k in range(len(lanes), 0, -1):
        # Frames [start, stop) run the k longest lanes.
        stop = lanes[order[k - 1]].nframes
        if stop <= start:
            continue
        g, gb, lg, sg, a_, x_, it_ = (v[:, :k] for v in (
            gain, gap_base, live_gain, safe_gain, act, x, iterations))
        for t in range(start, stop):
            a_[t + 1], x_[t], it_[t] = invert_frame(
                solver, a_[t], g[t], gb[t], lg[t], sg[t], filter_args)
        start = stop
    converged = np.empty((nframes, len(lanes)), dtype=bool)
    residual_max = np.empty((nframes, len(lanes)))
    for first in range(0, nframes, _CHECK_FRAMES):
        block = slice(first, min(first + _CHECK_FRAMES, nframes))
        b, lb, ub, _ = _frame_problem(solver.A, act[block], gain[block], gap_base[block],
                                      live_gain[block], filter_args)
        converged[block], residual = solver.check(x[block], b, lb, ub)
        residual_max[block] = np.abs(residual).max(axis=-1)

    results = [None] * len(lanes)
    for j, i in enumerate(order):
        lane = lanes[i]
        n = lane.nframes
        lane_act = act[:n + 1, j]
        residuals = residual_max[:n, j]
        causes = np.where(converged[:n, j],
                          np.where(residuals <= lane.thresholds, 0, _UNREACHABLE),
                          _NOT_CONVERGED).astype(np.int8)
        infeasible = int(np.count_nonzero(causes))
        failed = infeasible > _MAX_INFEASIBLE_FRACTION * n
        results[i] = TrajectoryInversion(
            ctrl=_recover_ctrl(lane_act[:-1], lane_act[1:], *filter_args),
            residuals=residuals,
            act=lane_act[:-1],
            status="failed" if failed else "ok",
            failure_reason=f"{infeasible} of {n} frames infeasible" if failed else None,
            infeasible_frames=infeasible,
            iterations=iterations[:n, j],
            causes=causes,
        )
    return results


def invert_trajectory(plant: Plant, q_traj, rate_hz: float) -> TrajectoryInversion:
    """Recover per-muscle controls along a joint-angle trajectory.

    The trajectory is prepared and checked in one array pass
    (:func:`_prepare`) and inverted as the one lane of the frame loop
    (:func:`_invert_lanes`), from zero activation; see the module
    docstring. A frame counts as infeasible when its force residual exceeds
    ``1e-3 * max(1, ||q_frc||_inf)`` or its solve does not converge, and its
    cause code says which (see :class:`TrajectoryInversion`); the trajectory
    fails when more than 1 % of its frames are infeasible. Both limits are
    fixed, so every caller labels a trajectory by the same rule.

    The loop checks no frame's problem, because the up-front checks make
    every frame's problem valid: the moment arms are checked finite when
    the solver is built; the force gap (the solve's ``b``) is finite
    because gain, bias and the generalized force are checked finite and the
    gap's bound over activations in [0, 1] is checked finite; the box edges
    ``gain * (f(act, 1) - act)`` and ``gain * (f(act, 0) - act)`` are
    finite because the gain is and activations stay in [0, 1] (the step
    clamps to [0, 1] and the next activation is clamped to the step's
    bounds); and the lower edge never exceeds the upper one because the
    step is monotone in the control and ``gain <= 0``.

    Raises:
        ValueError: for a ``q_traj`` that is not ``(nframes, njoints)``,
            fewer than :data:`MIN_FRAMES` frames, a rate that is not
            positive and finite, or a frame
            whose pose, muscle forces or generalized force are non-finite,
            whose muscles push, or whose force gap can overflow (the message
            names the first such frame).
        PlantError: if a frame puts a tendon at non-positive length; the
            message names the tendon and the frame.
    """
    return _invert_lanes(plant, [_prepare(plant, q_traj, rate_hz)])[0]


@dataclass(frozen=True, eq=False)
class RoundTripReport:
    """Simulate / invert / re-simulate comparison for one plant."""

    rmse: float
    max_residual: float
    status: str
    frames: int
    infeasible_frames: int
    reference_q: np.ndarray
    replayed_q: np.ndarray
    recovered_ctrl: np.ndarray


def roundtrip(
    plant: Plant,
    seed: int = 1,
    duration: float = 2.0,
    rate_hz: float = 500.0,
) -> RoundTripReport:
    """Forward-simulate seeded controls, invert the motion, replay, compare.

    Both rollouts start from rest with zero activation; ``rmse`` is the
    root-mean-square joint-angle gap between the reference and replayed
    trajectories, and ``max_residual`` the largest per-frame force residual
    of the inversion.

    Raises:
        ValueError: for a rate or duration that is not positive and finite,
            or one that gives fewer than :data:`MIN_FRAMES` frames.
    """
    # bench/spans.py patches rollout in myoctl.plant, so the round trip looks
    # it up there at call time.
    from .plant import rest_state, rollout, smooth_random_controls

    _require_positive("rate_hz", rate_hz)
    _require_positive("duration", duration)
    dt = 1.0 / rate_hz
    nframes = int(round(duration * rate_hz))
    if nframes < MIN_FRAMES:
        raise ValueError(
            f"need at least {MIN_FRAMES} frames for a round trip; "
            f"{duration} s at {rate_hz} Hz gives {nframes}"
        )
    ctrl_ref = smooth_random_controls(plant.nactuators, nframes, dt, seed)
    reference = rollout(plant, rest_state(plant), ctrl_ref, dt)
    inversion = invert_trajectory(plant, reference.q, rate_hz)
    replayed = rollout(plant, rest_state(plant), inversion.ctrl, dt)
    rmse = float(np.sqrt(np.mean((replayed.q - reference.q) ** 2)))
    return RoundTripReport(
        rmse=rmse,
        max_residual=float(np.max(inversion.residuals)),
        status=inversion.status,
        frames=nframes,
        infeasible_frames=inversion.infeasible_frames,
        reference_q=reference.q,
        replayed_q=replayed.q,
        recovered_ctrl=inversion.ctrl,
    )
