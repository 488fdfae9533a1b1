"""Trajectory inversion that reproduces the forward model exactly.

One forward step (:func:`myoctl.plant._step`) advances the activation by
``act' = f(act, ctrl)``, the simulator's own
:func:`~myoctl.activation._step_activation`, and then applies the joint
torque ``moment_arms @ (gain * act' + bias)``. ``f`` is monotone in the
control, so controls in [0, 1] reach exactly the activations in
``[f(act, 0), f(act, 1)]``. In the force-space variable ``x = gain * (act' -
act)`` the force balance is linear, and each frame is a bounded linear
least-squares problem on the moment-arm matrix, ``min ||moment_arms @ x +
k||`` over the box those bounds give, solved by bounded-variable least
squares. The next activation is ``act + x / gain``, clamped to its bounds; a
dead (zero-gain) actuator keeps its activation.

A trajectory is inverted in three passes. Everything that depends only on
the joint motion (the integrator's difference stencils, tendon kinematics,
muscle gain and bias with dead actuators' gains zeroed, the required
generalized force, the activation-free part of each frame's force gap and
each frame's failure threshold) is computed and checked once on the whole
``(nframes, ...)`` arrays. The sequential loop then keeps only what depends
on the running activation, which starts from zero: the frame's activation
bounds, one :meth:`~myoctl.qp.BvlsSolver.solve` on plain arrays by a solver
bound to the moment arms for the whole trajectory (so each distinct free
set's pseudo-inverse is computed once, and no per-frame problem object is
built or checked), and the next activation. A last vectorized bisection on
``f`` recovers every frame's control from its pair of activations.
Replaying the controls from rest therefore reproduces the inversion's
activations, and a trajectory the forward model produced at the same rate,
to round-off. A trajectory fails once more than 1 % of its frames are
infeasible.

:func:`invert_frame` checks one frame's inputs (:class:`InverseInputs`) and
runs the same private kernels as the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# bench/spans.py patches step_activation and solve_box_qp in this module, so
# the names must stay importable here.
from .activation import _step_activation, step_activation  # noqa: F401
from .plant import Plant, inverse_dynamics, tendon_kinematics, _gain_bias, _normalized
from .qp import BvlsSolver, solve_box_qp  # noqa: F401
from .timeseries import differentiate

__all__ = [
    "InverseInputs",
    "FrameSolution",
    "TrajectoryInversion",
    "RoundTripReport",
    "invert_frame",
    "invert_trajectory",
    "roundtrip",
    "MIN_FRAMES",
]

_ZERO_GAIN = 1e-12
_MAX_INFEASIBLE_FRACTION = 0.01
# Controls 0 and 1 as a column: one activation step from an activation vector
# gives the (2, nact) bounds of the next activation.
_CTRL_EDGES = np.array([[0.0], [1.0]])
# Halvings of [0, 1] in control recovery: the midpoints are multiples of
# 2**-53, the spacing of doubles just below 1.
_BISECTIONS = 53
# Fewest frames a trajectory needs: the acceleration stencil spans three.
MIN_FRAMES = 3


@dataclass(frozen=True, eq=False)
class InverseInputs:
    """Everything needed to invert one frame.

    Attributes:
        moment_arms: (njoints, nactuators) transmission matrix.
        gain, bias: affine force decomposition at this frame (N, gain <= 0).
        act: current activation state in [0, 1].
        q_frc: target generalized force (N m).
        timestep: integration step (s).
        tau_act, tau_deact, tau_smooth: the activation filter's rise and
            fall time constants and switch width (s); scalars or
            per-muscle.

    Every entry must be finite; a ``ValueError`` names the first field that
    breaks a condition.
    """

    moment_arms: np.ndarray
    gain: np.ndarray
    bias: np.ndarray
    act: np.ndarray
    q_frc: np.ndarray
    timestep: float
    tau_act: float | np.ndarray
    tau_deact: float | np.ndarray
    tau_smooth: float | np.ndarray

    def __post_init__(self) -> None:
        taus = ("tau_act", "tau_deact", "tau_smooth")
        for attr in ("moment_arms", "gain", "bias", "act", "q_frc") + taus:
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), dtype=float))
        nj, na = self.moment_arms.shape
        if self.gain.shape != (na,) or self.bias.shape != (na,) or self.act.shape != (na,):
            raise ValueError("per-actuator vectors do not match the transmission width")
        if self.q_frc.shape != (nj,):
            raise ValueError("q_frc does not match the joint count")
        for attr in ("moment_arms", "gain", "bias", "act", "q_frc", "timestep") + taus:
            if not np.isfinite(getattr(self, attr)).all():
                raise ValueError(f"{attr} contains non-finite entries")
        for attr in ("timestep",) + taus:
            if not np.all(getattr(self, attr) > 0.0):
                raise ValueError(f"{attr} must be positive")
        if np.any(self.act < 0.0) or np.any(self.act > 1.0):
            raise ValueError("act must lie in [0, 1]")
        if np.any(self.gain > 0.0):
            raise ValueError("gain must be non-positive (muscles only pull)")


@dataclass(frozen=True, eq=False)
class FrameSolution:
    """Recovered controls for one frame plus the achieved force residual."""

    ctrl: np.ndarray
    x: np.ndarray
    residual: float
    converged: bool


@dataclass(frozen=True, eq=False)
class TrajectoryInversion:
    """Outcome of inverting a joint trajectory."""

    ctrl: np.ndarray
    residuals: np.ndarray
    act: np.ndarray
    status: str
    failure_reason: str | None
    infeasible_frames: int
    iterations: np.ndarray


def _live(gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Actuators with a usable gain, and the gain with every other one zeroed."""
    live = np.abs(gain) >= _ZERO_GAIN
    return live, np.where(live, gain, 0.0)


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


def _solve_frame(solver: BvlsSolver, act, gain, gap_base, live, live_gain, filter_args):
    """Gap, bound, box, solve, step: ``(act_next, x, residual, iterations, converged)``.

    The force gap is the torque at ``act`` minus the target, and
    ``filter_args`` the activation step's ``(dt, tau_act, tau_deact,
    tau_smooth)``. The step under controls 0 and 1 bounds the next
    activation; the bounds map through the non-positive ``live_gain`` to the
    box of ``x = gain * (act' - act)``, and a dead actuator's ``x`` is pinned
    at 0, so it keeps its activation. The solve runs on plain arrays, with
    no per-frame checks; the callers' checks make its inputs valid (see
    :func:`invert_trajectory`).
    """
    gap = solver.A @ (gain * act) + gap_base
    lo, hi = _step_activation(act, _CTRL_EDGES, *filter_args)
    x, iterations, converged = solver.solve(-gap, live_gain * (hi - act), live_gain * (lo - act))
    step = np.divide(x, live_gain, out=np.zeros(x.shape), where=live)
    act_next = np.minimum(np.maximum(act + step, lo), hi)
    residual = float(np.abs(solver.A @ x + gap).max())
    return act_next, x, residual, iterations, converged


def _check_fail_threshold(fail_threshold: float) -> None:
    if not (np.isfinite(fail_threshold) and fail_threshold > 0.0):
        raise ValueError("fail_threshold must be positive and finite")


def _bisect_ctrl(act, act_next, dt, tau_act, tau_deact, tau_smooth):
    """Controls in [0, 1] whose activation step takes ``act`` to ``act_next``.

    The step is monotone in the control, so bisection on ``[0, 1]``, all
    entries at once, brackets the least control that reaches ``act_next``
    and returns the bracket's upper end, whose step reaches it. The
    arguments broadcast together, for example ``(nframes, nact)``
    activations with per-muscle time constants.
    """
    lo = np.zeros(np.broadcast(act, act_next).shape)
    hi = np.ones(lo.shape)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        short = _step_activation(act, mid, dt, tau_act, tau_deact, tau_smooth) < act_next
        lo = np.where(short, mid, lo)
        hi = np.where(short, hi, mid)
    return hi


def invert_frame(inp: InverseInputs) -> FrameSolution:
    """Solve one frame: bounded least squares, next activation, control.

    The residual is ``||moment_arms @ x + k||_inf``; it is zero (within the
    solver tolerance) exactly when the target force is reachable this step.

    Raises:
        ValueError: if the force gap can overflow for some activation in
            [0, 1].
    """
    gap_base, overflows = _gap_base(inp.moment_arms, inp.gain, inp.bias, inp.q_frc)
    if overflows:
        raise ValueError("force gap overflows for some activation in [0, 1]")
    filter_args = (inp.timestep, inp.tau_act, inp.tau_deact, inp.tau_smooth)
    act_next, x, residual, _, converged = _solve_frame(
        BvlsSolver(inp.moment_arms), inp.act, inp.gain, gap_base, *_live(inp.gain),
        filter_args,
    )
    ctrl = _bisect_ctrl(inp.act, act_next, *filter_args)
    return FrameSolution(ctrl=ctrl, x=x, residual=residual, converged=converged)


def invert_trajectory(
    plant: Plant,
    q_traj,
    rate_hz: float,
    fail_threshold: float = 1e-3,
) -> TrajectoryInversion:
    """Recover per-muscle controls along a joint-angle trajectory.

    One array pass over all frames differentiates the trajectory with the
    integrator's stencils, evaluates tendon kinematics and muscle
    gain/bias, forms the required generalized force through the plant's
    inverse dynamics and the activation-free part of each frame's force
    gap, and checks once what does not depend on the activation (finite
    values, ``gain <= 0``, a force gap that stays finite for every
    activation in [0, 1]). A sequential loop, starting from zero
    activation, bounds each next activation by the plant's own activation
    step under controls 0 and 1, solves the frame's bounded least-squares
    problem with :meth:`~myoctl.qp.BvlsSolver.solve` of one solver bound to
    the moment arms (so each distinct free set's pseudo-inverse is computed
    once per trajectory) and takes the next activation from the solution.
    One bisection over the whole ``(nframes, nactuators)`` arrays then
    recovers the controls. A frame counts as infeasible when its force
    residual exceeds ``fail_threshold * max(1, ||q_frc||_inf)`` or its
    solve does not converge. Non-finite input fails the whole trajectory
    with the offending frame reported.

    The loop hands the solver plain arrays and checks none of them per
    frame, because the up-front checks make every frame's problem valid:
    the moment arms are checked finite when the solver is built; the force
    gap (the solve's ``b``) is finite because gain, bias and the
    generalized force are checked finite and the gap's bound over
    activations in [0, 1] is checked finite; the box edges
    ``gain * (f(act, 1) - act)`` and ``gain * (f(act, 0) - act)`` are
    finite because the gain is and activations stay in [0, 1] (the step
    clamps to [0, 1] and the next activation is clamped to the step's
    bounds); and the lower edge never exceeds the upper one because the
    step is monotone in the control and ``gain <= 0``.

    Raises:
        ValueError: for fewer than :data:`MIN_FRAMES` frames, a rate or
            ``fail_threshold`` that is not positive and finite, muscle
            forces that are non-finite or push, or a force gap that can
            overflow (the message names the frame).
        PlantError: if a frame puts a tendon at non-positive length; the
            message names the tendon and the frame.
    """
    q = np.atleast_2d(np.asarray(q_traj, dtype=float))
    if q.shape[0] < MIN_FRAMES:
        raise ValueError(f"need at least {MIN_FRAMES} frames to invert a trajectory")
    if not (np.isfinite(rate_hz) and rate_hz > 0.0):
        raise ValueError("rate_hz must be positive and finite")
    _check_fail_threshold(fail_threshold)
    nframes = q.shape[0]
    na = plant.nactuators

    if not np.isfinite(q).all():
        frame = int(np.argwhere(~np.isfinite(q).all(axis=1))[0, 0])
        return TrajectoryInversion(
            ctrl=np.zeros((nframes, na)),
            residuals=np.full(nframes, np.nan),
            act=np.zeros((nframes, na)),
            status="failed",
            failure_reason=f"non-finite input at frame {frame}",
            infeasible_frames=0,
            iterations=np.zeros(nframes, dtype=int),
        )

    dt = 1.0 / rate_hz
    qdot, qddot = differentiate(q, dt)
    lengths, velocities = tendon_kinematics(plant, q, qdot)
    gain, bias = _gain_bias(plant, *_normalized(plant, lengths, velocities))
    q_frc = inverse_dynamics(plant, q, qdot, qddot)
    for label, values in (("muscle gain", gain), ("muscle bias", bias),
                          ("generalized force", q_frc)):
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite {label} at frame {int(np.argmax(bad))}")
    pushing = (gain > 0.0).any(axis=1)
    if pushing.any():
        raise ValueError(
            f"gain must be non-positive (muscles only pull); frame {int(np.argmax(pushing))}"
        )
    moment_arms = plant.moment_arms
    gap_base, overflows = _gap_base(moment_arms, gain, bias, q_frc)
    if overflows.any():
        raise ValueError(
            "force gap overflows for some activation in [0, 1]; "
            f"frame {int(np.argmax(overflows))}"
        )
    live, live_gain = _live(gain)
    thresholds = fail_threshold * np.maximum(1.0, np.abs(q_frc).max(axis=1))
    solver = BvlsSolver(moment_arms)
    m = plant._muscle
    filter_args = (dt, m.tau_act, m.tau_deact, m.tau_smooth)

    # Row t is the activation before frame t's step; the last row, after it.
    act = np.zeros((nframes + 1, na))
    residuals = np.empty(nframes)
    iterations = np.zeros(nframes, dtype=int)
    converged = np.empty(nframes, dtype=bool)
    for t in range(nframes):
        act[t + 1], _, residuals[t], iterations[t], converged[t] = _solve_frame(
            solver, act[t], gain[t], gap_base[t], live[t], live_gain[t], filter_args
        )
    infeasible = int(np.count_nonzero(~(converged & (residuals <= thresholds))))

    failed = infeasible > _MAX_INFEASIBLE_FRACTION * nframes
    return TrajectoryInversion(
        ctrl=_bisect_ctrl(act[:-1], act[1:], *filter_args),
        residuals=residuals,
        act=act[:-1],
        status="failed" if failed else "ok",
        failure_reason=(
            f"{infeasible} of {nframes} frames infeasible" if failed else None
        ),
        infeasible_frames=infeasible,
        iterations=iterations,
    )


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
    """
    from .plant import rest_state, rollout, smooth_random_controls

    dt = 1.0 / rate_hz
    nframes = int(round(duration * rate_hz))
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
