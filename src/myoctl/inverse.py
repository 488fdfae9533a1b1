"""Per-frame control recovery and trajectory inversion.

Given a target generalized force, one frame of the muscle actuator equation
is solved for the control vector by a change of variables: with the
activation update embedded (``act' = act + dt * (ctrl - act) / tau``) and the
time constant linearized about zero control error (``tau ~ tau1 * (ctrl -
act) + tau2``), the force balance becomes linear in

    x = dt * gain * (ctrl - act) / (tau1 * (ctrl - act) + tau2)

which is boxed by the control limits. Each frame is then a bounded linear
least-squares problem on the moment-arm matrix, ``min ||moment_arms @ x +
k||`` over the box, solved by bounded-variable least squares. The control is
recovered by inverting the substitution and clamping.

A trajectory is inverted in two passes. Everything that depends only on
the joint motion (derivatives, tendon kinematics, muscle gain and bias, the
required generalized force, the activation-free part of each frame's force
gap and each frame's failure threshold) is computed and checked once on the
whole ``(nframes, ...)`` arrays. The sequential loop then keeps only what
depends on the running activation: the frame's box and its guards, one
:func:`~myoctl.qp.solve_box_qp` on a problem made by a
:class:`~myoctl.qp.BvlsSolver` bound to the moment arms for the whole
trajectory (so each distinct free set's pseudo-inverse is computed once),
control recovery, and the activation step through the same smoothed
filter the forward simulator uses, starting from zero activation, so that
re-simulation reproduces the inversion's internal state exactly. A
trajectory fails once more than 1 % of its frames are infeasible.

:func:`build_qp`, :func:`recover_ctrl` and :func:`invert_frame` check one
frame's inputs (:class:`InverseInputs`) and then run the same private
kernels as the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The loop calls the unchecked kernel. bench/spans.py patches step_activation
# in this module, so the name must stay importable here.
from .activation import _step_activation, _unit_clamp, step_activation  # noqa: F401
from .plant import Plant, inverse_dynamics, tendon_kinematics, _gain_bias, _normalized
from .qp import BoxQp, BvlsSolver, solve_box_qp
from .timeseries import differentiate

__all__ = [
    "InfeasibleFrameError",
    "InverseInputs",
    "FrameSolution",
    "TrajectoryInversion",
    "RoundTripReport",
    "tau_linearization",
    "build_qp",
    "recover_ctrl",
    "invert_frame",
    "invert_trajectory",
    "roundtrip",
    "MIN_FRAMES",
]

_ZERO_GAIN = 1e-12
_DENOM_TOL = 1e-12
_RECOVER_TOL = 1e-14
_MAX_INFEASIBLE_FRACTION = 0.01
# Fewest frames a trajectory needs: the differentiation stencils span three.
MIN_FRAMES = 3


class InfeasibleFrameError(RuntimeError):
    """Raised when one frame's control-recovery problem is degenerate."""


@dataclass(frozen=True, eq=False)
class InverseInputs:
    """Everything needed to invert one frame.

    Attributes:
        moment_arms: (njoints, nactuators) transmission matrix.
        gain, bias: affine force decomposition at this frame (N, gain <= 0).
        act: current activation state in [0, 1].
        q_frc: target generalized force (N m).
        timestep: integration step (s).
        tau1, tau2: linearized time-constant coefficients (slope per unit
            control error, and value at zero error); scalars or per-muscle.

    Every entry must be finite; a ``ValueError`` names the first field that
    breaks a condition.
    """

    moment_arms: np.ndarray
    gain: np.ndarray
    bias: np.ndarray
    act: np.ndarray
    q_frc: np.ndarray
    timestep: float
    tau1: float | np.ndarray
    tau2: float | np.ndarray

    def __post_init__(self) -> None:
        for attr in ("moment_arms", "gain", "bias", "act", "q_frc", "tau1", "tau2"):
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), dtype=float))
        nj, na = self.moment_arms.shape
        if self.gain.shape != (na,) or self.bias.shape != (na,) or self.act.shape != (na,):
            raise ValueError("per-actuator vectors do not match the transmission width")
        if self.q_frc.shape != (nj,):
            raise ValueError("q_frc does not match the joint count")
        for attr in ("moment_arms", "gain", "bias", "act", "q_frc", "timestep", "tau1", "tau2"):
            if not np.isfinite(getattr(self, attr)).all():
                raise ValueError(f"{attr} contains non-finite entries")
        if self.timestep <= 0.0:
            raise ValueError("timestep must be positive")
        if not np.all(self.tau2 > 0.0):
            raise ValueError("tau2 must be positive")
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


def tau_linearization(tau_act, tau_deact, tau_smooth):
    """Affine coefficients of the smoothed time constant about zero error.

    Returns ``(tau1, tau2)`` with ``tau2 = (tau_act + tau_deact) / 2`` (the
    blend midpoint) and ``tau1 = (15/8) * (tau_act - tau_deact) / tau_smooth``
    (the blend slope, 15/8 being the smoothstep derivative at its center).

    Raises:
        ValueError: if ``tau_smooth`` is not positive.
    """
    tau_act = np.asarray(tau_act, dtype=float)
    tau_deact = np.asarray(tau_deact, dtype=float)
    tau_smooth = np.asarray(tau_smooth, dtype=float)
    if not np.all(tau_smooth > 0.0):
        raise ValueError("tau_smooth must be positive to linearize")
    tau2 = 0.5 * (tau_act + tau_deact)
    tau1 = 1.875 * (tau_act - tau_deact) / tau_smooth
    if np.ndim(tau1) == 0:
        return float(tau1), float(tau2)
    return tau1, tau2


def _force_gap(inp: InverseInputs) -> np.ndarray:
    """Force balance constant: torque at the current activation minus target."""
    am = inp.moment_arms
    return am @ (inp.gain * inp.act) + (am @ inp.bias - inp.q_frc)


def _live(gain: np.ndarray) -> np.ndarray:
    return np.abs(gain) >= _ZERO_GAIN


def _box(dt_gain, live, act, tau1, tau2):
    """Bounds of ``x`` for controls in [0, 1]; ``dt_gain = timestep * gain``.

    Only live actuators are divided; a dead one's bounds are 0.

    Raises:
        InfeasibleFrameError: when a linearized time-constant denominator
            vanishes or flips sign (bound ordering would break).
    """
    den_lo = (1.0 - act) * tau1 + tau2
    den_hi = -act * tau1 + tau2
    if (live & ((np.abs(den_lo) < _DENOM_TOL) | (np.abs(den_hi) < _DENOM_TOL))).any():
        raise InfeasibleFrameError(
            "linearized time constant vanishes inside the control range"
        )
    lb = np.divide(dt_gain * (1.0 - act), den_lo, out=np.zeros(live.shape), where=live)
    ub = np.divide(dt_gain * (-act), den_hi, out=np.zeros(live.shape), where=live)
    if (lb > ub).any():
        raise InfeasibleFrameError(
            "control bounds inverted: time-constant linearization is not valid "
            "over the full control range for these parameters"
        )
    return lb, ub


def _recover(x, dt_gain, live, act, tau1, tau2):
    """Controls from a frame solution, clamped to [0, 1].

    Only live actuators are divided; a dead one keeps its activation.

    Raises:
        InfeasibleFrameError: when the inversion denominator vanishes for a
            live actuator.
    """
    den = dt_gain - x * tau1
    if (live & (np.abs(den) < _RECOVER_TOL)).any():
        raise InfeasibleFrameError("control recovery denominator vanished")
    delta = np.divide(x * tau2, den, out=np.zeros(live.shape), where=live)
    return _unit_clamp(act + delta)


def _kernel_args(inp: InverseInputs):
    """``(timestep * gain, live, act, tau1, tau2)``, the frame kernels' arguments."""
    return inp.timestep * inp.gain, _live(inp.gain), inp.act, inp.tau1, inp.tau2


def _solve_frame(solver: BvlsSolver, gap, dt_gain, live, act, tau1, tau2):
    """Box, solve, recover: ``(ctrl, x, residual, diagnostics)``.

    ``gap`` is the force gap at ``act``. The solve goes through this
    module's ``solve_box_qp`` name, which the benchmark's tracer patches.

    Raises:
        InfeasibleFrameError: from :func:`_box` or :func:`_recover`.
    """
    lb, ub = _box(dt_gain, live, act, tau1, tau2)
    x, diag = solve_box_qp(solver.problem(-gap, lb, ub))
    ctrl = _recover(x, dt_gain, live, act, tau1, tau2)
    residual = float(np.abs(solver.A @ x + gap).max())
    return ctrl, x, residual, diag


def build_qp(inp: InverseInputs) -> BoxQp:
    """Assemble the bounded least-squares problem for one frame.

    The problem is ``min 1/2 ||A x - b||^2`` with ``A = moment_arms`` and
    ``b = -k``, ``k`` the force gap at the current activation; the box maps
    the control limits through the substitution. Zero-gain actuators are
    pinned at ``x = 0``.

    Raises:
        InfeasibleFrameError: when a linearized time-constant denominator
            vanishes or flips sign (bound ordering would break).
    """
    lb, ub = _box(*_kernel_args(inp))
    return BoxQp(A=inp.moment_arms, b=-_force_gap(inp), lb=lb, ub=ub)


def recover_ctrl(x, inp: InverseInputs):
    """Map a frame solution back to a control vector, clamped to [0, 1].

    ``ctrl = act + x * tau2 / (timestep * gain - x * tau1)`` componentwise;
    zero-gain actuators keep ``ctrl = act``.

    Raises:
        InfeasibleFrameError: when the inversion denominator vanishes for a
            live actuator.
    """
    return _recover(np.asarray(x, dtype=float), *_kernel_args(inp))


def invert_frame(inp: InverseInputs) -> FrameSolution:
    """Solve one frame: bounded least squares, control recovery, residual.

    The residual is ``||moment_arms @ x + k||_inf``; it is zero (within the
    solver tolerance) exactly when the target force is reachable this step.
    """
    ctrl, x, residual, diag = _solve_frame(
        BvlsSolver(inp.moment_arms), _force_gap(inp), *_kernel_args(inp)
    )
    return FrameSolution(ctrl=ctrl, x=x, residual=residual, converged=diag.converged)


def invert_trajectory(
    plant: Plant,
    q_traj,
    rate_hz: float,
    fail_threshold: float = 1e-3,
) -> TrajectoryInversion:
    """Recover per-muscle controls along a joint-angle trajectory.

    One array pass over all frames differentiates the trajectory, evaluates
    tendon kinematics and muscle gain/bias, forms the required generalized
    force through the plant's inverse dynamics and the activation-free part
    of each frame's force gap, and checks once what does not depend on the
    activation (finite values, ``gain <= 0``, positive time constants). A
    sequential loop then solves each frame's bounded least-squares problem
    with one :class:`~myoctl.qp.BvlsSolver` bound to the moment arms (each
    frame through :func:`~myoctl.qp.solve_box_qp`), so each distinct free
    set's pseudo-inverse is computed once per trajectory, and advances the activation with the recovered controls
    (smoothed time constants, starting from zero activation). A frame counts
    as infeasible when its force residual exceeds ``fail_threshold * max(1,
    ||q_frc||_inf)``, its solve does not converge, or its subproblem is
    degenerate. Non-finite input fails the whole trajectory with the
    offending frame reported.

    Raises:
        ValueError: for fewer than :data:`MIN_FRAMES` frames, a rate that is
            not positive and finite, or muscle forces that are non-finite or
            push (the message names the frame).
        PlantError: if a frame puts a tendon at non-positive length; the
            message names the tendon and the frame.
    """
    q = np.atleast_2d(np.asarray(q_traj, dtype=float))
    if q.shape[0] < MIN_FRAMES:
        raise ValueError(f"need at least {MIN_FRAMES} frames to invert a trajectory")
    if not (np.isfinite(rate_hz) and rate_hz > 0.0):
        raise ValueError("rate_hz must be positive and finite")
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
    muscles = plant._muscle
    tau1, tau2 = tau_linearization(muscles.tau_act, muscles.tau_deact, muscles.tau_smooth)
    if not np.all(np.asarray(tau2) > 0.0):
        raise ValueError("tau2 must be positive")
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
    # The activation-free part of each frame's force gap, A @ bias - q_frc.
    gap_base = bias @ moment_arms.T - q_frc
    dt_gain = dt * gain
    live = _live(gain)
    thresholds = fail_threshold * np.maximum(1.0, np.abs(q_frc).max(axis=1))
    solver = BvlsSolver(moment_arms)

    act = np.zeros(na)
    ctrl_traj = np.empty((nframes, na))
    act_traj = np.empty((nframes, na))
    residuals = np.empty(nframes)
    iterations = np.zeros(nframes, dtype=int)
    infeasible = 0
    for t in range(nframes):
        gap = moment_arms @ (gain[t] * act) + gap_base[t]
        try:
            ctrl_t, _, residual, diag = _solve_frame(
                solver, gap, dt_gain[t], live[t], act, tau1, tau2
            )
            iterations[t] = diag.iterations
            feasible = diag.converged and residual <= thresholds[t]
        except InfeasibleFrameError:
            ctrl_t = act.copy()
            residual = float(np.abs(gap).max())
            feasible = False
        if not feasible:
            infeasible += 1
        ctrl_traj[t] = ctrl_t
        act_traj[t] = act
        residuals[t] = residual
        act = _step_activation(
            act, ctrl_t, dt, muscles.tau_act, muscles.tau_deact, muscles.tau_smooth
        )

    failed = infeasible > _MAX_INFEASIBLE_FRACTION * nframes
    return TrajectoryInversion(
        ctrl=ctrl_traj,
        residuals=residuals,
        act=act_traj,
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
