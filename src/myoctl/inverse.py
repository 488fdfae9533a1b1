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

Along a trajectory the activation state is propagated with the recovered
controls through the same smoothed activation filter the forward simulator
uses, starting from zero activation, so that re-simulation reproduces the
inversion's internal state exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activation import TauMode, step_activation
from .plant import Plant, inverse_dynamics, tendon_kinematics, _gain_bias, _normalized
from .qp import BoxQp, solve_box_qp
from .timeseries import differentiate

__all__ = [
    "InfeasibleFrameError",
    "InverseInputs",
    "FrameSolution",
    "InversionOptions",
    "TrajectoryInversion",
    "RoundTripReport",
    "tau_linearization",
    "build_qp",
    "recover_ctrl",
    "invert_frame",
    "invert_trajectory",
    "roundtrip",
]

_ZERO_GAIN = 1e-12
_DENOM_TOL = 1e-12
_RECOVER_TOL = 1e-14


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
        for attr in ("moment_arms", "gain", "bias", "act", "q_frc"):
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), dtype=float))
        nj, na = self.moment_arms.shape
        if self.gain.shape != (na,) or self.bias.shape != (na,) or self.act.shape != (na,):
            raise ValueError("per-actuator vectors do not match the transmission width")
        if self.q_frc.shape != (nj,):
            raise ValueError("q_frc does not match the joint count")
        if self.timestep <= 0.0:
            raise ValueError("timestep must be positive")
        if not np.all(np.asarray(self.tau2) > 0.0):
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


@dataclass(frozen=True)
class InversionOptions:
    """Tolerances for per-frame solves and session-level failure accounting.

    A frame counts as infeasible when its force residual exceeds
    ``fail_threshold * max(1, ||q_frc||_inf)`` or its subproblem is
    degenerate; a trajectory fails once more than
    ``max_infeasible_fraction`` of its frames are infeasible.
    """

    qp_tol: float = 1e-10
    qp_max_iter: int = 20000
    fail_threshold: float = 1e-3
    max_infeasible_fraction: float = 0.01


@dataclass(frozen=True, eq=False)
class TrajectoryInversion:
    """Outcome of inverting a joint trajectory."""

    ctrl: np.ndarray
    residuals: np.ndarray
    act: np.ndarray
    status: str
    failure_reason: str | None
    infeasible_frames: int


def tau_linearization(tau_act, tau_deact, tau_smooth):
    """Affine coefficients of the smoothed time constant about zero error.

    Returns ``(tau1, tau2)`` with ``tau2 = (tau_act + tau_deact) / 2`` (the
    blend midpoint) and ``tau1 = (15/8) * (tau_act - tau_deact) / tau_smooth``
    (the blend slope, 15/8 being the smoothstep derivative at its center).

    Raises:
        ValueError: if ``tau_smooth`` is not positive; use the hard-switch
            mode when no smoothing is configured.
    """
    tau_act = np.asarray(tau_act, dtype=float)
    tau_deact = np.asarray(tau_deact, dtype=float)
    tau_smooth = np.asarray(tau_smooth, dtype=float)
    if not np.all(tau_smooth > 0.0):
        raise ValueError(
            "tau_smooth must be positive to linearize; use TauMode.hard() instead"
        )
    tau2 = 0.5 * (tau_act + tau_deact)
    tau1 = 1.875 * (tau_act - tau_deact) / tau_smooth
    if np.ndim(tau1) == 0:
        return float(tau1), float(tau2)
    return tau1, tau2


def _force_gap(inp: InverseInputs) -> np.ndarray:
    """Force balance constant: torque at the current activation minus target."""
    am = inp.moment_arms
    return am @ (inp.gain * inp.act) + am @ inp.bias - inp.q_frc


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
    tau1 = np.asarray(inp.tau1, dtype=float)
    tau2 = np.asarray(inp.tau2, dtype=float)
    live = np.abs(inp.gain) >= _ZERO_GAIN
    den_lo = (1.0 - inp.act) * tau1 + tau2
    den_hi = -inp.act * tau1 + tau2
    if np.any(live & (np.abs(den_lo) < _DENOM_TOL)) or np.any(
        live & (np.abs(den_hi) < _DENOM_TOL)
    ):
        raise InfeasibleFrameError(
            "linearized time constant vanishes inside the control range"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        lb = inp.timestep * inp.gain * (1.0 - inp.act) / den_lo
        ub = inp.timestep * inp.gain * (-inp.act) / den_hi
    lb = np.where(live, lb, 0.0)
    ub = np.where(live, ub, 0.0)
    if np.any(lb > ub):
        raise InfeasibleFrameError(
            "control bounds inverted: time-constant linearization is not valid "
            "over the full control range for these parameters"
        )
    return BoxQp(A=inp.moment_arms, b=-_force_gap(inp), lb=lb, ub=ub)


def recover_ctrl(x, inp: InverseInputs):
    """Map a frame solution back to a control vector, clamped to [0, 1].

    ``ctrl = act + x * tau2 / (timestep * gain - x * tau1)`` componentwise;
    zero-gain actuators keep ``ctrl = act``.

    Raises:
        InfeasibleFrameError: when the inversion denominator vanishes for a
            live actuator.
    """
    x = np.asarray(x, dtype=float)
    tau1 = np.asarray(inp.tau1, dtype=float)
    tau2 = np.asarray(inp.tau2, dtype=float)
    live = np.abs(inp.gain) >= _ZERO_GAIN
    den = inp.timestep * inp.gain - x * tau1
    if np.any(live & (np.abs(den) < _RECOVER_TOL)):
        raise InfeasibleFrameError("control recovery denominator vanished")
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = x * tau2 / den
    ctrl = np.where(live, inp.act + delta, inp.act)
    return np.clip(ctrl, 0.0, 1.0)


def invert_frame(inp: InverseInputs, opts: InversionOptions | None = None) -> FrameSolution:
    """Solve one frame: bounded least squares, control recovery, residual.

    The residual is ``||moment_arms @ x + k||_inf``; it is zero (within the
    solver tolerance) exactly when the target force is reachable this step.
    """
    opts = opts or InversionOptions()
    problem = build_qp(inp)
    x, diag = solve_box_qp(problem, tol=opts.qp_tol, max_iter=opts.qp_max_iter)
    ctrl = recover_ctrl(x, inp)
    residual = float(np.abs(problem.A @ x - problem.b).max())
    return FrameSolution(ctrl=ctrl, x=x, residual=residual, converged=diag.converged)


def invert_trajectory(
    plant: Plant,
    q_traj,
    rate_hz: float,
    opts: InversionOptions | None = None,
) -> TrajectoryInversion:
    """Recover per-muscle controls along a joint-angle trajectory.

    Each frame differentiates the trajectory, forms the required generalized
    force through the plant's inverse dynamics, inverts the actuator equation
    with the running activation state, then advances that state with the
    recovered controls (smoothed time constants, starting from zero
    activation). Non-finite input fails the whole trajectory with the
    offending frame reported.

    Raises:
        ValueError: for fewer than 3 frames.
    """
    opts = opts or InversionOptions()
    q = np.atleast_2d(np.asarray(q_traj, dtype=float))
    if q.shape[0] < 3:
        raise ValueError("need at least 3 frames to invert a trajectory")
    if rate_hz <= 0.0:
        raise ValueError("rate_hz must be positive")
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
        )

    dt = 1.0 / rate_hz
    qdot, qddot = differentiate(q, dt)
    muscles = plant._muscle
    tau1, tau2 = tau_linearization(muscles.tau_act, muscles.tau_deact, muscles.tau_smooth)
    tau_mode = TauMode.smooth(muscles.tau_smooth)

    act = np.zeros(na)
    ctrl_traj = np.empty((nframes, na))
    act_traj = np.empty((nframes, na))
    residuals = np.empty(nframes)
    infeasible = 0
    for t in range(nframes):
        lengths, velocities = tendon_kinematics(plant, q[t], qdot[t])
        norm_len, norm_vel = _normalized(plant, lengths, velocities)
        gain, bias = _gain_bias(plant, norm_len, norm_vel)
        q_frc = inverse_dynamics(plant, q[t], qdot[t], qddot[t])
        inp = InverseInputs(
            moment_arms=plant.moment_arms,
            gain=gain,
            bias=bias,
            act=act,
            q_frc=q_frc,
            timestep=dt,
            tau1=tau1,
            tau2=tau2,
        )
        threshold = opts.fail_threshold * max(1.0, float(np.abs(q_frc).max()))
        try:
            frame = invert_frame(inp, opts)
            ctrl_t = frame.ctrl
            residual = frame.residual
            feasible = frame.converged and residual <= threshold
        except InfeasibleFrameError:
            ctrl_t = act.copy()
            residual = float(np.abs(_force_gap(inp)).max())
            feasible = False
        if not feasible:
            infeasible += 1
        ctrl_traj[t] = ctrl_t
        act_traj[t] = act
        residuals[t] = residual
        act = step_activation(act, ctrl_t, dt, muscles.tau_act, muscles.tau_deact, tau_mode)

    failed = infeasible > opts.max_infeasible_fraction * nframes
    return TrajectoryInversion(
        ctrl=ctrl_traj,
        residuals=residuals,
        act=act_traj,
        status="failed" if failed else "ok",
        failure_reason=(
            f"{infeasible} of {nframes} frames infeasible" if failed else None
        ),
        infeasible_frames=infeasible,
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
    opts: InversionOptions | None = None,
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
    inversion = invert_trajectory(plant, reference.q, rate_hz, opts)
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
