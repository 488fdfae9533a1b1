"""Reference forward step: the step and the law kernels as they stood before
each law was split at its clamp.

Each law clamps its own scaled distances here, the products use ``@`` and a
rollout copies each stepped state into its log rows. ``myoctl.plant.rollout``
and ``forward_step``, and the public curves of :mod:`myoctl.muscle`, must
give the same bits.
"""

import numpy as np

from myoctl.plant import PlantError

_TINY = 1e-12


def _const(value):
    c = np.array(value, dtype=float)
    c.flags.writeable = False
    return c


_ZERO, _HALF, _ONE, _TWO, _THREE = (_const(v) for v in (0.0, 0.5, 1.0, 2.0, 3.0))
_SIX, _FIFTEEN, _TEN = (_const(v) for v in (6.0, 15.0, 10.0))


def fl_args(lmin, lmax):
    return lmin, lmax, 0.5 * (1.0 - lmin), 0.5 * (lmax - 1.0)


def fl(length, lmin, lmax, half_lo, half_hi):
    near = np.minimum(np.maximum((_ONE - length) / half_lo, (length - _ONE) / half_hi), _ONE)
    far = np.minimum((length - lmin) / half_lo, (lmax - length) / half_hi)
    far = np.maximum(np.minimum(far, _ONE), _ZERO)
    return _HALF * (far * far + (_ONE - near * near))


def fv_args(vmax, fvmax):
    rise = fvmax - 1.0
    return vmax, rise, np.maximum(rise, _TINY)


def fv(vel, vmax, rise, rise_width):
    v = vel / vmax
    a = np.minimum(np.maximum(v + _ONE, _ZERO), _ONE)
    w = np.minimum(np.maximum(v / rise_width, _ZERO), _ONE)
    return a * a + rise * (w * (_TWO - w))


def fp_args(lmax, fpmax):
    b = 0.5 * (1.0 + lmax)
    return np.maximum(b - 1.0, _TINY), 0.25 * fpmax


def fp(length, width, quarter_fpmax):
    t = np.maximum(length - _ONE, _ZERO) / width
    c = np.minimum(t, _ONE)
    return quarter_fpmax * (c * c * c + _THREE * (t - c))


def _unit_clamp(x):
    return np.minimum(np.maximum(x, _ZERO), _ONE)


def smoothstep(x):
    xc = _unit_clamp(x)
    return xc * xc * xc * (xc * (_SIX * xc - _FIFTEEN) + _TEN)


def step_activation(act, ctrl, dt, tau_act, tau_deact, tau_smooth):
    err = ctrl - act
    s = smoothstep(err / tau_smooth + _HALF)
    tau = tau_deact * (_ONE - s) + tau_act * s
    return _unit_clamp(act + dt * err / tau)


def muscle_args(plant):
    """The plant's per-actuator constants, stacked: ``(l0, lt, neg_f0, taus, fl, fv, fp)``."""
    def stacked(records, attr):
        return np.array([getattr(r, attr) for r in records])

    p, g = plant.params, plant.geometry
    lmax = stacked(p, "lmax")
    return (
        stacked(g, "l0"),
        stacked(g, "lt"),
        -stacked(g, "f0"),
        tuple(stacked(p, a) for a in ("tau_act", "tau_deact", "tau_smooth")),
        fl_args(stacked(p, "lmin"), lmax),
        fv_args(stacked(p, "vmax"), stacked(p, "fvmax")),
        fp_args(lmax, stacked(p, "fpmax")),
    )


def gain_bias(plant, norm_len, norm_vel):
    """``(gain, bias)`` at a normalized state."""
    _, _, neg_f0, _, fl_a, fv_a, fp_a = muscle_args(plant)
    return neg_f0 * fl(norm_len, *fl_a) * fv(norm_vel, *fv_a), neg_f0 * fp(norm_len, *fp_a)


def step(plant, args, q, qdot, act, ctrl, dt):
    """One semi-implicit Euler step; ``args`` is :func:`muscle_args` of the plant."""
    l0, lt, neg_f0, taus, fl_a, fv_a, fp_a = args
    lengths = plant.length_offsets - q @ plant.moment_arms
    norm_len, norm_vel = (lengths - lt) / l0, -(qdot @ plant.moment_arms) / l0
    act_next = step_activation(act, ctrl, dt, *taus)
    gain = neg_f0 * fl(norm_len, *fl_a) * fv(norm_vel, *fv_a)
    torque = plant.moment_arms @ (gain * act_next + neg_f0 * fp(norm_len, *fp_a))
    qddot = (torque - plant.damping * qdot - plant.gravity * np.sin(q)) / plant.inertia
    qdot_next = qdot + dt * qddot
    return q + dt * qdot_next, qdot_next, act_next


def simulate(plant, state, ctrl_traj, dt):
    """``(q, qdot, act)`` logs of ``len(ctrl_traj) + 1`` rows, checked as a rollout checks them.

    Raises:
        PlantError: with the message a rollout gives, for a tendon length
            that is first non-positive at some logged pose before any
            non-finite one, or for a state gone non-finite.
    """
    n = len(ctrl_traj)
    q = np.empty((n + 1, plant.njoints))
    qdot = np.empty((n + 1, plant.njoints))
    act = np.empty((n + 1, plant.nactuators))
    args = muscle_args(plant)
    q_t, qdot_t, act_t = state.q, state.qdot, state.act
    q[0], qdot[0], act[0] = q_t, qdot_t, act_t
    dt = np.asarray(dt, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n):
            q_t, qdot_t, act_t = step(plant, args, q_t, qdot_t, act_t, ctrl_traj[t], dt)
            q[t + 1], qdot[t + 1], act[t + 1] = q_t, qdot_t, act_t
        finite = np.isfinite(q).all(axis=1)
        diverged = not finite.all()
        valid = q[: int(np.argmin(finite))] if diverged else q
        lengths = plant.length_offsets - valid @ plant.moment_arms
    slack = lengths <= 0.0
    if slack.any():
        frame = int(np.argmax(slack.any(axis=1)))
        name = plant.actuator_names[int(np.argmin(lengths[frame]))]
        raise PlantError(f"tendon {name!r} has non-positive length at frame {frame}")
    if diverged:
        raise PlantError("simulation diverged to a non-finite state")
    return q, qdot, act
