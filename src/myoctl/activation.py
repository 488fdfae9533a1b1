"""First-order activation dynamics with smoothly blended time constants.

Activation tracks the control signal through ``d(act)/dt = (ctrl - act) / tau``
where ``tau`` blends the rise and fall constants through a quintic
smoothstep of the control error, of width ``tau_smooth``.
"""

from __future__ import annotations

import numpy as np

from .muscle import _collapse

__all__ = ["smoothstep", "time_constant", "step_activation"]


def smoothstep(x):
    """Quintic smoothstep: 0 for x <= 0, 1 for x >= 1, C1 at both ends.

    Between the clamps it evaluates ``6x^5 - 15x^4 + 10x^3``.
    """
    xc = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return _collapse(xc * xc * xc * (xc * (6.0 * xc - 15.0) + 10.0))


def time_constant(ctrl, act, tau_act, tau_deact, tau_smooth):
    """Effective activation time constant for a control/activation pair.

    Returns the smoothstep blend of the two constants, weighted by
    ``s = smoothstep((ctrl - act) / tau_smooth + 1/2)``; always positive.

    Raises:
        ValueError: if ``tau_smooth`` is not positive.
    """
    tau_smooth = np.asarray(tau_smooth, dtype=float)
    if not (tau_smooth > 0.0).all():
        raise ValueError("tau_smooth must be positive")
    ctrl = np.asarray(ctrl, dtype=float)
    act = np.asarray(act, dtype=float)
    tau_act = np.asarray(tau_act, dtype=float)
    tau_deact = np.asarray(tau_deact, dtype=float)
    s = smoothstep((ctrl - act) / tau_smooth + 0.5)
    # Convex-combination form: bit-exact (tau_act + tau_deact) / 2 at s = 1/2.
    return _collapse(tau_deact * (1.0 - s) + tau_act * s)


def step_activation(act, ctrl, dt: float, tau_act, tau_deact, tau_smooth):
    """One explicit Euler step of the activation filter, clamped to [0, 1].

    Raises:
        ValueError: if ``dt`` or ``tau_smooth`` is not positive.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    act = np.asarray(act, dtype=float)
    ctrl = np.asarray(ctrl, dtype=float)
    tau = np.asarray(time_constant(ctrl, act, tau_act, tau_deact, tau_smooth))
    return _collapse(np.clip(act + dt * (ctrl - act) / tau, 0.0, 1.0))
