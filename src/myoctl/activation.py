"""First-order activation dynamics with smoothly blended time constants.

Activation tracks the control signal through ``d(act)/dt = (ctrl - act) / tau``
where ``tau`` blends the rise and fall constants through a quintic
smoothstep of the control error, of width ``tau_smooth``.
"""

from __future__ import annotations

import numpy as np

from .muscle import _HALF, _ONE, _ZERO, _collapse, _const, _require_positive

__all__ = ["smoothstep", "step_activation"]

# The smoothstep's coefficients, as the 0-d operands the kernels use
# (see myoctl.muscle).
_SIX, _FIFTEEN, _TEN = (_const(v) for v in (6.0, 15.0, 10.0))


def _unit_clamp(x: np.ndarray) -> np.ndarray:
    # np.clip costs several microseconds of Python-level dispatch per call.
    return np.minimum(np.maximum(x, _ZERO), _ONE)


def _smoothstep(x: np.ndarray) -> np.ndarray:
    xc = _unit_clamp(x)
    return xc * xc * xc * (xc * (_SIX * xc - _FIFTEEN) + _TEN)


def smoothstep(x):
    """Quintic smoothstep: 0 for x <= 0, 1 for x >= 1, C1 at both ends.

    Between the clamps it evaluates ``6x^5 - 15x^4 + 10x^3``.
    """
    return _collapse(_smoothstep(np.asarray(x, dtype=float)))


def _time_constant(err, tau_act, tau_deact, tau_smooth) -> np.ndarray:
    """Blended time constant for the control error ``err = ctrl - act``."""
    s = _smoothstep(err / tau_smooth + _HALF)
    # Convex-combination form: bit-exact (tau_act + tau_deact) / 2 at s = 1/2.
    return tau_deact * (_ONE - s) + tau_act * s


def _step_activation(act, ctrl, dt, tau_act, tau_deact, tau_smooth) -> np.ndarray:
    """:func:`step_activation` on float arrays, without argument checks.

    Callers guarantee float64 arguments and positive ``dt`` and time
    constants; a plant's time constants are checked when its muscle
    parameters are built.
    """
    err = ctrl - act
    tau = _time_constant(err, tau_act, tau_deact, tau_smooth)
    return _unit_clamp(act + dt * err / tau)


def step_activation(act, ctrl, dt, tau_act, tau_deact, tau_smooth):
    """One explicit Euler step of the activation filter, clamped to [0, 1].

    Every argument may be a scalar or an array; they broadcast together.

    Raises:
        ValueError: if ``dt``, ``tau_act``, ``tau_deact`` or ``tau_smooth``
            has an entry that is not positive and finite.
    """
    for name, value in (("dt", dt), ("tau_act", tau_act), ("tau_deact", tau_deact),
                        ("tau_smooth", tau_smooth)):
        _require_positive(name, value)
    args = (np.asarray(a, dtype=float) for a in (act, ctrl, dt, tau_act, tau_deact, tau_smooth))
    return _collapse(_step_activation(*args))
