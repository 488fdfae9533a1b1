"""Muscle-tendon actuator model: geometry calibration and force curves.

An actuator is an inelastic tendon in series with a contractile muscle, so
the actuator length splits into a constant tendon slack length ``lt`` plus a
varying muscle length. Muscle length and velocity are expressed in units of
the optimal resting length ``l0``, and three piecewise-quadratic curves give
the active force-length, active force-velocity and passive force factors.
Total tension is affine in the activation level::

    force = gain * act + bias
    gain  = -f0 * FL(L) * FV(V)
    bias  = -f0 * FP(L)

Forces are negative by convention: muscles only pull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "CalibrationError",
    "MuscleParams",
    "MuscleGeometry",
    "calibrate_geometry",
    "normalized_state",
    "fl_curve",
    "fv_curve",
    "fp_curve",
    "flv_curves",
    "gain_bias",
    "actuator_force",
]

_TINY = 1e-12


class CalibrationError(ValueError):
    """Raised when an actuator's operating range cannot be calibrated."""


def _require_finite(record) -> None:
    """Reject a NaN or infinite field of a parameter record, naming it."""
    for f in fields(record):
        if not math.isfinite(getattr(record, f.name)):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class MuscleParams:
    """Dimensionless curve parameters and time constants for one actuator.

    Attributes:
        range_lo, range_hi: normalized-length window that the actuator's
            operating range is mapped onto during calibration.
        lmin, lmax: support of the active force-length curve.
        vmax: shortening velocity (optimal lengths per second) at which
            active force vanishes.
        fpmax: passive force at ``lmax``, in units of peak force.
        fvmax: eccentric force plateau, in units of peak force.
        scale: force scale used when the peak force is derived from the
            transmission (newtons per unit joint acceleration).
        force_override: peak force in newtons; the sentinel -1 selects
            auto-scaling from the transmission.
        tau_act, tau_deact: activation/deactivation time constants (s).
        tau_smooth: width of the smoothed switch between the two time
            constants (s); must be positive.
    """

    range_lo: float = 0.75
    range_hi: float = 1.05
    lmin: float = 0.5
    lmax: float = 1.6
    vmax: float = 1.5
    fpmax: float = 1.3
    fvmax: float = 1.2
    scale: float = 200.0
    force_override: float = -1.0
    tau_act: float = 0.01
    tau_deact: float = 0.04
    tau_smooth: float = 0.005

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 < self.range_lo < self.range_hi:
            raise ValueError("require 0 < range_lo < range_hi")
        if not self.lmin < 1.0 < self.lmax:
            raise ValueError("require lmin < 1 < lmax")
        if self.vmax <= 0.0:
            raise ValueError("vmax must be positive")
        if self.fpmax < 0.0:
            raise ValueError("fpmax must be non-negative")
        if self.fvmax < 1.0:
            raise ValueError("fvmax must be at least 1")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if self.tau_act <= 0.0 or self.tau_deact <= 0.0:
            raise ValueError("activation time constants must be positive")
        if self.tau_smooth <= 0.0:
            raise ValueError("tau_smooth must be positive")


@dataclass(frozen=True)
class MuscleGeometry:
    """Calibrated lengths and peak force of one actuator.

    Attributes:
        l0: optimal resting muscle length (m), where active force peaks.
        lt: tendon slack length (m), the inelastic series contribution.
        f0: peak active force at zero velocity (N).
    """

    l0: float
    lt: float
    f0: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.l0 <= 0.0:
            raise ValueError("l0 must be positive")
        if self.lt < 0.0:
            raise ValueError("lt must be non-negative")
        if self.f0 <= 0.0:
            raise ValueError("f0 must be positive")


def calibrate_geometry(
    op_len_min: float,
    op_len_max: float,
    params: MuscleParams,
    acc0: float,
    *,
    name: str = "actuator",
) -> MuscleGeometry:
    """Derive muscle geometry from the actuator's operating length range.

    The operating range ``[op_len_min, op_len_max]`` is identified with the
    normalized window ``[range_lo, range_hi]``, which fixes ``l0`` and ``lt``.
    Peak force is ``force_override`` when positive, otherwise
    ``scale / acc0`` where ``acc0`` is the joint acceleration produced by a
    unit force on the actuator's transmission.

    Raises:
        CalibrationError: for a degenerate range, non-positive ``l0``,
            negative ``lt``, or a zero-transmission actuator without an
            explicit peak force.
    """
    if not op_len_min < op_len_max:
        raise CalibrationError(
            f"{name}: operating range [{op_len_min}, {op_len_max}] is not increasing"
        )
    l0 = (op_len_max - op_len_min) / (params.range_hi - params.range_lo)
    lt = op_len_min - params.range_lo * l0
    if l0 <= 0.0:
        raise CalibrationError(f"{name}: calibrated optimal length {l0} is not positive")
    if lt < 0.0:
        raise CalibrationError(f"{name}: calibrated tendon slack length {lt} is negative")
    if params.force_override > 0.0:
        f0 = params.force_override
    else:
        if acc0 <= 0.0:
            raise CalibrationError(
                f"{name}: transmission produces no acceleration; set force_override > 0"
            )
        f0 = params.scale / acc0
    return MuscleGeometry(l0=l0, lt=lt, f0=f0)


def _collapse(x: np.ndarray):
    """Return a plain float for 0-d results, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def normalized_state(actuator_length, actuator_velocity, geom: MuscleGeometry):
    """Normalize actuator length and velocity by the muscle geometry.

    Returns ``((length - lt) / l0, velocity / l0)``. Any real input is
    accepted; the force curves clamp out-of-range values downstream.
    """
    length = np.asarray(actuator_length, dtype=float)
    velocity = np.asarray(actuator_velocity, dtype=float)
    return (
        _collapse((length - geom.lt) / geom.l0),
        _collapse(velocity / geom.l0),
    )


def fl_curve(norm_len, lmin, lmax):
    """Active force-length factor.

    A quadratic bump supported on ``[lmin, lmax]``: zero at and outside the
    endpoints, rising through half-interval breakpoints to 1 at ``L = 1``,
    with a symmetric quadratic descent.
    """
    length = np.asarray(norm_len, dtype=float)
    lmin = np.asarray(lmin, dtype=float)
    lmax = np.asarray(lmax, dtype=float)
    mid = 1.0
    left = 0.5 * (lmin + mid)
    right = 0.5 * (mid + lmax)
    t_lo = (length - lmin) / (left - lmin)
    t_up = (mid - length) / (mid - left)
    t_dn = (length - mid) / (right - mid)
    t_hi = (lmax - length) / (lmax - right)
    out = np.where(
        (length <= lmin) | (length >= lmax),
        0.0,
        np.where(
            length < left,
            0.5 * t_lo * t_lo,
            np.where(
                length < mid,
                1.0 - 0.5 * t_up * t_up,
                np.where(length < right, 1.0 - 0.5 * t_dn * t_dn, 0.5 * t_hi * t_hi),
            ),
        ),
    )
    return _collapse(out)


def fv_curve(norm_vel, vmax, fvmax):
    """Active force-velocity factor.

    Zero for shortening at or beyond ``vmax``, quadratic rise to 1 at zero
    velocity, then a quadratic rise to the eccentric plateau ``fvmax``
    reached at lengthening velocity ``vmax * (fvmax - 1)``.
    """
    v = np.asarray(norm_vel, dtype=float) / np.asarray(vmax, dtype=float)
    fvmax = np.asarray(fvmax, dtype=float)
    y = fvmax - 1.0
    y_safe = np.maximum(y, _TINY)
    out = np.where(
        v <= -1.0,
        0.0,
        np.where(
            v <= 0.0,
            (v + 1.0) * (v + 1.0),
            np.where(v <= y, fvmax - (y - v) * (y - v) / y_safe, fvmax),
        ),
    )
    return _collapse(out)


def fp_curve(norm_len, lmax, fpmax):
    """Passive force factor.

    Zero up to the optimal length, a cubic ramp to ``fpmax / 4`` at the
    midpoint ``b = (1 + lmax) / 2``, then linear growth reaching ``fpmax``
    at ``lmax`` and continuing beyond.
    """
    length = np.asarray(norm_len, dtype=float)
    lmax = np.asarray(lmax, dtype=float)
    fpmax = np.asarray(fpmax, dtype=float)
    b = 0.5 * (1.0 + lmax)
    denom = np.maximum(b - 1.0, _TINY)
    t = (length - 1.0) / denom
    t2 = (length - b) / denom
    out = np.where(
        length <= 1.0,
        0.0,
        np.where(length <= b, 0.25 * fpmax * t * t * t, 0.25 * fpmax * (1.0 + 3.0 * t2)),
    )
    return _collapse(out)


def flv_curves(norm_len, norm_vel, params: MuscleParams):
    """Evaluate the three force curves at a normalized state.

    Returns ``(FL, FV, FP)`` with ``FL in [0, 1]``, ``FV in [0, fvmax]``
    and ``FP >= 0``; all three are continuous in their arguments.
    """
    return (
        fl_curve(norm_len, params.lmin, params.lmax),
        fv_curve(norm_vel, params.vmax, params.fvmax),
        fp_curve(norm_len, params.lmax, params.fpmax),
    )


def gain_bias(norm_len, norm_vel, geom: MuscleGeometry, params: MuscleParams):
    """Affine force decomposition at a normalized state.

    Returns ``(gain, bias)`` in newtons with ``gain = -f0 * FL * FV`` and
    ``bias = -f0 * FP``; both are non-positive.
    """
    fl, fv, fp = flv_curves(norm_len, norm_vel, params)
    gain = -geom.f0 * np.asarray(fl) * np.asarray(fv)
    bias = -geom.f0 * np.asarray(fp)
    return _collapse(gain), _collapse(bias)


def actuator_force(norm_len, norm_vel, act, geom: MuscleGeometry, params: MuscleParams):
    """Tension produced at a normalized state and activation level.

    ``force = gain * act + bias``, always non-positive.

    Raises:
        ValueError: if ``act`` lies outside ``[0, 1]``.
    """
    act = np.asarray(act, dtype=float)
    if np.any(act < 0.0) or np.any(act > 1.0):
        raise ValueError("activation must lie in [0, 1]")
    gain, bias = gain_bias(norm_len, norm_vel, geom, params)
    return _collapse(np.asarray(gain) * act + np.asarray(bias))
