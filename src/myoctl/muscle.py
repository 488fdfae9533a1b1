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

Forces are negative by convention: muscles only pull. A plant evaluates
``gain`` and ``bias`` for all of its actuators at once, on the same curve
kernels (``myoctl.plant._gain_bias``).
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
    "fl_curve",
    "fv_curve",
    "fp_curve",
]

_TINY = 1e-12


def _const(value: float) -> np.ndarray:
    """A read-only 0-d float64 array: a kernel operand numpy need not convert."""
    c = np.array(value, dtype=float)
    c.flags.writeable = False
    return c


# The curve and activation kernels run once per frame on arrays of a few
# dozen entries, where numpy's per-call overhead outweighs the arithmetic. A
# Python float operand is converted to an array on every call; these 0-d
# float64 arrays are not, which makes each call about a third cheaper with
# the same result, because kernel inputs are float64 already.
_ZERO, _HALF, _ONE, _TWO, _THREE = (_const(v) for v in (0.0, 0.5, 1.0, 2.0, 3.0))


class CalibrationError(ValueError):
    """Raised when an actuator's operating range cannot be calibrated."""


def _require_finite(record) -> None:
    """Reject a NaN or infinite field of a parameter record, naming it."""
    for f in fields(record):
        if not math.isfinite(getattr(record, f.name)):
            raise ValueError(f"{f.name} must be finite")


def _require_positive(name: str, value) -> None:
    """Reject a scalar or array with an entry that is not positive and finite
    (NaN included), naming it."""
    v = np.asarray(value, dtype=float)
    if not ((v > 0.0) & (v < np.inf)).all():
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


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
        for name in ("vmax", "scale", "tau_act", "tau_deact", "tau_smooth"):
            _require_positive(name, getattr(self, name))
        if self.fpmax < 0.0:
            raise ValueError("fpmax must be non-negative")
        if self.fvmax < 1.0:
            raise ValueError("fvmax must be at least 1")


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
        _require_positive("l0", self.l0)
        if self.lt < 0.0:
            raise ValueError("lt must be non-negative")
        _require_positive("f0", self.f0)


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


def _floats(*values):
    """Each argument as a float array."""
    return tuple(np.asarray(v, dtype=float) for v in values)


# Each curve is a kernel that takes a normalized state and then the argument
# list its ``_*_args`` function derives from the parameters, so that order is
# fixed here alone. The public curves run both on float arrays; a plant
# derives each list once and splats it into the kernel (``_gain_bias`` in
# ``myoctl.plant``). The kernels use no ``np.where``: each piece is a
# polynomial in a scaled distance that ``np.minimum``/``np.maximum`` clamp to
# the piece's own interval, so a point past a breakpoint sees the neighbouring
# piece's end value. They divide by widths rather than multiply by
# reciprocals: it costs the same and keeps ratios such as ``vmax / vmax``
# exactly 1.


def _fl_args(lmin, lmax):
    """``lmin``, ``lmax`` and the bump's half-widths below and above ``L = 1``."""
    return lmin, lmax, 0.5 * (1.0 - lmin), 0.5 * (lmax - 1.0)


def _fl(length, lmin, lmax, half_lo, half_hi):
    """Force-length kernel: :func:`fl_curve` with :func:`_fl_args`.

    With ``near`` the distance from the peak at 1 and ``far`` the distance
    from the nearer support edge, both in half-widths and clamped to
    ``[0, 1]``, the curve is ``(far^2 + 1 - near^2) / 2``: ``1 - near^2/2``
    between the breakpoints (``far = 1``), ``far^2/2`` outside them
    (``near = 1``). ``far`` is measured from the edge itself, so it is exactly
    0 at and beyond ``lmin`` and ``lmax``, where the curve is exactly 0; at
    ``L = 1``, ``near`` is exactly 0 and the curve exactly 1.
    """
    near = np.minimum(np.maximum((_ONE - length) / half_lo, (length - _ONE) / half_hi), _ONE)
    far = np.minimum((length - lmin) / half_lo, (lmax - length) / half_hi)
    far = np.maximum(np.minimum(far, _ONE), _ZERO)
    return _HALF * (far * far + (_ONE - near * near))


def fl_curve(norm_len, lmin, lmax):
    """Active force-length factor.

    A quadratic bump supported on ``[lmin, lmax]``: zero at and outside the
    endpoints, rising through half-interval breakpoints to 1 at ``L = 1``,
    with a symmetric quadratic descent.
    """
    length, lmin, lmax = _floats(norm_len, lmin, lmax)
    return _collapse(_fl(length, *_fl_args(lmin, lmax)))


def _fv_args(vmax, fvmax):
    """``vmax``, the eccentric rise ``fvmax - 1`` and the same floored at a tiny width."""
    rise = fvmax - 1.0
    return vmax, rise, np.maximum(rise, _TINY)


def _fv(vel, vmax, rise, rise_width):
    """Force-velocity kernel: :func:`fv_curve` with :func:`_fv_args`.

    With ``v = vel / vmax``, the concentric factor ``a = v + 1`` and the
    eccentric fraction ``w = v / rise``, both clamped to ``[0, 1]``, the
    curve is ``a^2 + rise * w * (2 - w)``: exactly 0 for ``v <= -1``, exactly
    1 at ``v = 0`` and ``1 + rise`` from the plateau start ``v = rise`` on.
    """
    v = vel / vmax
    a = np.minimum(np.maximum(v + _ONE, _ZERO), _ONE)
    w = np.minimum(np.maximum(v / rise_width, _ZERO), _ONE)
    return a * a + rise * (w * (_TWO - w))


def fv_curve(norm_vel, vmax, fvmax):
    """Active force-velocity factor.

    Zero for shortening at or beyond ``vmax``, quadratic rise to 1 at zero
    velocity, then a quadratic rise to the eccentric plateau ``fvmax``
    reached at lengthening velocity ``vmax * (fvmax - 1)``.
    """
    vel, vmax, fvmax = _floats(norm_vel, vmax, fvmax)
    return _collapse(_fv(vel, *_fv_args(vmax, fvmax)))


def _fp_args(lmax, fpmax):
    """``(max(b - 1, tiny), fpmax / 4)`` with midpoint ``b = (1 + lmax) / 2``."""
    b = 0.5 * (1.0 + lmax)
    return np.maximum(b - 1.0, _TINY), 0.25 * fpmax


def _fp(length, width, quarter_fpmax):
    """Passive-force kernel: :func:`fp_curve` with :func:`_fp_args`.

    With ``t = max(L - 1, 0) / (b - 1)`` and ``c = min(t, 1)`` the curve is
    ``fpmax/4 * (c^3 + 3 (t - c))``: the cubic up to ``b``, then its tangent
    line. It is exactly 0 for ``L <= 1``.
    """
    t = np.maximum(length - _ONE, _ZERO) / width
    c = np.minimum(t, _ONE)
    return quarter_fpmax * (c * c * c + _THREE * (t - c))


def fp_curve(norm_len, lmax, fpmax):
    """Passive force factor.

    Zero up to the optimal length, a cubic ramp to ``fpmax / 4`` at the
    midpoint ``b = (1 + lmax) / 2``, then linear growth reaching ``fpmax``
    at ``lmax`` and continuing beyond.
    """
    length, lmax, fpmax = _floats(norm_len, lmax, fpmax)
    return _collapse(_fp(length, *_fp_args(lmax, fpmax)))
