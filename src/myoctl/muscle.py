"""Muscle-tendon actuator model: geometry calibration, force curves and
activation dynamics.

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

Activation follows ``d(act)/dt = (ctrl - act) / tau``, where ``tau`` blends
the rise and fall constants through a quintic smoothstep of the control error,
of width ``tau_smooth``; the forward step and the inversion both advance it by
the kernel of :func:`step_activation`, one explicit Euler step.

Each law (FL, FV, FP and the time constant's smoothstep) is split at its
clamp into two private pieces: its scaled distances, and a polynomial of
those distances clamped to [0, 1]; FL's four distances come from one
subtract and one divide, and its first numerator, ``L - 1``, is FP's. The
public curves, the activation step and the plant's gain and bias compose the
pieces one law at a time. The forward step (``myoctl.plant._stepper``)
writes every law's distances into the rows of one array, clamps them with
one ``np.maximum``/``np.minimum`` pair and squares them with one multiply;
the inversion's activation bounds (:func:`_step_edges`) skip the smoothstep
when no control error lies inside its window. Either way each law has one
implementation and the same bits.
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
    "smoothstep",
    "step_activation",
]

_TINY = 1e-12


def _const(value) -> np.ndarray:
    """A read-only float64 array: a kernel operand numpy need not convert."""
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


# BvlsSolver.solve runs the integer rule on every frame; a module-level tuple
# makes it cheaper than one built on each call.
_INTEGERS = (int, np.integer)


def _is_integer(value) -> bool:
    """True for a Python or numpy integer, False for a bool or a float such as ``100.0``."""
    return isinstance(value, _INTEGERS) and not isinstance(value, bool)


def _require_int(name: str, value, minimum: int) -> None:
    """Reject anything but an integer (:func:`_is_integer`) of at least ``minimum``, naming it."""
    if not (_is_integer(value) and value >= minimum):
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def _is_number(value) -> bool:
    """True for a real number, a numeric array or a (nested) list of numbers;
    False if the value or any entry is a bool, a string or any other object.
    numpy's bool is not a numpy integer, so only Python's needs excluding."""
    if isinstance(value, (list, tuple)):
        return all(map(_is_number, value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _require_finite(record) -> None:
    """Reject a field of a parameter record that is not one finite number
    (:func:`_is_number`), naming it."""
    for f in fields(record):
        value = getattr(record, f.name)
        if not (np.ndim(value) == 0 and _is_number(value) and math.isfinite(value)):
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")


def _require_positive(name: str, value) -> None:
    """Reject a scalar or array that is not a number (:func:`_is_number`) or
    has an entry that is not positive and finite (NaN included), naming it."""
    v = np.asarray(value, dtype=float) if _is_number(value) else None
    if v is None or not ((v > 0.0) & (v < np.inf)).all():
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


# Each law's ``_*_reach`` piece gives its scaled distances, and its
# ``_*_poly`` piece is a polynomial of them once :func:`_unit_clamp` has
# clamped them (and of their squares, where it uses them). A curve kernel
# takes a normalized state and then the argument list its ``_*_args``
# function derives from the parameters, so that order is fixed here alone; a
# plant derives each list once. The pieces use no ``np.where``: a point past a
# breakpoint sees the neighbouring piece's end value through the clamp. They
# divide by widths rather than multiply by reciprocals: it costs the same and
# keeps ratios such as ``vmax / vmax`` exactly 1. A reach piece writes into
# the arrays its keyword arguments name, or into new ones; FL's also returns
# its numerators, and FP's takes the first of them, ``L - 1``.


def _unit_clamp(x, out=None):
    """``x`` clamped to [0, 1], into ``out`` when given."""
    # np.clip costs several microseconds of Python-level dispatch per call.
    return np.minimum(np.maximum(x, _ZERO, out=out), _ONE, out=out)


def _fl_args(lmin, lmax):
    """The force-length offsets ``[1, 1, lmin, lmax]`` and signed widths
    ``[-half_lo, half_hi, half_lo, -half_hi]``, each stacked on a new last
    axis, where ``half_lo`` and ``half_hi`` are the bump's half-widths below
    and above ``L = 1``."""
    half_lo, half_hi = 0.5 * (1.0 - lmin), 0.5 * (lmax - 1.0)
    return (np.stack(np.broadcast_arrays(1.0, 1.0, lmin, lmax), axis=-1),
            np.stack(np.broadcast_arrays(-half_lo, half_hi, half_lo, -half_hi), axis=-1))


def _fl_reach(length, offsets, widths, near=None, far=None):
    """Force-length distances ``(near, far)``, before the clamp, and the
    numerators ``L - offsets`` they come from, whose column 0 is ``L - 1``.

    One subtract and one divide give the four scaled distances ``(L -
    offsets) / widths``: ``(1 - L) / half_lo`` and ``(L - 1) / half_hi``
    from the peak, ``(L - lmin) / half_lo`` and ``(lmax - L) / half_hi``
    from the support edges, the first and last with numerator and width
    both negated. That is exact, because negation is exact and
    round-to-nearest is symmetric, up to the sign of a zero distance, and
    only the squares of the clamped distances reach the polynomial. ``near``
    is the larger distance from the peak and ``far`` the smaller from an
    edge, both in half-widths. ``near`` is never negative, so the clamp's
    lower bound leaves it as it is.
    """
    num = np.subtract(length[..., None], offsets)
    d = np.divide(num, widths)
    near = np.maximum(d[..., 0], d[..., 1], out=near)
    far = np.minimum(d[..., 2], d[..., 3], out=far)
    return near, far, num


def _fl_poly(near_sq, far_sq):
    """Force-length polynomial of the squares of the clamped ``near`` and ``far``.

    The curve is ``(far^2 + 1 - near^2) / 2``: ``1 - near^2/2`` between the
    breakpoints (``far = 1``), ``far^2/2`` outside them (``near = 1``).
    ``far`` is measured from the edge itself, so it is exactly 0 at and
    beyond ``lmin`` and ``lmax``, where the curve is exactly 0; at ``L = 1``,
    ``near`` is exactly 0 and the curve exactly 1.
    """
    return _HALF * (far_sq + (_ONE - near_sq))


def _fl(length, offsets, widths):
    """Force-length kernel: :func:`fl_curve` with :func:`_fl_args`."""
    near, far, _ = _fl_reach(length, offsets, widths)
    near, far = _unit_clamp(near), _unit_clamp(far)
    return _fl_poly(near * near, far * far)


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


def _fv_reach(vel, vmax, rise_width, a=None, w=None):
    """Force-velocity distances ``(a, w)``, before the clamp.

    With ``v = vel / vmax``, ``a = v + 1`` is the concentric factor and
    ``w = v / rise_width`` the eccentric fraction.
    """
    v = vel / vmax
    return np.add(v, _ONE, out=a), np.divide(v, rise_width, out=w)


def _fv_poly(a_sq, w, rise):
    """Force-velocity polynomial of the clamped ``w`` and the clamped ``a``'s square.

    The curve is ``a^2 + rise * w * (2 - w)``: exactly 0 for ``v <= -1``,
    exactly 1 at ``v = 0`` and ``1 + rise`` from the plateau start
    ``v = rise`` on.
    """
    return a_sq + rise * (w * (_TWO - w))


def _fv(vel, vmax, rise, rise_width):
    """Force-velocity kernel: :func:`fv_curve` with :func:`_fv_args`."""
    a, w = (_unit_clamp(d) for d in _fv_reach(vel, vmax, rise_width))
    return _fv_poly(a * a, w, rise)


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


def _fp_reach(excess, width, out=None):
    """Passive-force distance ``t = max(L - 1, 0) / (b - 1)``, before the
    clamp, of the length's excess ``L - 1`` over the optimum.

    ``t`` is never negative, so the clamp's lower bound leaves it as it is.
    """
    return np.divide(np.maximum(excess, _ZERO), width, out=out)


def _fp_poly(t, c, c_sq, quarter_fpmax):
    """Passive-force polynomial of ``t``, its clamp ``c = min(t, 1)`` and ``c``'s square.

    The curve is ``fpmax/4 * (c^3 + 3 (t - c))``: the cubic up to ``b``, then
    its tangent line. It is exactly 0 for ``L <= 1``.
    """
    return quarter_fpmax * (c_sq * c + _THREE * (t - c))


def _fp(length, width, quarter_fpmax):
    """Passive-force kernel: :func:`fp_curve` with :func:`_fp_args`."""
    t = _fp_reach(length - _ONE, width)
    c = _unit_clamp(t)
    return _fp_poly(t, c, c * c, quarter_fpmax)


def fp_curve(norm_len, lmax, fpmax):
    """Passive force factor.

    Zero up to the optimal length, a cubic ramp to ``fpmax / 4`` at the
    midpoint ``b = (1 + lmax) / 2``, then linear growth reaching ``fpmax``
    at ``lmax`` and continuing beyond.
    """
    length, lmax, fpmax = _floats(norm_len, lmax, fpmax)
    return _collapse(_fp(length, *_fp_args(lmax, fpmax)))


# Activation dynamics; the smoothstep's coefficients are 0-d kernel operands.
_SIX, _FIFTEEN, _TEN = (_const(v) for v in (6.0, 15.0, 10.0))


def _smoothstep_poly(x, x_sq):
    """``6x^5 - 15x^4 + 10x^3`` of a clamped ``x`` and its square."""
    return x_sq * x * (x * (_SIX * x - _FIFTEEN) + _TEN)


def _smoothstep(x: np.ndarray) -> np.ndarray:
    xc = _unit_clamp(x)
    return _smoothstep_poly(xc, xc * xc)


def smoothstep(x):
    """Quintic smoothstep: 0 for x <= 0, 1 for x >= 1, C1 at both ends.

    Between the clamps it evaluates ``6x^5 - 15x^4 + 10x^3``.
    """
    return _collapse(_smoothstep(np.asarray(x, dtype=float)))


def _tau_reach(err, tau_smooth, out=None):
    """The activation law's distance, before the clamp: the smoothstep
    argument ``err / tau_smooth + 1/2`` of the control error ``err = ctrl - act``."""
    return np.add(err / tau_smooth, _HALF, out=out)


def _tau_poly(x, x_sq, tau_act, tau_deact):
    """Blended time constant of the clamped smoothstep argument ``x`` and its square."""
    s = _smoothstep_poly(x, x_sq)
    # Convex-combination form: bit-exact (tau_act + tau_deact) / 2 at s = 1/2.
    return tau_deact * (_ONE - s) + tau_act * s


def _blend(reach, tau_act, tau_deact):
    """Blended time constant of the smoothstep argument ``reach``, clamped here."""
    x = _unit_clamp(reach)
    return _tau_poly(x, x * x, tau_act, tau_deact)


def _time_constant(err, tau_act, tau_deact, tau_smooth) -> np.ndarray:
    """Blended time constant for the control error ``err = ctrl - act``."""
    return _blend(_tau_reach(err, tau_smooth), tau_act, tau_deact)


def _euler(act, err, dt, tau, out=None):
    """The filter's explicit Euler step ``act + dt * err / tau``, clamped to [0, 1]."""
    return _unit_clamp(act + dt * err / tau, out=out)


def _step_activation(act, ctrl, dt, tau_act, tau_deact, tau_smooth) -> np.ndarray:
    """:func:`step_activation` on float arrays, without argument checks.

    Callers guarantee float64 arguments and positive ``dt`` and time
    constants; a plant's time constants are checked when its muscle
    parameters are built.
    """
    err = ctrl - act
    return _euler(act, err, dt, _time_constant(err, tau_act, tau_deact, tau_smooth))


# Controls 0 and 1, the ends of the control range.
_EDGES = _const([0.0, 1.0])


def _edge_taus(tau_act, tau_deact) -> np.ndarray:
    """``(tau_deact, tau_act)`` stacked on a leading axis: the time constants
    under controls 0 and 1 outside the blend window, which :func:`_tau_poly`'s
    convex form gives exactly at ``s = 0`` and ``s = 1``."""
    return np.stack(np.broadcast_arrays(tau_deact, tau_act))


def _step_edges(act, dt, tau_act, tau_deact, tau_smooth, edge_taus=None) -> np.ndarray:
    """:func:`_step_activation` of activations ``act`` in [0, 1] under
    controls 0 and 1, stacked on a new leading axis: the bounds of the next
    activation.

    Control 0's error ``-act`` puts its smoothstep argument at or below 1/2,
    and control 1's error ``1 - act`` puts it at or above 1/2. So when no
    argument lies strictly inside (0, 1), the clamp sends every control-0
    argument to 0 and every control-1 argument to 1, and the time constants
    are exactly ``edge_taus`` (:func:`_edge_taus`, built here when not
    given); the step then skips the smoothstep. It decides on the same
    arguments the law clamps, and keeps the law's ``act + dt * err / tau``
    and clamp (:func:`_euler`), so the bounds have the bits of the full step.
    """
    lead = (2,) + (1,) * act.ndim
    err = _EDGES.reshape(lead) - act
    reach = _tau_reach(err, tau_smooth)
    if np.count_nonzero((reach > _ZERO) & (reach < _ONE)):
        tau = _blend(reach, tau_act, tau_deact)
    else:
        if edge_taus is None:
            edge_taus = _edge_taus(tau_act, tau_deact)
        tau = edge_taus.reshape(lead[:act.ndim + 2 - edge_taus.ndim] + edge_taus.shape[1:])
    return _euler(act, err, dt, tau)


def step_activation(act, ctrl, dt, tau_act, tau_deact, tau_smooth):
    """One explicit Euler step of the activation filter, clamped to [0, 1].

    Every argument may be a scalar or an array; they broadcast together.

    Raises:
        ValueError: if ``dt``, ``tau_act``, ``tau_deact`` or ``tau_smooth``
            has an entry that is not a positive and finite number (a bool or
            a string is not a number).
    """
    for name, value in (("dt", dt), ("tau_act", tau_act), ("tau_deact", tau_deact),
                        ("tau_smooth", tau_smooth)):
        _require_positive(name, value)
    args = (np.asarray(a, dtype=float) for a in (act, ctrl, dt, tau_act, tau_deact, tau_smooth))
    return _collapse(_step_activation(*args))
