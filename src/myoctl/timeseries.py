"""Rate conversion and numerical differentiation for uniformly sampled traces."""

from __future__ import annotations

import numpy as np
from scipy.signal import firwin, resample_poly

__all__ = ["resample", "differentiate"]

# Anti-alias / interpolation filter: linear-phase FIR, Kaiser window, cutoff
# at 80% of the low-rate Nyquist, 64 taps per polyphase branch.
_TAPS_PER_BRANCH = 64
_KAISER_BETA = 8.0
_CUTOFF_FRACTION = 0.8


def _integer_ratio(from_hz: float, to_hz: float) -> int:
    hi, lo = max(from_hz, to_hz), min(from_hz, to_hz)
    ratio = hi / lo
    rounded = int(round(ratio))
    if abs(ratio - rounded) > 1e-9 or rounded < 1:
        raise ValueError(f"rate ratio {from_hz} -> {to_hz} is not an integer")
    return rounded


def _design_lowpass(ratio: int, high_rate: float, low_rate: float) -> np.ndarray:
    numtaps = _TAPS_PER_BRANCH * ratio + 1
    cutoff = _CUTOFF_FRACTION * (low_rate / 2.0)
    taps = firwin(numtaps, cutoff, window=("kaiser", _KAISER_BETA), fs=high_rate)
    return taps / taps.sum()


def _normalize_branches(taps: np.ndarray, up: int) -> np.ndarray:
    # Each polyphase branch sums to 1/up so that constants are reproduced
    # exactly after the up-factor scaling applied by the resampler.
    taps = taps.copy()
    for phase in range(up):
        branch_sum = taps[phase::up].sum()
        if abs(branch_sum) > 1e-300:
            taps[phase::up] /= branch_sum * up
    return taps


def _extend_linear(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Extend both ends along axis 0 by local linear extrapolation.

    The head continues the slope of the first two samples, the tail the
    slope of the last two, so signals at rest extend flat and moving
    signals keep their boundary velocity (a global-trend extension would
    inject a slope kink that rings through the anti-alias filter).
    """
    shape = (-1,) + (1,) * (x.ndim - 1)
    head = x[0] + (x[1] - x[0]) * np.arange(-before, 0).reshape(shape)
    tail = x[-1] + (x[-1] - x[-2]) * np.arange(1, after + 1).reshape(shape)
    return np.concatenate([head, x, tail], axis=0)


def resample(trace, from_hz: float, to_hz: float, axis: int = -1):
    """Convert a trace between sample rates related by an integer factor.

    Downsampling low-pass filters (zero phase, boundaries extended by local
    linear extrapolation) and decimates; upsampling zero-stuffs and
    interpolates with the mirrored filter scaled by the ratio. Output
    length is ``round(n * to_hz / from_hz)``.

    Raises:
        ValueError: if the two rates are not related by an integer factor.
    """
    if from_hz <= 0 or to_hz <= 0:
        raise ValueError("sample rates must be positive")
    data = np.asarray(trace, dtype=float)
    if data.shape[axis] < 2:
        raise ValueError("need at least 2 samples to resample")
    ratio = _integer_ratio(from_hz, to_hz)
    if ratio == 1:
        return data.copy()
    n_out = int(round(data.shape[axis] * to_hz / from_hz))
    work = np.moveaxis(data, axis, 0)
    if to_hz < from_hz:
        taps = _design_lowpass(ratio, from_hz, to_hz)
        pad = (len(taps) // (2 * ratio) + 2) * ratio
        ext = _extend_linear(work, pad, pad)
        full = resample_poly(ext, up=1, down=ratio, axis=0, window=taps)
        out = full[pad // ratio : pad // ratio + n_out]
    else:
        taps = _normalize_branches(_design_lowpass(ratio, to_hz, from_hz), ratio)
        pad = len(taps) // (2 * ratio) + 2
        ext = _extend_linear(work, pad, pad)
        full = resample_poly(ext, up=ratio, down=1, axis=0, window=taps)
        out = full[pad * ratio : pad * ratio + n_out]
    return np.moveaxis(out, 0, axis)


def differentiate(q_traj, dt: float):
    """Velocities and accelerations with the semi-implicit Euler stencils.

    Time runs along axis 0. The velocity is the backward difference
    ``qdot_t = (q_t - q_{t-1}) / dt``, with ``qdot_0 = 0`` (a start from
    rest), and the acceleration the forward difference of the velocity,
    ``qddot_t = (qdot_{t+1} - qdot_t) / dt``, with the last frame copied.
    On a trajectory logged by :func:`myoctl.plant.rollout` from rest these
    are, to round-off, the logged pre-step velocities and the accelerations
    each step applied.

    Raises:
        ValueError: for fewer than 3 frames or non-positive ``dt``.
    """
    q = np.asarray(q_traj, dtype=float)
    if q.shape[0] < 3:
        raise ValueError("need at least 3 frames to differentiate")
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    qdot = np.zeros_like(q)
    qdot[1:] = (q[1:] - q[:-1]) / dt
    qddot = np.empty_like(q)
    qddot[:-1] = (qdot[1:] - qdot[:-1]) / dt
    qddot[-1] = qddot[-2]
    return qdot, qddot
