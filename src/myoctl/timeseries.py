"""Rate conversion for uniformly sampled traces.

Numpy only: the anti-alias filter is a Kaiser-windowed sinc designed here,
and the polyphase resampler zero-stuffs, filters and decimates with the same
pad and trim offsets as ``scipy.signal.resample_poly``.
"""

from __future__ import annotations

import numpy as np

from .muscle import _require_positive

__all__ = ["resample"]

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
    """Kaiser-windowed sinc low-pass taps, normalized to unit DC gain.

    The taps of ``scipy.signal.firwin(numtaps, cutoff, window=("kaiser",
    beta), fs=high_rate)``, in its operation order: the ideal low-pass
    impulse response times the window, scaled by its sum.
    """
    numtaps = _TAPS_PER_BRANCH * ratio + 1
    cutoff = _CUTOFF_FRACTION * (low_rate / 2.0) / (0.5 * high_rate)
    m = np.arange(numtaps, dtype=float) - 0.5 * (numtaps - 1)
    taps = cutoff * np.sinc(cutoff * m) * np.kaiser(numtaps, _KAISER_BETA)
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


def _resample_poly(x: np.ndarray, up: int, down: int, taps: np.ndarray) -> np.ndarray:
    """Polyphase rate change by ``up / down`` along axis 0, with zeros outside ``x``.

    ``scipy.signal.resample_poly(x, up, down, axis=0, window=taps)`` for
    ``up == 1`` or ``down == 1``: ``x`` zero-stuffed by ``up``, convolved
    with ``up * taps`` and kept at every ``down``-th sample from the filter
    centre, ``ceil(n * up / down)`` samples in all. Only kept samples are
    computed, and none of the stuffed zeros: output ``q * up + p`` is
    branch ``taps[p::up]`` dotted with the inputs up to ``x[q]``.
    """
    n = x.shape[0]
    n_out = -(-n * up // down)
    half_len = (len(taps) - 1) // 2
    branch_len = -(-len(taps) // up)
    # Row p is branch p, last tap first, zero-padded to equal length. Rows
    # are contiguous: a strided vector would take numpy's slow dot loop.
    padded = np.zeros(branch_len * up)
    padded[: len(taps)] = taps * up
    branches = np.ascontiguousarray(padded.reshape(branch_len, up).T[:, ::-1])
    first = half_len // up
    offset = half_len % up
    rows = -(-(offset + n_out) // up)
    # Channels first, so that every window of inputs is a contiguous row.
    chans = np.moveaxis(x, 0, -1)
    stream = np.zeros(chans.shape[:-1] + (max(first + (rows - 1) * down + branch_len,
                                              branch_len - 1 + n),))
    stream[..., branch_len - 1 : branch_len - 1 + n] = chans
    windows = np.lib.stride_tricks.sliding_window_view(stream, branch_len, axis=-1)
    windows = windows[..., first : first + (rows - 1) * down + 1 : down, :]
    phases = np.stack([windows.dot(branch) for branch in branches], axis=-1)
    out = phases.reshape(phases.shape[:-2] + (-1,))[..., offset : offset + n_out]
    return np.moveaxis(out, -1, 0)


def resample(trace, from_hz: float, to_hz: float, axis: int = -1):
    """Convert a trace between sample rates related by an integer factor.

    Downsampling low-pass filters (zero phase, boundaries extended by local
    linear extrapolation) and decimates; upsampling zero-stuffs and
    interpolates with the mirrored filter scaled by the ratio. Output
    length is ``round(n * to_hz / from_hz)``. A same-rate call returns a
    copy. Uses numpy only; the result matches the same filter run through
    ``scipy.signal.resample_poly`` to round-off.

    Raises:
        ValueError: if a rate is not positive and finite, the two rates are
            not related by an integer factor, or the trace has fewer than 2
            samples or too few to give at least 1 output sample.
    """
    _require_positive("from_hz", from_hz)
    _require_positive("to_hz", to_hz)
    data = np.asarray(trace, dtype=float)
    n_out = int(round(data.shape[axis] * to_hz / from_hz))
    if data.shape[axis] < 2 or n_out < 1:
        raise ValueError(
            f"need at least 2 input samples and 1 output sample to resample; "
            f"{data.shape[axis]} at {from_hz} Hz give {n_out} at {to_hz} Hz"
        )
    ratio = _integer_ratio(from_hz, to_hz)
    if ratio == 1:
        return data.copy()
    work = np.moveaxis(data, axis, 0)
    up, down = (1, ratio) if to_hz < from_hz else (ratio, 1)
    taps = _design_lowpass(ratio, max(from_hz, to_hz), min(from_hz, to_hz))
    if up > 1:
        taps = _normalize_branches(taps, up)
    # Extend each end by ``pad`` low-rate samples, then drop them again.
    pad = len(taps) // (2 * ratio) + 2
    ext = _extend_linear(work, pad * down, pad * down)
    full = _resample_poly(ext, up, down, taps)
    out = full[pad * up : pad * up + n_out]
    return np.moveaxis(out, 0, axis)

