"""Spans around calls into myoctl's modules, recorded from outside the package.

A :class:`Tracer` replaces a public function under the name its caller looks
it up by (``solve_box_qp`` as imported by ``myoctl.inverse``, ``forward_step``
as looked up by ``myoctl.plant.rollout``, ...) with a wrapper that records a
span, and restores every name when tracing ends. Nothing under ``src/`` is
changed. Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _default_qp_cap() -> int:
    from myoctl.qp import solve_box_qp

    return inspect.signature(solve_box_qp).parameters["max_iter"].default


def _qp_note(args, kwargs, result):
    _, diag = result
    cap = kwargs["max_iter"] if "max_iter" in kwargs else _default_qp_cap()
    return {"iters": diag.iterations, "converged": diag.converged, "cap": cap}


def _inversion_note(args, kwargs, result):
    return {"infeasible": result.infeasible_frames,
            "residual_max": float(max(result.residuals, default=0.0))}


def _resample_note(args, kwargs, result):
    from_hz, to_hz = args[1], args[2]
    return {"down": to_hz < from_hz, "samples": int(result.size)}


def _differentiate_note(args, kwargs, result):
    return {"samples": int(result[0].size + result[1].size)}


def _read_note(args, kwargs, result):
    return {"bytes": _dir_bytes(args[0])}


def _write_note(args, kwargs, result):
    return {"bytes": _dir_bytes(args[1])}


# Operation id of the traced set-up; every other id names one operation.
SETUP_OP = "setup"

# (module the caller looks the name up in, attribute, span name, note).
# The span's layer is the part of its name before the dot.
PATCH_POINTS = (
    ("myoctl.inverse", "solve_box_qp", "qp.solve_box_qp", _qp_note),
    ("myoctl.inverse", "invert_frame", "inverse.invert_frame", None),
    ("myoctl.inverse", "invert_trajectory", "inverse.invert_trajectory", _inversion_note),
    ("myoctl.pipeline", "invert_trajectory", "inverse.invert_trajectory", _inversion_note),
    ("myoctl.inverse", "tendon_kinematics", "plant.tendon_kinematics", None),
    ("myoctl.plant", "tendon_kinematics", "plant.tendon_kinematics", None),
    ("myoctl.inverse", "inverse_dynamics", "plant.inverse_dynamics", None),
    ("myoctl.plant", "rollout", "plant.rollout", None),
    ("myoctl.plant", "forward_step", "plant.forward_step", None),
    ("myoctl.plant", "fl_curve", "muscle.fl_curve", None),
    ("myoctl.plant", "fv_curve", "muscle.fv_curve", None),
    ("myoctl.plant", "fp_curve", "muscle.fp_curve", None),
    ("myoctl.inverse", "step_activation", "activation.step_activation", None),
    ("myoctl.plant", "step_activation", "activation.step_activation", None),
    ("myoctl.inverse", "differentiate", "timeseries.differentiate", _differentiate_note),
    ("myoctl.pipeline", "resample", "timeseries.resample", _resample_note),
    ("myoctl.pipeline", "read_session", "pipeline.read_session", _read_note),
    ("myoctl.pipeline", "write_session", "pipeline.write_session", _write_note),
    ("myoctl.pipeline", "process_session", "pipeline.process_session", None),
)

class Span:
    """One call: name, operation id, parent span, start/end, covered child time."""

    __slots__ = ("name", "op", "parent", "start", "end", "child", "attrs")

    def __init__(self, name: str, op: str, parent: "Span | None") -> None:
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = self.child = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part its child spans cover (children are nested calls)."""
        return self.duration - self.child


class Tracer:
    """Records spans while installed; every span of one operation shares its id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = "none"

    @contextmanager
    def operation(self, op_id: str):
        """Root span of one operation; spans recorded inside carry ``op_id``."""
        self._op = op_id
        root = Span("op", op_id, None)
        self._stack.append(root)
        root.start = time.perf_counter()
        try:
            yield
        finally:
            root.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(root)

    def _wrap(self, fn, name: str, note):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self._op, parent)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.attrs = {"raised": type(exc).__name__}
                raise
            else:
                span.end = time.perf_counter()
                if note is not None:
                    span.attrs = note(args, kwargs, result)
                return result
            finally:
                self._stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                self.spans.append(span)

        return traced

    @contextmanager
    def installed(self):
        """Patch every point in :data:`PATCH_POINTS`; restore them on exit."""
        saved = []
        try:
            for module_name, attr, name, note in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span (gzip JSON, one row per span) plus ``extra``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [s.name, s.op, index.get(id(s.parent)), s.start, s.end, s.attrs]
            for s in self.spans
        ]
        doc = dict(extra, span_columns=["name", "op", "parent", "start", "end", "attrs"],
                   spans=rows)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _pct(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def _capped(attrs: dict) -> bool:
    return attrs["iters"] >= attrs["cap"] and not attrs["converged"]


def qp_frames(spans) -> list[dict]:
    """Every QP solve with its frame index inside its trajectory inversion."""
    frame_of = {}
    seen: dict[int, int] = {}
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "inverse.invert_frame":
            key = id(span.parent)
            frame_of[id(span)] = seen.get(key, 0)
            seen[key] = seen.get(key, 0) + 1
    return [
        dict(span.attrs, op=span.op, frame=frame_of.get(id(span.parent)),
             duration_s=span.duration, capped=_capped(span.attrs))
        for span in spans if span.name == "qp.solve_box_qp" and "iters" in span.attrs
    ]


def iteration_histogram(frames) -> dict[str, int]:
    """QP iterations per frame in power-of-two bins, plus a bin for the cap."""
    bins: dict[int, str] = {}
    counts: dict[int, int] = {}
    for frame in frames:
        iters, cap = frame["iters"], frame["cap"]
        if frame["capped"]:
            low, label = cap, f">={cap} (capped)"
        elif iters <= 1:
            low, label = iters, str(iters)
        elif iters == 2:
            low, label = 2, "2"
        else:
            half = 1 << ((iters - 1).bit_length() - 1)
            low, label = half + 1, f"{half + 1}-{2 * half}"
        bins[low] = label
        counts[low] = counts.get(low, 0) + 1
    return {bins[low]: counts[low] for low in sorted(counts)}


def _duration(span: Span) -> float:
    return span.duration


def _one(span: Span) -> int:
    return 1


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer numbers from traced spans.

    Sums and counts are per operation: the traced set-up (op id
    :data:`SETUP_OP`) once, plus the mean over the ``n_ops`` traced
    operations. Percentiles and shares are taken over every span of the kind.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def per_op(names, value=_duration, where=lambda span: True):
        chosen = [s for name in names for s in by_name.get(name, ()) if where(s)]
        setup = sum(value(s) for s in chosen if s.op == SETUP_OP)
        ops = sum(value(s) for s in chosen if s.op != SETUP_OP)
        return setup + ops / max(n_ops, 1)

    def pct_us(name, q):
        return _pct([s.duration * 1e6 for s in by_name.get(name, ())], q)

    qp_name = ("qp.solve_box_qp",)
    solved = [s for s in by_name.get(qp_name[0], ()) if "iters" in s.attrs]
    iters = [s.attrs["iters"] for s in solved]
    capped_iters = sum(s.attrs["iters"] for s in solved if _capped(s.attrs))
    inversions = [s for s in by_name.get("inverse.invert_trajectory", ()) if "infeasible" in s.attrs]
    inverse_names = ("inverse.invert_trajectory", "inverse.invert_frame")
    curves = ("muscle.fl_curve", "muscle.fv_curve", "muscle.fp_curve")
    resample = ("timeseries.resample",)
    step = ("activation.step_activation",)

    def attr(key):
        return lambda span: span.attrs.get(key, 0)

    return {
        "qp.calls": per_op(qp_name, _one),
        "qp.busy_s": per_op(qp_name),
        "qp.solve_p50_us": pct_us(qp_name[0], 50),
        "qp.solve_p99_us": pct_us(qp_name[0], 99),
        "qp.solve_max_ms": pct_us(qp_name[0], 100) / 1e3,
        "qp.iters_p50": float(statistics.median(iters)) if iters else 0.0,
        "qp.iters_total": per_op(qp_name, attr("iters")),
        "qp.capped": per_op(qp_name, _one, lambda s: "iters" in s.attrs and _capped(s.attrs)),
        "qp.capped_iter_share": capped_iters / sum(iters) if sum(iters) else 0.0,
        "qp.converged_frac": sum(s.attrs["converged"] for s in solved) / len(solved) if solved else 0.0,
        "inverse.invert_s": per_op(inverse_names[:1]),
        "inverse.self_s": per_op(inverse_names, lambda s: s.self_time),
        "inverse.frame_p50_us": pct_us("inverse.invert_frame", 50),
        "inverse.frame_p99_us": pct_us("inverse.invert_frame", 99),
        "inverse.degenerate": per_op(
            inverse_names[1:], _one, lambda s: s.attrs.get("raised") == "InfeasibleFrameError"),
        "inverse.infeasible": per_op(inverse_names[:1], attr("infeasible")),
        "inverse.residual_max": max((s.attrs["residual_max"] for s in inversions), default=0.0),
        "plant.forward_step_calls": per_op(("plant.forward_step",), _one),
        "plant.forward_step_p50_us": pct_us("plant.forward_step", 50),
        "plant.rollout_s": per_op(("plant.rollout",)),
        "plant.kinematics_s": per_op(("plant.tendon_kinematics",)),
        "plant.inverse_dynamics_s": per_op(("plant.inverse_dynamics",)),
        "muscle.curve_calls": per_op(curves, _one),
        "muscle.curve_s": per_op(curves),
        "activation.step_calls": per_op(step, _one),
        "activation.step_s": per_op(step),
        "activation.step_p50_us": pct_us(step[0], 50),
        "timeseries.resample_down_s": per_op(resample, where=lambda s: s.attrs.get("down") is True),
        "timeseries.resample_up_s": per_op(resample, where=lambda s: s.attrs.get("down") is False),
        "timeseries.differentiate_s": per_op(("timeseries.differentiate",)),
        "timeseries.samples_out": per_op(
            ("timeseries.resample", "timeseries.differentiate"), attr("samples")),
        "pipeline.read_s": per_op(("pipeline.read_session",)),
        "pipeline.write_s": per_op(("pipeline.write_session",)),
        "pipeline.bytes_read": per_op(("pipeline.read_session",), attr("bytes")),
        "pipeline.bytes_written": per_op(("pipeline.write_session",), attr("bytes")),
        "pipeline.process_session_s": per_op(("pipeline.process_session",)),
    }
