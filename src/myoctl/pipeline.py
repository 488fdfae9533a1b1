"""Session files, per-session conversion, and parallel batch execution.

A session is one contiguous recording of named, equal-length traces at a
fixed sample rate. On disk it is a directory holding ``session.json`` (id,
rate, channel names/units, frame count, format tag ``myoctl-session/1``) and
``data.bin`` (little-endian float32, channel-major). Conversion takes a pose
session at 2 kHz or 500 Hz, resamples it to the 500 Hz solve rate (a 500 Hz
session is solved as-is), recovers tendon controls, and resamples the
controls back to the session's rate so all streams stay synchronized.

Batches run a worker pool over session directories: every session is
processed exactly once, outputs and the manifest are written atomically
(temp file + rename), and the manifest content is independent of the worker
count apart from wall-time fields.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .inverse import MIN_FRAMES, _check_fail_threshold, invert_trajectory
from .plant import Plant
from .timeseries import resample

__all__ = [
    "SESSION_FORMAT",
    "SessionFormatError",
    "SessionVersionError",
    "SessionTruncatedError",
    "ConfigurationError",
    "Session",
    "read_session",
    "write_session",
    "SessionRecord",
    "Manifest",
    "PipelineOptions",
    "process_session",
    "run_batch",
]

SESSION_FORMAT = "myoctl-session/1"
WORKERS_ENV = "MYOCTL_WORKERS"

POSE_RATE_HZ = 2000
SOLVE_RATE_HZ = 500


class SessionFormatError(ValueError):
    """Raised for malformed session files."""


class SessionVersionError(SessionFormatError):
    """Raised when a session file carries an unknown format tag."""


class SessionTruncatedError(SessionFormatError):
    """Raised when the payload is shorter than the header promises."""


class ConfigurationError(ValueError):
    """Raised when a session does not fit the plant it is processed with."""


def _repeated(names: tuple[str, ...]) -> list[str]:
    """The names that occur more than once, sorted."""
    return sorted({name for name in names if names.count(name) > 1})


@dataclass(eq=False)
class Session:
    """Named traces at a fixed sample rate.

    ``data`` is channel-major, ``(nchannels, nframes)``, stored as float32
    (the wire format) so write/read round trips are exact. Channel names
    must be distinct: a ``ValueError`` names any that repeat.
    """

    id: str
    rate_hz: int
    channel_names: tuple[str, ...]
    data: np.ndarray
    units: tuple[str, ...] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.channel_names = tuple(self.channel_names)
        repeated = _repeated(self.channel_names)
        if repeated:
            raise ValueError(f"channel_names repeats the names {repeated}")
        self.data = np.ascontiguousarray(np.atleast_2d(self.data), dtype=np.float32)
        if self.units is None:
            self.units = ("1",) * len(self.channel_names)
        self.units = tuple(self.units)
        if len(self.channel_names) != self.data.shape[0]:
            raise ValueError("channel name count does not match data rows")
        if len(self.units) != len(self.channel_names):
            raise ValueError("unit count does not match channel count")

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    def channel(self, name: str) -> np.ndarray:
        return self.data[self.channel_names.index(name)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Session):
            return NotImplemented
        return (
            self.id == other.id
            and self.rate_hz == other.rate_hz
            and self.channel_names == other.channel_names
            and self.units == other.units
            and self.metadata == other.metadata
            and self.data.shape == other.data.shape
            and np.array_equal(self.data, other.data, equal_nan=True)
        )


def _write_atomic(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def write_session(session: Session, path) -> None:
    """Write a session directory (``session.json`` plus ``data.bin``)."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    header = {
        "format": SESSION_FORMAT,
        "id": session.id,
        "rate_hz": session.rate_hz,
        "frames": session.n_frames,
        "channels": [
            {"name": name, "units": unit}
            for name, unit in zip(session.channel_names, session.units)
        ],
        "metadata": session.metadata,
    }
    _write_atomic(directory / "session.json", (json.dumps(header, indent=2) + "\n").encode())
    _write_atomic(directory / "data.bin", session.data.astype("<f4").tobytes())


def _header_count(header: dict, key: str, minimum: int) -> int:
    """A whole-number header field of at least ``minimum``.

    Raises:
        KeyError: if the field is missing.
        ValueError: naming the field, for anything but a finite whole
            number (``2000`` or ``2000.0``) of at least ``minimum``.
    """
    value = header[key]
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value != int(value)
        or value < minimum
    ):
        raise ValueError(f"{key!r} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


def read_session(path) -> Session:
    """Read a session directory written by :func:`write_session`.

    Raises:
        SessionVersionError: unknown or missing format tag.
        SessionTruncatedError: payload shorter than the header promises.
        SessionFormatError: any other inconsistency, such as a frame count
            or rate that is not a whole number (at least 0 frames, at least
            1 Hz) or repeated channel names; the message names the field.
    """
    directory = Path(path)
    try:
        header = json.loads((directory / "session.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SessionFormatError(f"cannot parse session header in {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != SESSION_FORMAT:
        raise SessionVersionError(
            f"session in {path} is not in the expected {SESSION_FORMAT} format"
        )
    try:
        frames = _header_count(header, "frames", minimum=0)
        channels = header["channels"]
        names = tuple(entry["name"] for entry in channels)
        repeated = _repeated(names)
        if repeated:
            raise ValueError(f"'channels' repeats the names {repeated}")
        units = tuple(entry.get("units", "1") for entry in channels)
        rate = _header_count(header, "rate_hz", minimum=1)
        session_id = str(header["id"])
        metadata = dict(header.get("metadata", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise SessionFormatError(f"session header in {path} is malformed: {exc}") from exc
    try:
        payload = (directory / "data.bin").read_bytes()
    except OSError as exc:
        raise SessionTruncatedError(f"session payload missing in {path}: {exc}") from exc
    expected = 4 * frames * len(names)
    if len(payload) < expected:
        raise SessionTruncatedError(
            f"session payload in {path} holds {len(payload)} bytes, header promises {expected}"
        )
    if len(payload) > expected:
        raise SessionFormatError(
            f"session payload in {path} holds {len(payload)} bytes, header promises {expected}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(len(names), frames)
    return Session(
        id=session_id,
        rate_hz=rate,
        channel_names=names,
        data=data,
        units=units,
        metadata=metadata,
    )


@dataclass(frozen=True)
class SessionRecord:
    """Per-session batch outcome."""

    id: str
    status: str
    failure_reason: str | None
    frames: int
    infeasible_frames: int
    max_residual: float | None
    wall_time_s: float

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "failure_reason": self.failure_reason,
            "frames": self.frames,
            "infeasible_frames": self.infeasible_frames,
            "max_residual": self.max_residual,
            "wall_time_s": self.wall_time_s,
        }


@dataclass(frozen=True)
class Manifest:
    """Batch report: one record per input session plus totals."""

    records: tuple[SessionRecord, ...]

    @property
    def totals(self) -> dict:
        ok = sum(1 for r in self.records if r.status == "ok")
        return {"sessions": len(self.records), "ok": ok, "failed": len(self.records) - ok}

    def as_dict(self) -> dict:
        return {"records": [r.as_dict() for r in self.records], "totals": self.totals}


@dataclass(frozen=True)
class PipelineOptions:
    """Conversion options: the inversion's failure threshold and the joint map.

    ``fail_threshold`` is passed to :func:`~myoctl.inverse.invert_trajectory`.
    ``joint_map`` maps plant joint names to session channel names; plant
    joints absent from both the map and the session default to zero
    trajectories, mirroring excluded joints in the source recordings.
    """

    fail_threshold: float = 1e-3
    joint_map: Mapping[str, str] | None = None


def _check_options(opts: PipelineOptions, plant: Plant) -> None:
    """Reject options that no session can satisfy.

    Raises:
        ValueError: for a ``fail_threshold`` that is not positive and finite.
        ConfigurationError: for joint-map keys that name no plant joint.
    """
    _check_fail_threshold(opts.fail_threshold)
    unknown = set(opts.joint_map or {}) - set(plant.joint_names)
    if unknown:
        raise ConfigurationError(f"joint map references unknown joints: {sorted(unknown)}")


def _map_joints(session: Session, plant: Plant, joint_map: Mapping[str, str] | None):
    """Assemble the (nframes, njoints) pose matrix for a plant.

    Joint-map keys are plant joints (see :func:`_check_options`).

    Raises:
        ConfigurationError: for explicitly mapped channels that are missing,
            or session channels that no plant joint consumes.
    """
    joint_map = dict(joint_map or {})
    consumed: set[str] = set()
    columns = []
    for joint in plant.joint_names:
        source = joint_map.get(joint, joint)
        if source in session.channel_names:
            columns.append(np.asarray(session.channel(source), dtype=float))
            consumed.add(source)
        elif joint in joint_map:
            raise ConfigurationError(
                f"mapped channel {source!r} for joint {joint!r} is missing from the session"
            )
        else:
            columns.append(np.zeros(session.n_frames))
    leftovers = sorted(set(session.channel_names) - consumed)
    if leftovers:
        raise ConfigurationError(f"session channels not mapped to any joint: {leftovers}")
    return np.stack(columns, axis=1)


def _fit_length(trace: np.ndarray, nframes: int) -> np.ndarray:
    """Trim or edge-pad along axis 0 to exactly ``nframes`` rows."""
    if trace.shape[0] > nframes:
        return trace[:nframes]
    if trace.shape[0] < nframes:
        pad = np.repeat(trace[-1:], nframes - trace.shape[0], axis=0)
        return np.concatenate([trace, pad], axis=0)
    return trace


def _min_frames(rate_hz: int) -> int:
    """Fewest frames at ``rate_hz`` that resample to ``MIN_FRAMES`` solve-rate frames.

    Uses the output length of :func:`resample`, ``round(n * to / from)``;
    ``round`` rounds half to even, so 2 kHz needs 11 frames, not 10.
    """
    n = MIN_FRAMES
    while round(n * SOLVE_RATE_HZ / rate_hz) < MIN_FRAMES:
        n += 1
    return n


def process_session(
    session: Session,
    plant: Plant,
    opts: PipelineOptions | None = None,
) -> tuple[Session | None, SessionRecord]:
    """Convert one pose session into a tendon-control session.

    Resample from the session's rate (``POSE_RATE_HZ`` or ``SOLVE_RATE_HZ``)
    to the solve rate, differentiate, invert, and resample the recovered
    controls back to the session's rate. On failure the record carries the
    reason and no output session is produced.

    Raises:
        ValueError: for an empty session, one with fewer frames than its
            rate needs to give ``MIN_FRAMES`` solve-rate frames (a
            precondition, not a failure), or a ``fail_threshold`` that is not
            positive and finite.
        ConfigurationError: for rate or joint-map mismatches.
    """
    opts = opts or PipelineOptions()
    _check_options(opts, plant)
    start = time.perf_counter()
    if session.n_frames == 0 or not session.channel_names:
        raise ValueError(f"session {session.id!r} is empty")
    if session.rate_hz not in (POSE_RATE_HZ, SOLVE_RATE_HZ):
        raise ConfigurationError(
            f"session {session.id!r} is at {session.rate_hz} Hz, "
            f"expected {POSE_RATE_HZ} or {SOLVE_RATE_HZ}"
        )
    min_frames = _min_frames(session.rate_hz)
    if session.n_frames < min_frames:
        raise ValueError(
            f"session {session.id!r} has {session.n_frames} frames; "
            f"at least {min_frames} are needed at {session.rate_hz} Hz"
        )
    poses = _map_joints(session, plant, opts.joint_map)

    def failed(reason: str, infeasible: int = 0, max_residual: float | None = None):
        record = SessionRecord(
            id=session.id,
            status="failed",
            failure_reason=reason,
            frames=session.n_frames,
            infeasible_frames=infeasible,
            max_residual=max_residual,
            wall_time_s=time.perf_counter() - start,
        )
        return None, record

    if not np.isfinite(poses).all():
        frame = int(np.argwhere(~np.isfinite(poses).all(axis=1))[0, 0])
        return failed(f"non-finite input at frame {frame}")

    q_solve = resample(poses, session.rate_hz, SOLVE_RATE_HZ, axis=0)
    result = invert_trajectory(plant, q_solve, SOLVE_RATE_HZ, opts.fail_threshold)
    max_residual = (
        float(np.nanmax(result.residuals)) if result.residuals.size else None
    )
    if result.status != "ok":
        return failed(result.failure_reason or "inversion failed",
                      result.infeasible_frames, max_residual)

    controls = resample(result.ctrl, SOLVE_RATE_HZ, session.rate_hz, axis=0)
    controls = np.clip(_fit_length(controls, session.n_frames), 0.0, 1.0)
    out = Session(
        id=session.id,
        rate_hz=session.rate_hz,
        channel_names=plant.actuator_names,
        data=controls.T,
        units=("1",) * plant.nactuators,
        metadata={"plant": plant.name, "kind": "tendon_ctrl"},
    )
    record = SessionRecord(
        id=session.id,
        status="ok",
        failure_reason=None,
        frames=session.n_frames,
        infeasible_frames=result.infeasible_frames,
        max_residual=max_residual,
        wall_time_s=time.perf_counter() - start,
    )
    return out, record


def _write_session_atomic(session: Session, final_dir: Path) -> None:
    tmp = final_dir.with_name(f".tmp-{final_dir.name}-{os.getpid()}")
    if tmp.exists():
        shutil.rmtree(tmp)
    write_session(session, tmp)
    if final_dir.exists():
        shutil.rmtree(final_dir)
    os.replace(tmp, final_dir)


def _convert_one(args) -> SessionRecord:
    session_dir, plant, opts, out_dir = args
    start = time.perf_counter()
    session_id = Path(session_dir).name
    try:
        session = read_session(session_dir)
        session_id = session.id
        out_session, record = process_session(session, plant, opts)
        if out_session is not None:
            _write_session_atomic(out_session, Path(out_dir) / session_id)
        return record
    except Exception as exc:  # unreadable or misconfigured: record, don't abort
        return SessionRecord(
            id=session_id,
            status="failed",
            failure_reason=f"{type(exc).__name__}: {exc}",
            frames=0,
            infeasible_frames=0,
            max_residual=None,
            wall_time_s=time.perf_counter() - start,
        )


def _resolve_workers(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return 1


def run_batch(
    input_dir,
    plant: Plant,
    out_dir,
    workers: int | None = None,
    opts: PipelineOptions | None = None,
) -> Manifest:
    """Convert every session under ``input_dir``, writing to ``out_dir``.

    Sessions are any subdirectories holding a ``session.json``. Unreadable or
    failing sessions become failed records and the batch continues. With
    ``workers`` unset, the ``MYOCTL_WORKERS`` environment variable is the
    fallback, then 1.

    ``opts`` are checked once, before any session is read or ``out_dir``
    is created.

    Raises:
        ValueError: if the input directory holds no sessions, or for a
            ``fail_threshold`` that is not positive and finite.
        ConfigurationError: for joint-map keys that name no plant joint.
    """
    opts = opts or PipelineOptions()
    _check_options(opts, plant)
    input_dir = Path(input_dir)
    out_dir = Path(out_dir)
    session_dirs = sorted(
        p for p in input_dir.iterdir() if p.is_dir() and (p / "session.json").exists()
    ) if input_dir.is_dir() else []
    if not session_dirs:
        raise ValueError(f"no sessions found in {input_dir}")
    nworkers = _resolve_workers(workers)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = [(str(d), plant, opts, str(out_dir)) for d in session_dirs]
    if nworkers == 1 or len(tasks) == 1:
        records = [_convert_one(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(nworkers, len(tasks))) as pool:
            records = list(pool.map(_convert_one, tasks))

    manifest = Manifest(records=tuple(sorted(records, key=lambda r: r.id)))
    _write_atomic(
        out_dir / "manifest.json",
        (json.dumps(manifest.as_dict(), indent=2) + "\n").encode(),
    )
    return manifest
