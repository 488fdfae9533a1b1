"""Session files, per-session conversion, and parallel batch execution.

A session is one contiguous recording of named, equal-length traces at a
fixed sample rate. On disk it is a directory holding ``session.json`` (id,
rate, channel names/units, frame count, format tag ``myoctl-session/1``) and
``data.bin`` (little-endian float32, channel-major). Conversion takes a pose
session at 2 kHz or 500 Hz, resamples it to the 500 Hz solve rate (a 500 Hz
session is solved as-is), recovers tendon controls, and resamples the
controls back to the session's rate so all streams stay synchronized.

Batches run a worker pool over groups of consecutive session directories,
``ceil(sessions / workers)`` to a group and at most ``_GROUP_CAP``. Each of a
group's sessions is read, checked, mapped, resampled and prepared alone (a
failure there is that session's failed record), the group's sessions are
inverted together in one frame loop (see :mod:`myoctl.inverse`), and each is
finished and written alone. Every session is processed exactly once and
named by its input directory, which names both its output directory and its
manifest record (the id inside ``session.json`` only travels into the output
header). Inverting together changes no session's bits, so outputs and the
manifest content are independent of the worker count and of a session's
neighbours, apart from wall-time fields. A record's ``wall_time_s`` is the
session's own stages plus an equal share of its group's loop, so the records
of one worker sum to no more than its wall time. Outputs and the manifest are
written atomically (temp file + rename). The worker count is ``run_batch``'s
``workers`` argument, 1 by default; no environment variable sets it. Alone or
in a batch, a session is labelled by the inversion's one fixed status rule.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .inverse import MIN_FRAMES, _invert_lanes, _prepare
from .plant import Plant, _repeated, _whole_number, _write_atomic, _write_json
from .timeseries import resample

# bench/spans.py patches invert_trajectory in this module, so the name must
# stay importable here; conversion runs the inversion's two parts itself.
from .inverse import invert_trajectory  # noqa: F401

__all__ = [
    "SessionFormatError",
    "SessionVersionError",
    "SessionTruncatedError",
    "ConfigurationError",
    "Session",
    "read_session",
    "write_session",
    "SessionRecord",
    "Manifest",
    "process_session",
    "run_batch",
]

SESSION_FORMAT = "myoctl-session/1"

POSE_RATE_HZ = 2000
SOLVE_RATE_HZ = 500
# Most sessions one batch worker inverts together. In a lane sweep of
# 1000-frame trajectories (2 cores), a toy_finger trajectory inverted 2.5x
# cheaper in a group of 8 than alone and no cheaper in groups of 12 to 32,
# where the solves of lanes whose first step leaves the box dominate.
_GROUP_CAP = 8
# The batch manifest's file name in the output directory.
_MANIFEST = "manifest.json"


class SessionFormatError(ValueError):
    """Raised for malformed session files."""


class SessionVersionError(SessionFormatError):
    """Raised when a session file carries an unknown format tag."""


class SessionTruncatedError(SessionFormatError):
    """Raised when the payload is shorter than the header promises."""


class ConfigurationError(ValueError):
    """Raised when a session does not fit the plant it is processed with."""


@dataclass(eq=False)
class Session:
    """Named traces at a fixed sample rate.

    ``data`` is channel-major, ``(nchannels, nframes)``, stored as float32
    (the wire format) so write/read round trips are exact. Channel names
    must be distinct: a ``ValueError`` names any that repeat, and another
    names the shape of ``data`` that is not ``(nchannels, nframes)``.
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
        if self.data.ndim != 2:
            raise ValueError(f"data has shape {self.data.shape}; a session needs "
                             "(nchannels, nframes)")
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


def write_session(session: Session, path) -> None:
    """Write a session directory (``session.json`` plus ``data.bin``),
    creating it if needed; each file is replaced atomically."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    _write_json(directory / "session.json", {
        "format": SESSION_FORMAT,
        "id": session.id,
        "rate_hz": session.rate_hz,
        "frames": session.n_frames,
        "channels": [
            {"name": name, "units": unit}
            for name, unit in zip(session.channel_names, session.units)
        ],
        "metadata": session.metadata,
    })
    _write_atomic(directory / "data.bin", session.data.astype("<f4").tobytes())


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
        frames = _whole_number(header, "frames", minimum=0)
        channels = header["channels"]
        names = tuple(entry["name"] for entry in channels)
        repeated = _repeated(names)
        if repeated:
            raise ValueError(f"'channels' repeats the names {repeated}")
        units = tuple(entry.get("units", "1") for entry in channels)
        rate = _whole_number(header, "rate_hz", minimum=1)
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
    """Per-session batch outcome; in a batch, ``id`` is the input directory's name."""

    id: str
    status: str
    failure_reason: str | None
    frames: int
    infeasible_frames: int
    max_residual: float | None
    wall_time_s: float


@dataclass(frozen=True)
class Manifest:
    """Batch report: one record per input session plus totals."""

    records: tuple[SessionRecord, ...]

    @property
    def totals(self) -> dict:
        ok = sum(1 for r in self.records if r.status == "ok")
        return {"sessions": len(self.records), "ok": ok, "failed": len(self.records) - ok}

    def as_dict(self) -> dict:
        return {"records": [asdict(r) for r in self.records], "totals": self.totals}


def _record(session_id: str, wall_time_s: float, reason: str | None = None, frames: int = 0,
            infeasible: int = 0, max_residual: float | None = None) -> SessionRecord:
    """The record of a session that took ``wall_time_s``; a ``reason`` marks it failed."""
    return SessionRecord(
        id=session_id,
        status="ok" if reason is None else "failed",
        failure_reason=reason,
        frames=frames,
        infeasible_frames=infeasible,
        max_residual=max_residual,
        wall_time_s=wall_time_s,
    )


def _check_joint_map(joint_map: Mapping[str, str] | None, plant: Plant) -> None:
    """Reject a joint map that no session can satisfy.

    A joint map maps plant joint names to session channel names; a plant
    joint it does not name reads the channel of its own name, or a zero
    trajectory if the session lacks it, mirroring excluded joints in the
    source recordings. Each channel feeds at most one joint, so a swap such
    as ``{"mcp": "pip", "pip": "mcp"}`` is legal and ``{"mcp": "pip"}`` is
    not: the unmapped ``pip`` would read ``pip`` too.

    Raises:
        ConfigurationError: for joint-map keys that name no plant joint, or
            a channel that would feed two or more joints (named with them).
    """
    joint_map = joint_map or {}
    unknown = set(joint_map) - set(plant.joint_names)
    if unknown:
        raise ConfigurationError(f"joint map references unknown joints: {sorted(unknown)}")
    readers: dict[str, list[str]] = {}
    for joint in plant.joint_names:
        readers.setdefault(joint_map.get(joint, joint), []).append(joint)
    shared = {channel: joints for channel, joints in readers.items() if len(joints) > 1}
    if shared:
        raise ConfigurationError(f"joint map feeds one channel to several joints: {shared}")


def _map_joints(session: Session, plant: Plant, joint_map: Mapping[str, str] | None):
    """Assemble the (nframes, njoints) pose matrix for a plant.

    Joint-map keys are plant joints (see :func:`_check_joint_map`).

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


def _begin(session: Session, plant: Plant, joint_map: Mapping[str, str] | None):
    """Conversion's first stage: check, map, resample and prepare one session.

    Returns ``(lane, None)`` with the session's prepared inversion lane, or
    ``(None, reason)`` for a session that fails before its inversion.
    Raises what :func:`process_session` documents; the messages do not name
    the session, which in a batch is named by its directory.
    """
    if session.n_frames == 0 or not session.channel_names:
        raise ValueError("session is empty")
    if session.rate_hz not in (POSE_RATE_HZ, SOLVE_RATE_HZ):
        raise ConfigurationError(
            f"session is at {session.rate_hz} Hz, expected {POSE_RATE_HZ} or {SOLVE_RATE_HZ}"
        )
    min_frames = _min_frames(session.rate_hz)
    if session.n_frames < min_frames:
        raise ValueError(
            f"session has {session.n_frames} frames; "
            f"at least {min_frames} are needed at {session.rate_hz} Hz"
        )
    poses = _map_joints(session, plant, joint_map)
    if not np.isfinite(poses).all():
        frame = int(np.argwhere(~np.isfinite(poses).all(axis=1))[0, 0])
        return None, f"non-finite input at frame {frame}"
    q_solve = resample(poses, session.rate_hz, SOLVE_RATE_HZ, axis=0)
    return _prepare(plant, q_solve, SOLVE_RATE_HZ), None


def _finish(session: Session, plant: Plant, result) -> tuple[Session | None, dict]:
    """Conversion's last stage: the control session at the session's rate, or
    ``None`` when the inversion failed, and the record's fields."""
    fields = dict(frames=session.n_frames, infeasible=result.infeasible_frames,
                  max_residual=float(result.residuals.max()))
    if result.status != "ok":
        return None, dict(fields, reason=result.failure_reason)
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
    return out, fields


def process_session(
    session: Session,
    plant: Plant,
    joint_map: Mapping[str, str] | None = None,
) -> tuple[Session | None, SessionRecord]:
    """Convert one pose session into a tendon-control session.

    Resample from the session's rate (``POSE_RATE_HZ`` or ``SOLVE_RATE_HZ``)
    to the solve rate, differentiate, invert, and resample the recovered
    controls back to the session's rate. It runs the stages a batch runs on
    a group of sessions, on a group of one. ``joint_map`` maps plant joint
    names to session channel names, one joint to a channel (see
    :func:`_check_joint_map`); it is checked before the session. The
    session fails on a non-finite pose or by the fixed status rule of
    :func:`~myoctl.inverse.invert_trajectory`; the record then carries the
    reason and no output session is produced.

    Raises:
        ValueError: for an empty session, one with fewer frames than its
            rate needs to give ``MIN_FRAMES`` solve-rate frames (a
            precondition, not a failure), or what
            :func:`~myoctl.inverse.invert_trajectory` raises for the
            resampled poses.
        ConfigurationError: for rate or joint-map mismatches, such as a
            channel that would feed two joints.
    """
    _check_joint_map(joint_map, plant)
    start = time.perf_counter()
    lane, reason = _begin(session, plant, joint_map)
    if lane is None:
        return None, _record(session.id, time.perf_counter() - start, reason, session.n_frames)
    out, fields = _finish(session, plant, _invert_lanes(plant, [lane])[0])
    return out, _record(session.id, time.perf_counter() - start, **fields)


def _write_session_atomic(session: Session, final_dir: Path) -> None:
    """Write ``session`` to a temporary sibling directory, then rename it onto
    ``final_dir``. An earlier ``final_dir`` is renamed aside first and removed
    only once the new one is in place. A failed write or rename removes the
    temporary directory, puts the earlier directory back and raises."""
    tmp, aside = (final_dir.with_name(f".{tag}-{final_dir.name}-{os.getpid()}")
                  for tag in ("tmp", "old"))
    for stale in (tmp, aside):
        if stale.exists():
            shutil.rmtree(stale)
    try:
        write_session(session, tmp)
        if final_dir.exists():
            os.replace(final_dir, aside)
        os.replace(tmp, final_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        if aside.exists():
            os.replace(aside, final_dir)
        raise
    shutil.rmtree(aside, ignore_errors=True)


def _convert_group(args) -> list[SessionRecord]:
    """Convert the sessions in ``session_dirs`` as one group (see the module
    docstring), each to ``out_dir/<its directory name>``; each record
    carries that name as its id."""
    session_dirs, plant, joint_map, out_dir = args
    names = [Path(d).name for d in session_dirs]
    records: list[SessionRecord | None] = [None] * len(names)
    pending = []  # (index, session, lane, seconds spent on it so far)
    for i, session_dir in enumerate(session_dirs):
        if names[i] == _MANIFEST:
            records[i] = _record(names[i], 0.0, f"its output directory {_MANIFEST!r} "
                                 "would replace the batch manifest")
            continue
        start = time.perf_counter()
        try:
            session = read_session(session_dir)
            lane, reason = _begin(session, plant, joint_map)
        except Exception as exc:  # unreadable or misconfigured: record, don't abort
            records[i] = _record(names[i], time.perf_counter() - start,
                                 f"{type(exc).__name__}: {exc}")
            continue
        if lane is None:
            records[i] = _record(names[i], time.perf_counter() - start, reason, session.n_frames)
        else:
            pending.append((i, session, lane, time.perf_counter() - start))

    start = time.perf_counter()
    results = _invert_lanes(plant, [lane for _, _, lane, _ in pending]) if pending else []
    share = (time.perf_counter() - start) / max(len(pending), 1)
    for (i, session, _, spent), result in zip(pending, results):
        start = time.perf_counter()
        try:
            out, fields = _finish(session, plant, result)
            if out is not None:
                _write_session_atomic(out, Path(out_dir) / names[i])
        except Exception as exc:  # an unwritable output: record, don't abort
            fields = {"reason": f"{type(exc).__name__}: {exc}"}
        records[i] = _record(names[i], spent + share + time.perf_counter() - start, **fields)
    return records


def run_batch(
    input_dir,
    plant: Plant,
    out_dir,
    workers: int = 1,
    joint_map: Mapping[str, str] | None = None,
) -> Manifest:
    """Convert every session under ``input_dir``, writing to ``out_dir``.

    Sessions are any subdirectories holding a ``session.json``. Each is
    named by its directory: its output goes to ``out_dir/<directory name>``
    and its manifest record carries that name as its ``id``, whatever id its
    header holds. Unreadable or failing sessions become failed records and
    the batch continues; so does a directory named ``manifest.json``, whose
    output would replace the manifest. Consecutive sessions are converted
    in groups (see the module docstring). Every session is labelled by the
    fixed status rule that :func:`process_session` applies.

    ``joint_map`` (as in :func:`process_session`), the worker count and
    ``out_dir`` are checked once, before any session is read or ``out_dir``
    is created.

    Raises:
        ValueError: if the input directory holds no sessions, for a worker
            count below 1, or for an ``out_dir`` that resolves to
            ``input_dir``, where each output would replace its input
            session (the message names both paths).
        ConfigurationError: for joint-map keys that name no plant joint, or
            a channel that would feed two joints.
    """
    _check_joint_map(joint_map, plant)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    input_dir = Path(input_dir)
    out_dir = Path(out_dir)
    if out_dir.resolve() == input_dir.resolve():
        raise ValueError(f"out_dir {out_dir} resolves to input_dir {input_dir}; "
                         "the outputs would replace the input sessions")
    session_dirs = sorted(
        p for p in input_dir.iterdir() if p.is_dir() and (p / "session.json").exists()
    ) if input_dir.is_dir() else []
    if not session_dirs:
        raise ValueError(f"no sessions found in {input_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)

    size = min(-(-len(session_dirs) // workers), _GROUP_CAP)
    tasks = [([str(d) for d in session_dirs[i:i + size]], plant, joint_map, str(out_dir))
             for i in range(0, len(session_dirs), size)]
    if workers == 1 or len(tasks) == 1:
        groups = [_convert_group(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            groups = list(pool.map(_convert_group, tasks))

    # In directory-name order: groups are consecutive runs of the sorted directories.
    manifest = Manifest(records=tuple(r for group in groups for r in group))
    _write_json(out_dir / _MANIFEST, manifest.as_dict())
    return manifest
