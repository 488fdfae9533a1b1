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
of one worker sum to no more than its wall time. Each output directory is
installed whole by :func:`write_session`, and the manifest replaced
atomically. The worker count is ``run_batch``'s ``workers`` argument, 1 by
default; no environment variable sets it. Alone or in a batch, a session is
labelled by the inversion's one fixed status rule.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .inverse import MIN_FRAMES, _invert_lanes, _prepare
from .muscle import _require_int
from .plant import Plant, _require_names, _whole_number, _write_json
from .timeseries import resample

# bench/spans.py patches invert_trajectory in this module, so the name must
# stay importable here; conversion runs the inversion's two parts itself.
from .inverse import invert_trajectory  # noqa: F401

__all__ = [
    "SessionFormatError",
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
# Most sessions one batch worker inverts together. On 1000-frame trajectories
# (2 cores) a toy_finger trajectory inverted 2.5x cheaper in a group of 8 than
# alone, and one group of 16 took 0.69x the time of two groups of 8 on
# toy_finger but 0.997x on hand_like: the best cap may depend on the plant's
# size, and 8 stays until a batch measures it.
_GROUP_CAP = 8
# The batch manifest's file name in the output directory.
_MANIFEST = "manifest.json"
# What a session directory holds; write_session replaces nothing else.
_SESSION_FILES = {"session.json", "data.bin"}


class SessionFormatError(ValueError):
    """Raised for a session directory that cannot be read as a session; the
    message names the directory and the cause."""


class ConfigurationError(ValueError):
    """Raised when a session does not fit the plant it is processed with."""


@dataclass(eq=False)
class Session:
    """Named traces at a fixed sample rate.

    ``data`` is channel-major, ``(nchannels, nframes)``, stored as float32
    (the wire format) so write/read round trips are exact. Channel names and
    units must be strings and channel names distinct: a ``ValueError`` names
    any entry that is not a string and any name that repeats, and another
    names the shape of ``data`` that is not ``(nchannels, nframes)``.
    ``rate_hz`` must be a finite whole number of at least 1 (``2000.0`` is
    one, ``2.5``, ``True`` and ``"2000"`` are not), as :func:`read_session`
    requires; a ``ValueError`` names it, and it is stored as an ``int``.
    """

    id: str
    rate_hz: int
    channel_names: tuple[str, ...]
    data: np.ndarray
    units: tuple[str, ...] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.rate_hz = _whole_number("rate_hz", self.rate_hz, minimum=1)
        self.channel_names = tuple(self.channel_names)
        self.units = ("1",) * len(self.channel_names) if self.units is None else tuple(self.units)
        _require_names(ValueError, "channel_names", self.channel_names)
        _require_names(ValueError, "units", self.units, distinct=False)
        self.data = np.ascontiguousarray(np.atleast_2d(self.data), dtype=np.float32)
        if self.data.ndim != 2:
            raise ValueError(f"data has shape {self.data.shape}; a session needs "
                             "(nchannels, nframes)")
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
    """Install a session directory (``session.json`` plus ``data.bin``) at
    ``path``, whole: both files go into a fresh sibling directory, which is
    then renamed onto ``path``, creating its parents if needed. An earlier
    session at ``path`` is renamed aside first and removed only once the new
    one is in place, so readers see the old session or the new one, never a
    mix. A failed write or rename removes the temporary directory, puts the
    earlier session back and raises. Temporary siblings left by a crashed
    writer of the same process id are removed first. ``path`` is resolved
    first, so a symbolic link to a session directory names the new one.

    Raises:
        ValueError: naming ``path``, if it exists and is not a directory
            holding nothing but ``session.json`` and ``data.bin`` (such as
            ``.`` or a directory holding other files); ``path`` is left as
            it is.
    """
    target = Path(path).resolve()
    if target.exists() and (not target.is_dir() or set(os.listdir(target)) - _SESSION_FILES):
        raise ValueError(f"refusing to replace {path}: it is not a directory holding only "
                         "session.json and data.bin")
    tmp, aside = (target.with_name(f".{tag}-{target.name}-{os.getpid()}")
                  for tag in ("tmp", "old"))
    for stale in (tmp, aside):
        if stale.exists():
            shutil.rmtree(stale)
    try:
        tmp.mkdir(parents=True)
        (tmp / "session.json").write_text(json.dumps({
            "format": SESSION_FORMAT,
            "id": session.id,
            "rate_hz": session.rate_hz,
            "frames": session.n_frames,
            "channels": [
                {"name": name, "units": unit}
                for name, unit in zip(session.channel_names, session.units)
            ],
            "metadata": session.metadata,
        }, indent=2) + "\n")
        (tmp / "data.bin").write_bytes(session.data.astype("<f4").tobytes())
        if target.exists():
            os.replace(target, aside)
        os.replace(tmp, target)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        if aside.exists():
            os.replace(aside, target)
        raise
    shutil.rmtree(aside, ignore_errors=True)


def read_session(path) -> Session:
    """Read a session directory written by :func:`write_session`.

    Raises:
        SessionFormatError: naming ``path`` and the cause: a missing or
            unparsable ``session.json``, an unknown or missing format tag, a
            missing ``data.bin`` or one whose length differs from what the
            header promises, or a malformed header field, such as a frame
            count or rate that is not a whole number (at least 0 frames, at
            least 1 Hz), a channel name or unit that is not a string or a
            repeated channel name; the message names the field.
    """
    directory = Path(path)
    try:
        header = json.loads((directory / "session.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SessionFormatError(f"cannot parse session header in {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != SESSION_FORMAT:
        raise SessionFormatError(
            f"session in {path} is not in the expected {SESSION_FORMAT} format"
        )
    try:
        payload = (directory / "data.bin").read_bytes()
    except OSError as exc:
        raise SessionFormatError(f"session payload missing in {path}: {exc}") from exc
    try:
        frames = _whole_number("frames", header["frames"], minimum=0)
        channels = header["channels"]
        expected = 4 * frames * len(channels)
        if len(payload) == expected:
            return Session(
                id=str(header["id"]),
                rate_hz=header["rate_hz"],
                channel_names=tuple(entry["name"] for entry in channels),
                data=np.frombuffer(payload, dtype="<f4").reshape(len(channels), frames),
                units=tuple(entry.get("units", "1") for entry in channels),
                metadata=dict(header.get("metadata", {})),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SessionFormatError(f"session header in {path} is malformed: {exc}") from exc
    raise SessionFormatError(
        f"session payload in {path} holds {len(payload)} bytes, header promises {expected}"
    )


@dataclass(frozen=True)
class SessionRecord:
    """Per-session batch outcome; in a batch, ``id`` is the input directory's name.

    The two counts are at different rates: ``frames`` counts the session's
    frames at its own rate, while ``infeasible_frames`` counts frames at the
    500 Hz solve rate (``SOLVE_RATE_HZ``): a 2 kHz session of 2000 frames is
    solved as 500 frames, and up to 500 of them can be infeasible.
    """

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
        ConfigurationError: for joint-map keys or values that are not
            strings (the entries are named), keys that name no plant joint,
            or a channel that would feed two or more joints (named with
            them).
    """
    joint_map = joint_map or {}
    others = {k: v for k, v in joint_map.items() if not (isinstance(k, str) and isinstance(v, str))}
    if others:
        raise ConfigurationError(f"joint map keys and values must be strings, not {others}")
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
            joint-map key or value that is not a string or a channel that
            would feed two joints.
    """
    _check_joint_map(joint_map, plant)
    start = time.perf_counter()
    lane, reason = _begin(session, plant, joint_map)
    if lane is None:
        return None, _record(session.id, time.perf_counter() - start, reason, session.n_frames)
    out, fields = _finish(session, plant, _invert_lanes(plant, [lane])[0])
    return out, _record(session.id, time.perf_counter() - start, **fields)


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
                write_session(out, Path(out_dir) / names[i])
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

    ``joint_map`` (as in :func:`process_session`), the worker count,
    ``out_dir`` and every session's output directory are checked once,
    before any session is read or ``out_dir`` is created.

    Raises:
        ValueError: ``"workers must be an integer of at least 1, got
            <workers!r>"`` for a worker count that is not one (a bool or a
            float such as ``2.0`` included); if the input directory holds no
            sessions; for an ``out_dir`` that resolves to ``input_dir``,
            where each output would replace its input session (the message
            names both paths); or for a session whose ``out_dir/<name>``
            resolves to ``input_dir`` or a directory holding it, where that
            output would replace every input session (the message names the
            session and both paths).
        ConfigurationError: for a joint map that :func:`process_session`
            refuses.
    """
    _check_joint_map(joint_map, plant)
    _require_int("workers", workers, 1)
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
    held = input_dir.resolve()
    for d in session_dirs:
        target = out_dir / d.name
        if target.resolve() in (held, *held.parents):
            raise ValueError(f"session {d.name}: its output {target} resolves to input_dir "
                             f"{input_dir} or a directory holding it; installing it would "
                             "replace the input sessions")
    out_dir.mkdir(parents=True, exist_ok=True)

    size = min(-(-len(session_dirs) // workers), _GROUP_CAP)
    tasks = [([str(d) for d in session_dirs[i:i + size]], plant, joint_map, str(out_dir))
             for i in range(0, len(session_dirs), size)]
    if workers == 1 or len(tasks) == 1:
        groups = [_convert_group(task) for task in tasks]
    else:
        # The pool's modules load only here, so a process that never runs
        # sessions in parallel does not pay for them.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            groups = list(pool.map(_convert_group, tasks))

    # In directory-name order: groups are consecutive runs of the sorted directories.
    manifest = Manifest(records=tuple(r for group in groups for r in group))
    _write_json(out_dir / _MANIFEST, manifest.as_dict())
    return manifest
