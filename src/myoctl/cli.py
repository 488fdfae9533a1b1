"""Command-line interface.

Subcommands: ``simulate`` (forward rollout to a pose session), ``invert``
(pose session to tendon controls), ``roundtrip`` (simulate, invert, replay,
compare), ``batch`` (parallel conversion of a session directory),
``gen-fixture`` (write a plant definition) and ``resample``.

Exit codes: 0 success, 1 processing failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import pipeline
from .inverse import roundtrip
from .pipeline import Session, read_session, write_session
from .plant import (
    load_plant,
    make_fixture,
    rest_state,
    rollout,
    save_plant,
    smooth_random_controls,
)
from .timeseries import resample

__all__ = ["parse_args", "run", "main"]


def _checked(kind, name: str, ok, requirement: str):
    """An argparse type: ``kind(text)`` that satisfies ``ok``, with plain errors."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {name}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return convert


_positive_float = _checked(
    float, "a number", lambda v: math.isfinite(v) and v > 0.0, "positive and finite"
)
_non_negative_float = _checked(
    float, "a number", lambda v: math.isfinite(v) and v >= 0.0, "non-negative and finite"
)
_positive_int = _checked(int, "an integer", lambda v: v >= 1, "at least 1")

# The round trip's bound on the trajectory RMSE (rad), the same as
# acceptance criterion 1's and the benchmark's gate.
_RMSE_TOL_RAD = 1e-2


def parse_args(argv=None) -> argparse.Namespace:
    """Parse and validate arguments; argparse exits with code 2 on misuse."""
    parser = argparse.ArgumentParser(
        prog="myoctl",
        description="Muscle-tendon actuation toolkit: simulate, invert, batch-convert.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="forward-simulate seeded controls to a pose session")
    p_sim.add_argument("--plant", required=True, help="plant definition file")
    p_sim.add_argument("--out", required=True, help="output session directory")
    p_sim.add_argument("--duration", type=_positive_float, default=2.0,
                       help="seconds to simulate")
    p_sim.add_argument("--rate", type=_positive_int, default=500, help="simulation rate in Hz")
    p_sim.add_argument("--seed", type=int, default=0, help="control-generator seed")
    p_sim.add_argument("--settle", type=_non_negative_float, default=0.25,
                       help="seconds of zero control at both ends (rest-to-rest sessions)")
    p_sim.add_argument("--save-ctrl", default=None, help="also write the applied controls here")

    p_inv = sub.add_parser("invert", help="recover tendon controls from a pose session")
    p_inv.add_argument("--plant", required=True)
    p_inv.add_argument("--in", dest="input", required=True, help="pose session directory")
    p_inv.add_argument("--out", required=True, help="output session directory")
    p_inv.add_argument("--joint-map", default=None, help="JSON file mapping plant joints to channels")

    p_rt = sub.add_parser("roundtrip", help="simulate, invert, replay, compare trajectories")
    group = p_rt.add_mutually_exclusive_group()
    group.add_argument("--plant", default=None)
    group.add_argument("--kind", default="toy_finger",
                       choices=["toy_finger", "hand_like"], help="built-in fixture")
    p_rt.add_argument("--seed", type=int, default=1)
    p_rt.add_argument("--duration", type=_positive_float, default=2.0)
    p_rt.add_argument("--rate", type=_positive_int, default=500)

    p_batch = sub.add_parser("batch", help="convert every session in a directory")
    p_batch.add_argument("--in", dest="input", required=True)
    p_batch.add_argument("--plant", required=True)
    p_batch.add_argument("--out", required=True)
    p_batch.add_argument("--workers", type=_positive_int, default=1,
                         help="worker count (default 1)")
    p_batch.add_argument("--joint-map", default=None)

    p_gen = sub.add_parser("gen-fixture", help="write a plant definition file")
    p_gen.add_argument("--kind", required=True, choices=["toy_finger", "hand_like", "random"])
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--njoints", type=_positive_int, default=None)
    p_gen.add_argument("--nactuators", type=_positive_int, default=None)

    p_rs = sub.add_parser("resample", help="resample a session to a new rate")
    p_rs.add_argument("--in", dest="input", required=True)
    p_rs.add_argument("--out", required=True)
    p_rs.add_argument("--to-hz", type=_positive_int, required=True)

    return parser.parse_args(argv)


def _load_joint_map(path):
    if path is None:
        return None
    table = json.loads(Path(path).read_text())
    if not isinstance(table, dict):
        raise ValueError(f"joint map {path} must be a JSON object")
    return {str(k): str(v) for k, v in table.items()}


def _cmd_simulate(args) -> int:
    plant = load_plant(args.plant)
    dt = 1.0 / args.rate
    nframes = int(round(args.duration * args.rate))
    if nframes < 2:
        raise ValueError(f"--duration {args.duration} s at --rate {args.rate} Hz gives "
                         f"{nframes} frames; simulate needs at least 2")
    ctrl = smooth_random_controls(
        plant.nactuators, nframes, dt, args.seed, settle=args.settle
    )
    result = rollout(plant, rest_state(plant), ctrl, dt)
    session_id = Path(args.out).name
    poses = Session(
        id=session_id,
        rate_hz=args.rate,
        channel_names=plant.joint_names,
        data=result.q.T,
        units=("rad",) * plant.njoints,
        metadata={"plant": plant.name, "seed": args.seed, "kind": "pose"},
    )
    write_session(poses, args.out)
    if args.save_ctrl:
        controls = Session(
            id=Path(args.save_ctrl).name,
            rate_hz=args.rate,
            channel_names=plant.actuator_names,
            data=ctrl.T,
            units=("1",) * plant.nactuators,
            metadata={"plant": plant.name, "seed": args.seed, "kind": "tendon_ctrl"},
        )
        write_session(controls, args.save_ctrl)
    print(f"simulated {nframes} frames at {args.rate} Hz -> {args.out}")
    return 0


def _cmd_invert(args) -> int:
    plant = load_plant(args.plant)
    session = read_session(args.input)
    out, record = pipeline.process_session(session, plant, _load_joint_map(args.joint_map))
    if out is None:
        print(f"inversion failed: {record.failure_reason}", file=sys.stderr)
        return 1
    write_session(out, args.out)
    print(
        f"{record.id}: ok, {record.frames} frames, "
        f"max residual {record.max_residual:.3e}"
    )
    return 0


def _cmd_roundtrip(args) -> int:
    plant = load_plant(args.plant) if args.plant else make_fixture(args.kind)
    report = roundtrip(
        plant, seed=args.seed, duration=args.duration, rate_hz=float(args.rate)
    )
    print(f"trajectory RMSE: {report.rmse:.6e} rad")
    print(f"max residual:    {report.max_residual:.6e}")
    print(f"inversion:       {report.status} ({report.infeasible_frames} infeasible frames)")
    if report.status != "ok" or report.rmse >= _RMSE_TOL_RAD:
        print(f"roundtrip failed (tolerance {_RMSE_TOL_RAD} rad)", file=sys.stderr)
        return 1
    return 0


def _cmd_batch(args) -> int:
    plant = load_plant(args.plant)
    manifest = pipeline.run_batch(
        args.input, plant, args.out, workers=args.workers,
        joint_map=_load_joint_map(args.joint_map),
    )
    totals = manifest.totals
    print(f"batch: {totals['ok']} ok, {totals['failed']} failed of {totals['sessions']}")
    return 0 if totals["failed"] == 0 else 1


def _cmd_gen_fixture(args) -> int:
    plant = make_fixture(
        args.kind, seed=args.seed, njoints=args.njoints, nactuators=args.nactuators
    )
    save_plant(plant, args.out)
    print(f"wrote {plant.name} ({plant.njoints} joints, {plant.nactuators} actuators) -> {args.out}")
    return 0


def _cmd_resample(args) -> int:
    session = read_session(args.input)
    data = resample(
        np.asarray(session.data, dtype=float), session.rate_hz, args.to_hz, axis=1
    )
    out = Session(
        id=session.id,
        rate_hz=args.to_hz,
        channel_names=session.channel_names,
        data=data,
        units=session.units,
        metadata=dict(session.metadata),
    )
    write_session(out, args.out)
    print(f"resampled {session.rate_hz} Hz -> {args.to_hz} Hz, {out.n_frames} frames")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "invert": _cmd_invert,
    "roundtrip": _cmd_roundtrip,
    "batch": _cmd_batch,
    "gen-fixture": _cmd_gen_fixture,
    "resample": _cmd_resample,
}


def run(args: argparse.Namespace) -> int:
    """Dispatch a parsed command; processing failures map to exit code 1."""
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    sys.exit(run(parse_args(argv)))
