"""myoctl benchmark: round trips and batch conversion on the toy_finger plant.

Run from the root of a checkout:

    python3 bench/run.py --workload finger_roundtrip --seed 1 --seconds 35 --trace 0

The program is imported from ``src/`` of the same checkout. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Each run also writes a result file,
and with ``--trace 1`` its spans, under ``.bench_out/``. See README.md for
why each workload exists and how the metrics relate.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SOLVE_HZ = 500
POSE_HZ = 2000
# Acceptance tolerance on round-trip joint-angle RMSE (criterion 1).
RMSE_TOL_RAD = 1e-2
BATCH_WORKERS = 2
# Fewest operations an untraced run measures, however long they take.
MIN_OPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Size:
    """Problem sizes; the command line always uses :data:`FULL`."""

    roundtrip_s: float = 2.0  # 1000 frames at 500 Hz per round trip
    sessions: int = 8
    session_s: float = 2.0  # 4000 pose frames at 2 kHz per session
    settle_s: float = 0.1  # rest-to-rest session edges
    setups: int = 3


FULL = Size()


class ProgramMissing(RuntimeError):
    """Raised when the checkout holds no importable ``src/myoctl``."""


def load_program():
    """Import ``myoctl`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "myoctl" / "__init__.py").is_file():
        raise ProgramMissing(f"no myoctl package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import myoctl
    import myoctl.inverse
    import myoctl.pipeline
    import myoctl.plant

    if Path(myoctl.__file__).resolve().parent != (SRC / "myoctl").resolve():
        raise ProgramMissing(f"myoctl was imported from {myoctl.__file__}, not {SRC}")
    return myoctl


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    threads = {}
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[Path(lib_path).name] = int(getter())
                break
    return threads


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def import_fresh() -> None:
    """Import myoctl in a fresh interpreter, as every new user process does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import myoctl"], env=env, check=True)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# Correctness gates. Each returns what failed; empty means correct.


def check_roundtrip(report, tol: float = RMSE_TOL_RAD) -> list[str]:
    """A round trip is correct when it is ok and replays within ``tol``."""
    import numpy as np

    problems = []
    if report.status != "ok":
        problems.append(f"status {report.status} ({report.infeasible_frames} infeasible frames)")
    rmse = float(np.sqrt(np.mean((report.replayed_q - report.reference_q) ** 2)))
    if not rmse < tol:
        problems.append(f"replay RMSE {rmse:.3e} rad not below {tol:g}")
    if not (np.isfinite(report.recovered_ctrl).all()
            and report.recovered_ctrl.min() >= 0.0 and report.recovered_ctrl.max() <= 1.0):
        problems.append("recovered controls outside [0, 1]")
    return problems


def output_digests(out_dir: Path) -> dict[str, tuple]:
    """Per session: its manifest record minus the wall time, and a digest of its files."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    outputs = {}
    for record in manifest["records"]:
        session_dir = out_dir / record["id"]
        digest = None
        if session_dir.is_dir():
            digest = hashlib.sha256((session_dir / "session.json").read_bytes()
                                    + (session_dir / "data.bin").read_bytes()).hexdigest()
        outputs[record["id"]] = ({k: v for k, v in record.items() if k != "wall_time_s"}, digest)
    return outputs


def not_ok(manifest) -> dict[str, str]:
    """Sessions the batch itself reports as failed, with the reason."""
    return {r.id: f"{r.status} ({r.failure_reason})" for r in manifest.records
            if r.status != "ok"}


def check_batch(manifest, out_dir: Path, reference: dict) -> dict[str, str]:
    """Failing sessions with the reason: not ok, or not byte-identical to the reference."""
    failures = not_ok(manifest)
    outputs = output_digests(out_dir)
    for sid, (record, digest) in reference.items():
        if sid not in outputs:
            failures.setdefault(sid, "missing from the manifest")
        elif outputs[sid][0] != record:
            failures.setdefault(sid, "manifest record differs from the reference batch")
        elif outputs[sid][1] != digest:
            failures.setdefault(sid, "output bytes differ from the reference batch")
    return failures


def _replay_rmse(task) -> float:
    """Joint-angle RMSE of one converted control session replayed from rest."""
    import numpy as np
    from myoctl.pipeline import read_session
    from myoctl.plant import rest_state, rollout

    plant, session_dir, q_ref = task
    ctrl = read_session(session_dir).data.T.astype(float)
    replay = rollout(plant, rest_state(plant), ctrl, 1.0 / POSE_HZ)
    return float(np.sqrt(np.mean((replay.q - q_ref) ** 2)))


def check_replay(plant, out_dir: Path, reference_q: dict,
                 tol: float = RMSE_TOL_RAD) -> dict[str, str]:
    """Failing sessions whose converted controls do not replay to their poses.

    The replays run in :data:`BATCH_WORKERS` processes, as the pooled batch does.
    """
    failures = {sid: "no output session" for sid in reference_q
                if not (out_dir / sid).is_dir()}
    tasks = [(plant, out_dir / sid, q_ref) for sid, q_ref in reference_q.items()
             if sid not in failures]
    with ProcessPoolExecutor(max_workers=BATCH_WORKERS) as pool:
        for (_, session_dir, _), rmse in zip(tasks, pool.map(_replay_rmse, tasks)):
            if not rmse < tol:
                failures[session_dir.name] = f"replay RMSE {rmse:.3e} rad not below {tol:g}"
    return failures


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Outcome:
    """One operation: its wall time and what it attempted."""

    wall_s: float
    attempted: int
    failed: int
    problems: list[str]
    frames: int
    infeasible: int
    session_walls: list[float] = field(default_factory=list)


class FingerRoundtrip:
    """``inverse.roundtrip`` on toy_finger at 500 Hz; an operation is one call."""

    name = "finger_roundtrip"

    def __init__(self, myoctl, seed: int, size: Size, workdir: Path) -> None:
        self.m, self.seed, self.size = myoctl, seed, size
        self.plant = None

    def setup(self, traced: bool = False) -> None:
        self.plant = self.m.plant.make_fixture("toy_finger")

    def run(self, index: int) -> Outcome:
        start = time.perf_counter()
        report = self.m.inverse.roundtrip(
            self.plant, seed=self.seed * 1000 + index, duration=self.size.roundtrip_s,
            rate_hz=SOLVE_HZ,
        )
        wall = time.perf_counter() - start
        problems = check_roundtrip(report)
        return Outcome(wall, 1, int(bool(problems)), problems, report.frames,
                       report.infeasible_frames)

    def close(self) -> None:
        pass


def _simulate_session(task):
    """Simulate one pose session from rest and write it; return its poses as stored."""
    from myoctl.pipeline import Session, write_session
    from myoctl.plant import rest_state, rollout, smooth_random_controls

    plant, sid, seed, size, path = task
    dt = 1.0 / POSE_HZ
    ctrl = smooth_random_controls(plant.nactuators, int(round(size.session_s * POSE_HZ)), dt,
                                  seed, settle=size.settle_s)
    poses = rollout(plant, rest_state(plant), ctrl, dt)
    session = Session(
        id=sid, rate_hz=POSE_HZ, channel_names=plant.joint_names, data=poses.q.T,
        units=("rad",) * plant.njoints,
        metadata={"plant": plant.name, "seed": seed, "kind": "pose"},
    )
    write_session(session, path)
    # The batch reads the poses as stored (float32); the replay gate compares with those.
    return session.data.T.astype(float)


class FingerBatch:
    """``pipeline.run_batch`` over toy_finger 2 kHz pose sessions written in set-up.

    Every set-up simulates and writes the same sessions from the run's seed,
    so set-up can be timed several times while operations convert one set.
    """

    name = "finger_batch"

    def __init__(self, myoctl, seed: int, size: Size, workdir: Path) -> None:
        self.m, self.seed, self.size, self.workdir = myoctl, seed, size, workdir
        self.plant = None
        self.inputs = workdir / "in"
        self.poses: dict = {}  # per session, the replay gate's target
        # Per session, what every later batch must reproduce; set by make_reference.
        self.reference: dict = {}

    def setup(self, traced: bool = False) -> None:
        """Simulate and write the sessions, in :data:`BATCH_WORKERS` processes.

        A traced set-up simulates in this process, where its spans are recorded.
        """
        self.plant = self.m.plant.make_fixture("toy_finger")
        shutil.rmtree(self.inputs, ignore_errors=True)
        tasks = [(self.plant, f"s{i:02d}", self.seed * 100 + i, self.size,
                  self.inputs / f"s{i:02d}") for i in range(self.size.sessions)]
        if traced:
            poses = [_simulate_session(task) for task in tasks]
        else:
            with ProcessPoolExecutor(max_workers=BATCH_WORKERS) as pool:
                poses = list(pool.map(_simulate_session, tasks))
        self.poses = {task[1]: q for task, q in zip(tasks, poses)}

    def batch(self, workers: int) -> tuple[float, object, Path]:
        out_dir = self.workdir / f"out_w{workers}"
        shutil.rmtree(out_dir, ignore_errors=True)
        start = time.perf_counter()
        manifest = self.m.pipeline.run_batch(self.inputs, self.plant, out_dir, workers=workers)
        return time.perf_counter() - start, manifest, out_dir

    def _outcome(self, wall: float, manifest, failures: dict[str, str]) -> Outcome:
        return Outcome(
            wall, len(manifest.records), len(failures),
            [f"{sid}: {why}" for sid, why in sorted(failures.items())],
            sum(round(r.frames * SOLVE_HZ / POSE_HZ) for r in manifest.records),
            sum(r.infeasible_frames for r in manifest.records),
            [r.wall_time_s for r in manifest.records],
        )

    def make_reference(self) -> Outcome:
        """A pooled batch, checked by replay, that every later batch must reproduce."""
        wall, manifest, out_dir = self.batch(BATCH_WORKERS)
        self.reference = output_digests(out_dir)
        replay = check_replay(self.plant, out_dir, self.poses)
        return self._outcome(wall, manifest, {**replay, **not_ok(manifest)})

    def run(self, index: int, workers: int = 1) -> Outcome:
        wall, manifest, out_dir = self.batch(workers)
        return self._outcome(wall, manifest, check_batch(manifest, out_dir, self.reference))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (FingerRoundtrip, FingerBatch)}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def metric_units() -> dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def _setup_once(workload, tracer=None) -> float:
    start = time.perf_counter()
    import_fresh()
    if tracer is None:
        workload.setup()
    else:
        with tracer.installed(), tracer.operation(spans.SETUP_OP):
            workload.setup(traced=True)
    return time.perf_counter() - start


def _tally(outcomes) -> dict:
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "frames": sum(o.frames for o in outcomes),
        "infeasible": sum(o.infeasible for o in outcomes),
        "problems": [p for o in outcomes for p in o.problems],
    }


def measure(workload, seconds: float, size: Size) -> tuple[dict, dict, dict]:
    """Untraced run: end-to-end metrics, their sample counts, and raw samples."""
    setups = [_setup_once(workload) for _ in range(size.setups)]
    checked = [workload.make_reference()] if isinstance(workload, FingerBatch) else []
    ops: list[Outcome] = []
    deadline = time.perf_counter() + seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        ops.append(workload.run(len(ops)))
    walls = [o.wall_s for o in ops]
    tally = _tally(checked + ops)
    metrics = {
        "setup_s": _median(setups),
        "op_p50_s": _median(walls),
        "ok_frac": 1.0 - tally["failed"] / tally["attempted"],
        "feasible_frac": 1.0 - tally["infeasible"] / tally["frames"],
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": len(setups), "op_p50_s": len(walls), "ok_frac": tally["attempted"],
               "feasible_frac": tally["frames"], "peak_rss_mb": 1}
    return metrics, samples, dict(tally, setups_s=setups, op_walls_s=walls,
                                  session_walls_s=[o.session_walls for o in ops])


def measure_traced(workload, seconds: float) -> tuple[dict, dict, dict]:
    """Traced run: per-layer metrics from spans, plus untraced pool and overhead numbers.

    Operations alternate between untraced and traced, so the tracing overhead
    is the difference of their medians. On the batch workload every cycle
    also runs an untraced batch with :data:`BATCH_WORKERS` workers, for the
    pool numbers; traced batches use one worker so all spans stay in this
    process.
    """
    tracer = spans.Tracer()
    _setup_once(workload, tracer)
    is_batch = isinstance(workload, FingerBatch)
    checked = [workload.make_reference()] if is_batch else []
    plain: list[Outcome] = []
    pooled: list[Outcome] = []
    traced: list[Outcome] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while not traced or time.perf_counter() < deadline:
        plain.append(workload.run(index))
        if is_batch:
            pooled.append(workload.run(index, workers=BATCH_WORKERS))
        with tracer.installed(), tracer.operation(f"{workload.name}.{index}"):
            traced.append(workload.run(index))
        index += 1
    tally = _tally(checked + plain + pooled + traced)

    layer = spans.layer_metrics(tracer.spans, len(traced))
    plain_wall = _median([o.wall_s for o in plain])
    traced_wall = _median([o.wall_s for o in traced])
    layer["trace.overhead_s"] = traced_wall - plain_wall
    layer["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall

    w1_wall = plain_wall if is_batch else 0.0
    w2_wall = _median([o.wall_s for o in pooled])
    busy = [(sum(o.session_walls), BATCH_WORKERS * o.wall_s) for o in pooled]
    layer.update({
        "pipeline.batch_w1_s": w1_wall,
        "pipeline.batch_w2_s": w2_wall,
        "pipeline.session_p50_s": _median([s for o in plain for s in o.session_walls]),
        "pipeline.pool_speedup": w1_wall / w2_wall if w2_wall else 0.0,
        "pipeline.pool_efficiency": _median([used / offered for used, offered in busy]),
        "pipeline.pool_idle_s": _median([offered - used for used, offered in busy]),
    })

    frames = spans.qp_frames(tracer.spans)
    raw = dict(
        tally,
        qp_iteration_histogram=spans.iteration_histogram(frames),
        capped_frames=[f for f in frames if f["capped"]],
        tracer=tracer,
    )
    samples = {"traced_ops": len(traced), "untraced_ops": len(plain), "pooled_batches": len(pooled)}
    return layer, samples, raw


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL) -> dict:
    """Run one workload and return the result document (the last stdout line is part of it)."""
    myoctl = load_program()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workload = WORKLOADS[name](myoctl, seed, size, workdir)
    try:
        if trace:
            metrics, samples, raw = measure_traced(workload, seconds)
        else:
            metrics, samples, raw = measure(workload, seconds, size)
    finally:
        workload.close()
    units = metric_units()
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "facts": machine_facts(), "samples": samples,
        **{k: v for k, v in raw.items() if k != "tracer"},
    }
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(dict(details, result=result), indent=1) + "\n")
    if trace:
        raw["tracer"].dump(stem.with_suffix(".spans.json.gz"), {"workload": name, "seed": seed})
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread per process, set before numpy loads, so two pool workers
    # never run more threads than the two cores the benchmark was sized on.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    try:
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    details = doc["details"]
    threads = sorted(set(details["facts"]["blas_threads"].values())) or ["unknown"]
    print(f"facts {json.dumps(details['facts'])}; BLAS threads per process: "
          + ", ".join(map(str, threads)))
    print("samples " + json.dumps(details["samples"]))
    if args.trace:
        print("qp iterations per frame " + json.dumps(details["qp_iteration_histogram"])
              + f"; capped frames: {len(details['capped_frames'])}")
    for problem in details["problems"][:20]:
        print(f"FAILED {problem}")
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
