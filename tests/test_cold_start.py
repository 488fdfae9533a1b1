"""myoctl runs on numpy alone: no path loads a scipy module.

The random-control spline and the polyphase resampler are written in numpy,
so a fresh process that imports the package, synthesizes controls, runs a
round trip, resamples between two rates, converts a session recorded above
the solve rate or runs the CLI ``simulate`` command never imports scipy.
Only a batch that runs its groups in parallel loads the process pool's
modules (``concurrent.futures`` and ``multiprocessing``); none of these
paths, a one-worker batch among them, does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = r"""
import sys, tempfile
import numpy as np

def loaded(step):
    def package(*names):
        return ",".join(sorted(m for m in sys.modules if m.split(".")[0] in names)) or "-"
    print("after", step, "|", package("scipy"), "|", package("concurrent", "multiprocessing"))

import myoctl
loaded("import myoctl")

# Every file the program writes goes under root.
with tempfile.TemporaryDirectory() as root:
    import myoctl.cli
    loaded("import myoctl.cli")

    from myoctl.plant import make_fixture, rest_state, rollout, smooth_random_controls
    from myoctl.inverse import invert_trajectory, roundtrip
    from myoctl.timeseries import resample
    plant = make_fixture("toy_finger")
    t = np.arange(500) / 500.0
    ctrl = 0.5 + 0.4 * np.sin(2 * np.pi * np.outer(t, [1.0, 1.5, 2.0, 2.5]))
    q = rollout(plant, rest_state(plant), ctrl, 1.0 / 500.0).q
    assert invert_trajectory(plant, q, 500.0).status == "ok"
    loaded("invert_trajectory")

    def convert(q, rate_hz):
        session = myoctl.Session(id="s", rate_hz=rate_hz, channel_names=plant.joint_names,
                                 data=q.T, units=("rad",) * plant.njoints, metadata={})
        path = f"{root}/{rate_hz}/s"
        myoctl.write_session(session, path)
        out, record = myoctl.process_session(myoctl.read_session(path), plant)
        assert record.status == "ok", record.failure_reason

    convert(q, 500)
    loaded("process_session")

    ctrl = smooth_random_controls(plant.nactuators, 2000, 1.0 / 2000.0, 3, settle=0.1)
    loaded("smooth_random_controls")
    assert roundtrip(plant, seed=1, duration=0.5, rate_hz=500.0).status == "ok"
    loaded("roundtrip")
    q = rollout(plant, rest_state(plant), ctrl, 1.0 / 2000.0).q
    assert resample(q, 2000.0, 500.0, axis=0).shape == (500, plant.njoints)
    loaded("resample 2000 -> 500 Hz")
    convert(q, 2000)
    loaded("process_session at 2 kHz")

    for name in ("a", "b"):
        myoctl.write_session(myoctl.Session(id=name, rate_hz=2000, channel_names=plant.joint_names,
                                            data=q.T, units=("rad",) * plant.njoints, metadata={}),
                             f"{root}/in/{name}")
    manifest = myoctl.run_batch(f"{root}/in", plant, f"{root}/out", workers=1)
    assert manifest.totals["failed"] == 0
    loaded("run_batch, 1 worker")

    from myoctl.cli import parse_args, run
    assert run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", root + "/p.json"])) == 0
    assert run(parse_args(["simulate", "--plant", root + "/p.json", "--out", root + "/poses",
                           "--duration", "0.5", "--rate", "2000", "--seed", "3"])) == 0
    loaded("cli simulate")
"""


@pytest.fixture(scope="module")
def checkpoints():
    """Per checkpoint of PROGRAM, the scipy modules and the pool modules loaded by then."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env, capture_output=True, text=True, check=True,
    )
    # The CLI prints to the same stream; keep only the checkpoints.
    return {step: tuple(rest) for step, *rest in (
        line[len("after "):].split(" | ") for line in done.stdout.splitlines()
        if line.startswith("after "))}


STEPS = ("import myoctl", "import myoctl.cli", "invert_trajectory", "process_session",
         "smooth_random_controls", "roundtrip", "resample 2000 -> 500 Hz",
         "process_session at 2 kHz", "run_batch, 1 worker", "cli simulate")


def test_numpy_only_paths_load_no_scipy(checkpoints):
    assert {step: scipy for step, (scipy, _) in checkpoints.items()} == dict.fromkeys(STEPS, "-")


def test_serial_paths_load_no_process_pool(checkpoints):
    assert {step: pool for step, (_, pool) in checkpoints.items()} == dict.fromkeys(STEPS, "-")
