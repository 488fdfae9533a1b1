"""The numpy-only paths load no scipy module.

scipy is imported only where resampling between two rates and the
random-control spline use it, so a fresh process that imports the package,
inverts a trajectory or converts a session already at the solve rate starts
on numpy alone.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.signal", "scipy.interpolate", "scipy.stats")

PROGRAM = r"""
import sys, tempfile
import numpy as np

def loaded(step):
    heavy = sorted(m for m in {heavy!r} if m in sys.modules)
    print(step, ",".join(heavy) or "-")

import myoctl
loaded("import myoctl")
import myoctl.cli
loaded("import myoctl.cli")

from myoctl.plant import make_fixture, rest_state, rollout
from myoctl.inverse import invert_trajectory
plant = make_fixture("toy_finger")
t = np.arange(500) / 500.0
ctrl = 0.5 + 0.4 * np.sin(2 * np.pi * np.outer(t, [1.0, 1.5, 2.0, 2.5]))
q = rollout(plant, rest_state(plant), ctrl, 1.0 / 500.0).q
assert invert_trajectory(plant, q, 500.0).status == "ok"
loaded("invert_trajectory")

session = myoctl.Session(id="s", rate_hz=500, channel_names=plant.joint_names,
                         data=q.T, units=("rad",) * plant.njoints, metadata={{}})
path = tempfile.mkdtemp() + "/s"
myoctl.write_session(session, path)
out, record = myoctl.process_session(myoctl.read_session(path), plant)
assert record.status == "ok", record.failure_reason
loaded("process_session")
"""


def test_numpy_only_paths_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM.format(heavy=HEAVY)],
        env=env, capture_output=True, text=True, check=True,
    )
    steps = dict(line.rsplit(" ", 1) for line in done.stdout.splitlines())
    assert steps == {
        "import myoctl": "-",
        "import myoctl.cli": "-",
        "invert_trajectory": "-",
        "process_session": "-",
    }
