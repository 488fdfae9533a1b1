"""Smoke test of the benchmark at a tiny size.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import run as bench

TINY = bench.Size(roundtrip_s=0.1, sessions=2, session_s=0.3, settle_s=0.05, setups=1)
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def scratch_output(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    doc = bench.run_workload(workload, seed=3, seconds=0.01, trace=bool(trace), size=TINY)
    result = doc["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace:
        assert doc["details"]["qp_iteration_histogram"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_roundtrip_gate_rejects_a_corrupted_replay():
    myoctl = bench.load_program()
    plant = myoctl.plant.make_fixture("toy_finger")
    report = myoctl.inverse.roundtrip(plant, seed=3, duration=TINY.roundtrip_s)
    assert bench.check_roundtrip(report) == []
    report.replayed_q[10:] += 0.05
    assert any("RMSE" in p for p in bench.check_roundtrip(report))


def test_batch_gates_reject_corrupted_outputs(tmp_path):
    workload = bench.FingerBatch(bench.load_program(), 3, TINY, tmp_path / "work")
    workload.setup()
    reference = workload.make_reference()
    assert reference.failed == 0 and reference.attempted == TINY.sessions

    _, manifest, out_dir = workload.batch(1)
    assert bench.check_batch(manifest, out_dir, workload.reference) == {}
    payload = out_dir / "s01" / "data.bin"
    blob = bytearray(payload.read_bytes())
    blob[-4:] = bytes(4)  # last control sample of the last channel set to 0.0
    payload.write_bytes(bytes(blob))
    assert set(bench.check_batch(manifest, out_dir, workload.reference)) == {"s01"}

    # The first flexor held at full control no longer reproduces the poses.
    frames = len(blob) // (4 * workload.plant.nactuators)
    blob[: 4 * frames] = np.ones(frames, dtype="<f4").tobytes()
    payload.write_bytes(bytes(blob))
    failures = bench.check_replay(workload.plant, out_dir, workload.poses)
    assert set(failures) == {"s01"}
