"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import json
import time

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from myoctl.activation import _time_constant, smoothstep, step_activation
from myoctl.cli import parse_args, run
from myoctl.inverse import roundtrip
from myoctl.muscle import MuscleParams, fl_curve, fp_curve, fv_curve
from myoctl.plant import (
    make_fixture,
    rest_state,
    smooth_random_controls,
    tendon_kinematics,
    forward_step,
)
from myoctl.qp import BoxQp, _kkt_residual, solve_box_qp
from myoctl.timeseries import resample

from qp_oracle import enumerate_box_qp_optimum, random_box_qp


def report(number: int, detail: str) -> None:
    print(f"[acceptance] criterion {number}: PASS  ({detail})")


def test_criterion_1_roundtrip_toy_finger():
    from myoctl.inverse import invert_trajectory
    from myoctl.plant import rollout

    plant = make_fixture("toy_finger")
    dt = 1.0 / 500.0
    start = time.perf_counter()
    ctrl_ref = smooth_random_controls(plant.nactuators, 1000, dt, 1)
    reference = rollout(plant, rest_state(plant), ctrl_ref, dt)
    inversion = invert_trajectory(plant, reference.q, 500.0)
    replayed = rollout(plant, rest_state(plant), inversion.ctrl, dt)
    elapsed = time.perf_counter() - start

    rmse = float(np.sqrt(np.mean((replayed.q - reference.q) ** 2)))
    fraction = float(np.mean(inversion.residuals < 1e-6))
    assert rmse < 1e-2, f"trajectory RMSE {rmse}"
    assert fraction >= 0.99, f"only {fraction:.3%} of frames below 1e-6"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    report(1, f"rmse={rmse:.2e} rad, {fraction:.1%} frames < 1e-6, {elapsed:.1f} s")


def test_criterion_2_roundtrip_hand_like():
    plant = make_fixture("hand_like")
    assert plant.njoints == 23 and plant.nactuators == 39
    start = time.perf_counter()
    rep = roundtrip(plant, seed=1, duration=2.0, rate_hz=500.0)
    elapsed = time.perf_counter() - start
    assert rep.status == "ok", rep.status
    assert rep.rmse < 5e-2, f"trajectory RMSE {rep.rmse}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(2, f"23 joints/39 muscles, rmse={rep.rmse:.2e} rad, {elapsed:.1f} s")


def test_criterion_3_qp_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    converged_count = 0
    for _ in range(1000):
        pmat, qvec, lb, ub = random_box_qp(rng, max_dim=6)
        # 1/2 x'Px + q'x = 1/2 ||L'x - b||^2 - 1/2 b'b with P = LL', b = -L^-1 q.
        lower = cholesky(pmat, lower=True)
        bvec = -solve_triangular(lower, qvec, lower=True)
        problem = BoxQp(lower.T, bvec, lb, ub)
        x, diag = solve_box_qp(problem)
        reference = enumerate_box_qp_optimum(pmat, qvec, lb, ub)
        gap = diag.objective - 0.5 * bvec @ bvec - reference
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-8, f"objective gap {gap}"
        if diag.converged:
            converged_count += 1
            assert _kkt_residual(lower.T, bvec, lb, ub, x) <= 1e-10
    assert converged_count == 1000
    report(3, f"1000 problems, worst objective gap {worst_gap:.2e}, all KKT <= 1e-10")


def test_criterion_4_algebraic_inversion():
    # The inverse recovers each control from the activation step it
    # produced, by bisection on the simulator's own step; that step is
    # strictly increasing in the control wherever it is not clamped.
    from myoctl.inverse import _bisect_ctrl

    rng = np.random.default_rng(99)
    total = 0
    worst = 0.0
    while total < 100_000:
        n = 50_000
        act = rng.uniform(0.0, 1.0, n)
        ctrl = rng.uniform(0.0, 1.0, n)
        args = (rng.uniform(1e-4, 1e-2, n), rng.uniform(0.005, 0.05, n),
                rng.uniform(0.005, 0.05, n), rng.uniform(0.001, 0.05, n))
        act_next = step_activation(act, ctrl, *args)
        keep = (act_next > 0.0) & (act_next < 1.0)
        recovered = _bisect_ctrl(act, act_next, *args)
        worst = max(worst, float(np.abs(recovered[keep] - ctrl[keep]).max()))
        total += int(keep.sum())
    assert worst < 1e-9, f"round-trip error {worst}"

    # Bound saturation: the box edges, the activations that controls 0 and 1
    # reach, map back to those controls.
    sat_worst = 0.0
    for _ in range(500):
        act = rng.uniform(0.02, 0.98)
        args = (rng.uniform(5e-4, 5e-3), rng.uniform(0.01, 0.05),
                rng.uniform(0.01, 0.05), rng.uniform(0.001, 0.02))
        for edge in (0.0, 1.0):
            recovered = _bisect_ctrl(act, step_activation(act, edge, *args), *args)
            sat_worst = max(sat_worst, abs(float(recovered) - edge))
    assert sat_worst < 1e-9
    report(4, f"{total} tuples, worst recovery error {worst:.2e}, saturation {sat_worst:.2e}")


def test_criterion_5_activation_dynamics():
    dt = 0.002
    for ctrl in (0.0, 0.3, 0.8, 1.0):
        for act0 in (0.0, 0.5, 1.0):
            act = act0
            direction = np.sign(ctrl - act0)
            for _ in range(2000):
                nxt = step_activation(act, ctrl, dt, 0.01, 0.04, 0.005)
                assert 0.0 <= nxt <= 1.0
                if direction > 0:
                    assert act - 1e-15 <= nxt <= ctrl + 1e-12
                elif direction < 0:
                    assert ctrl - 1e-12 <= nxt <= act + 1e-15
                act = nxt
            assert act == pytest.approx(ctrl, abs=1e-9)

    tau_mid = _time_constant(0.4 - 0.4, 0.01, 0.04, 0.005)
    assert tau_mid == (0.01 + 0.04) / 2  # exact equality required

    assert smoothstep(0.5) == 0.5
    h = 1e-6
    assert abs(smoothstep(h) - smoothstep(-h)) / (2 * h) < 1e-6
    assert abs(smoothstep(1 + h) - smoothstep(1 - h)) / (2 * h) < 1e-6
    report(5, "monotone tracking, exact midpoint time constant, flat smoothstep ends")


def test_criterion_6_flv_contract():
    params = MuscleParams()
    assert fl_curve(1.0, params.lmin, params.lmax) == 1.0
    assert fv_curve(0.0, params.vmax, params.fvmax) == 1.0
    grid_low = np.linspace(0.0, 1.0, 501)
    assert np.all(np.asarray(fp_curve(grid_low, params.lmax, params.fpmax)) == 0.0)
    outside = np.concatenate(
        [np.linspace(params.lmin - 1.0, params.lmin, 200),
         np.linspace(params.lmax, params.lmax + 1.0, 200)]
    )
    assert np.all(np.asarray(fl_curve(outside, params.lmin, params.lmax)) == 0.0)
    assert fp_curve(params.lmax, params.lmax, params.fpmax) == pytest.approx(params.fpmax)

    h = 1e-4
    bound = 10.0 * h * 20.0
    lgrid = np.arange(params.lmin - 0.5, params.lmax + 0.5, h)
    fl = fl_curve(lgrid, params.lmin, params.lmax)
    fp = fp_curve(lgrid, params.lmax, params.fpmax)
    vgrid = np.arange(-2 * params.vmax, 2 * params.vmax, h)
    fv = np.asarray(fv_curve(vgrid, params.vmax, params.fvmax))
    assert np.abs(np.diff(fl)).max() < bound
    assert np.abs(np.diff(fp)).max() < bound
    assert np.abs(np.diff(fv)).max() < bound
    report(6, "curve normalization, supports and dense-grid continuity")


def test_criterion_7_virtual_work_invariant():
    from myoctl.plant import _gain_bias

    plant = make_fixture("toy_finger")
    dt = 0.002
    ctrl = smooth_random_controls(plant.nactuators, 1000, dt, 21)
    state = rest_state(plant)
    muscles = plant._muscle
    worst = 0.0
    for t in range(1000):
        lengths, velocities = tendon_kinematics(plant, state.q, state.qdot)
        nxt = forward_step(plant, state, ctrl[t], dt)
        gain, bias = _gain_bias(
            plant, (lengths - muscles.lt) / muscles.l0, velocities / muscles.l0
        )
        force = gain * nxt.act + bias
        balance = abs((plant.moment_arms @ force) @ state.qdot + force @ velocities)
        worst = max(worst, balance)
        assert balance < 1e-9
        state = nxt
    report(7, f"1000 steps, worst power imbalance {worst:.2e}")


def test_criterion_8_resampling():
    t = np.arange(8000) / 2000.0
    sine = np.sin(2 * np.pi * 10.0 * t)
    down = resample(sine, 2000, 500)
    up = resample(down, 500, 2000)
    assert len(down) == 2000  # exact length bookkeeping
    assert len(up) == 8000
    guard = 257
    err = up[guard:-guard] - sine[guard:-guard]
    rel = float(np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(sine[guard:-guard] ** 2)))
    assert rel < 1e-3
    report(8, f"10 Hz sine 2 kHz -> 500 Hz -> 2 kHz, interior rel RMSE {rel:.2e}")


def test_criterion_9_batch_robustness(tmp_path):
    plant_path = tmp_path / "plant.json"
    assert run(parse_args(
        ["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]
    )) == 0
    src = tmp_path / "sessions"
    for i in range(8):
        assert run(parse_args(
            ["simulate", "--plant", str(plant_path), "--out", str(src / f"s{i:02d}"),
             "--duration", "1.0", "--rate", "2000", "--seed", str(i)]
        )) == 0
    blob = (src / "s03" / "data.bin").read_bytes()
    (src / "s03" / "data.bin").write_bytes(blob[: len(blob) // 2 - 5])

    codes = {}
    manifests = {}
    for workers in (1, 8):
        out = tmp_path / f"out{workers}"
        codes[workers] = run(parse_args(
            ["batch", "--in", str(src), "--plant", str(plant_path),
             "--out", str(out), "--workers", str(workers)]
        ))
        manifests[workers] = json.loads((out / "manifest.json").read_text())

    for workers in (1, 8):
        assert codes[workers] == 1  # any failed session -> non-zero exit
        assert manifests[workers]["totals"] == {"sessions": 8, "ok": 7, "failed": 1}

    def strip(manifest):
        return [
            {k: v for k, v in record.items() if k != "wall_time_s"}
            for record in manifest["records"]
        ]

    assert strip(manifests[1]) == strip(manifests[8])
    report(9, "8 sessions (1 corrupt): 7 ok / 1 failed, worker-count invariant, exit 1")
