"""The frame loop with each frame's solve checked inside it.

``myoctl.inverse._invert_lanes`` logs each frame's solution and checks every
frame at once after the loop, on problems it rebuilds from the activation
log. :func:`invert_lanes` runs the same loop the way it ran before: each
frame solves its ``(lanes, ·)`` stack and then computes, on that stack, the
residual ``A x - b``, the gradient ``A'r`` and the projected-gradient KKT
residual of every lane, and logs the residual vectors and the verdicts. Both
must give the same bytes in every :class:`~myoctl.inverse.TrajectoryInversion`
field.
"""

import numpy as np

from myoctl.inverse import TrajectoryInversion, _frame_problem, _live, _recover_ctrl
from myoctl.qp import BvlsSolver

KKT_TOL = 1e-10
MAX_INFEASIBLE_FRACTION = 0.01


def solve_and_check(solver, b, lb, ub):
    """``solver.solve`` on one frame's stack, then that stack's residual,
    gradient and KKT verdict: ``(x, iterations, converged, residual)``."""
    x, iterations = solver.solve(b, lb, ub)
    residual = (solver.A @ x[..., None])[..., 0] - b
    gradient = (solver.A.T @ residual[..., None])[..., 0]
    kkt = np.abs(x - np.minimum(np.maximum(x - gradient, lb), ub)).max(axis=-1, initial=0.0)
    return x, iterations, kkt <= KKT_TOL, residual


def invert_lanes(plant, lanes):
    """Invert prepared lanes of one rate, longest first, checking each frame
    as it is solved; returns one inversion per lane, in the given order."""
    filter_args = (np.asarray(lanes[0].dt), *plant._muscle.taus)
    solver = BvlsSolver(plant.moment_arms)
    order = sorted(range(len(lanes)), key=lambda i: -lanes[i].nframes)
    act = [np.zeros(plant.nactuators) for _ in lanes]
    logs = [dict(act=[], iterations=[], converged=[], residual=[]) for _ in lanes]
    for t in range(lanes[order[0]].nframes):
        running = [i for i in order if lanes[i].nframes > t]
        a = np.stack([act[i] for i in running])
        gain = np.stack([lanes[i].gain[t] for i in running])
        gap_base = np.stack([lanes[i].gap_base[t] for i in running])
        live_gain, safe_gain = _live(gain)
        b, lb, ub, bounds = _frame_problem(solver.A, a, gain, gap_base, live_gain, filter_args)
        x, iterations, converged, residual = solve_and_check(solver, b, lb, ub)
        a_next = np.minimum(np.maximum(a + x / safe_gain, bounds[0]), bounds[1])
        for row, i in enumerate(running):
            logs[i]["act"].append(act[i])
            logs[i]["iterations"].append(iterations[row])
            logs[i]["converged"].append(converged[row])
            logs[i]["residual"].append(np.abs(residual[row]).max())
            act[i] = a_next[row]
    results = []
    for lane, log, last in zip(lanes, logs, act):
        n = lane.nframes
        lane_act = np.array(log["act"] + [last])
        residuals = np.array(log["residual"])
        causes = np.where(np.array(log["converged"]),
                          np.where(residuals <= lane.thresholds, 0, 1), 2).astype(np.int8)
        infeasible = int(np.count_nonzero(causes))
        failed = infeasible > MAX_INFEASIBLE_FRACTION * n
        results.append(TrajectoryInversion(
            ctrl=_recover_ctrl(lane_act[:-1], lane_act[1:], *filter_args),
            residuals=residuals,
            act=lane_act[:-1],
            status="failed" if failed else "ok",
            failure_reason=f"{infeasible} of {n} frames infeasible" if failed else None,
            infeasible_frames=infeasible,
            iterations=np.array(log["iterations"]),
            causes=causes,
        ))
    return results
