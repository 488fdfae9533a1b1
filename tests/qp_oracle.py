"""Independent checks of box-constrained least-squares and QP solutions.

:func:`enumerate_box_qp_optimum` is a brute-force optimum for small
box-constrained QPs: it enumerates all 3^n lower/upper/free sign patterns,
solves the reduced equality system on the free block, keeps primal-feasible
candidates, and returns the best objective. It is only valid for strictly
convex problems (the reduced systems must be solvable), which the random
generators guarantee by construction. :func:`kkt_residual` measures how far
a point is from satisfying a bounded least-squares problem's optimality
conditions. :func:`bvls_per_row` is BVLS solved one problem at a time, the
frozen reference for :class:`myoctl.qp.BvlsSolver`'s bits, and
:func:`first_initialization_exit` says how its first initialization step
ends.
"""

import itertools

import numpy as np


def kkt_residual(A, b, lb, ub, x) -> float:
    """Projected-gradient residual ``||x - clip(x - A'(Ax - b), lb, ub)||_inf``.

    It is 0 exactly at a minimizer of ``1/2 ||Ax - b||^2`` over the box
    ``lb <= x <= ub``; the solver calls a solve converged at ``1e-10``.
    """
    return float(np.abs(x - np.clip(x - A.T @ (A @ x - b), lb, ub)).max(initial=0.0))


def enumerate_box_qp_optimum(P, q, lb, ub):
    n = len(q)
    best = np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pattern = np.asarray(pattern)
        x = np.where(pattern == 1, lb, np.where(pattern == 2, ub, 0.0))
        free = pattern == 0
        if free.any():
            rhs = -(q[free] + P[np.ix_(free, ~free)] @ x[~free])
            sol = np.linalg.solve(P[np.ix_(free, free)], rhs)
            if np.any(sol < lb[free] - 1e-10) or np.any(sol > ub[free] + 1e-10):
                continue
            x = x.copy()
            x[free] = sol
        best = min(best, float(0.5 * x @ P @ x + q @ x))
    return best


def random_box_qp(rng, max_dim=6):
    """Strictly convex random problem with a finite random box."""
    n = int(rng.integers(1, max_dim + 1))
    a_mat = rng.standard_normal((n, n))
    pmat = a_mat.T @ a_mat + 1e-9 * np.eye(n)
    pmat = 0.5 * (pmat + pmat.T)
    qvec = rng.standard_normal(n)
    lo = rng.standard_normal(n)
    hi = rng.standard_normal(n)
    return pmat, qvec, np.minimum(lo, hi), np.maximum(lo, hi)


def first_initialization_exit(solver, b, lb, ub) -> str:
    """How BVLS's first initialization step ends for one problem on ``solver.A``.

    ``"first step"``: the unbounded first step lies in a box that pins
    nothing. ``"pinned"``: the box pins a variable. Otherwise the first
    step's violators go to their bounds and the step ends in one of
    ``"no free"`` (no variable is left free), ``"sent"`` (the free solution
    sends a variable to its bound), ``"kkt"`` (it is feasible and misses
    the KKT tolerance) or ``"finished"``. Computed row by row with the
    solver's own pseudo-inverses, so its bits are those of the per-row loop.
    """
    A = solver.A
    x = solver._pinv_all @ b
    if (lb == ub).any():
        return "pinned"
    if ((x >= lb) & (x <= ub)).all():
        return "first step"
    on_bound = np.where(x >= ub, 1.0, np.where(x <= lb, -1.0, 0.0))
    x = np.minimum(np.maximum(x, lb), ub)
    free = on_bound == 0
    if not free.any():
        return "no free"
    z = solver._subproblem(free, b - A @ (x * ~free))
    if ((z < lb[free]) | (z > ub[free])).any():
        return "sent"
    x[free] = z
    g = A.T @ (A @ x - b)
    return "finished" if np.where(free, np.abs(g), g * on_bound).max() < 1e-10 else "kkt"


def bvls_per_row(solver, b, lb, ub, max_iter):
    """One problem on ``solver.A`` solved wholly row by row, as
    :meth:`myoctl.qp.BvlsSolver.solve` solved a stack's lone row before the
    initialization loop ran on the stack: ``(x, iterations, looped)``,
    where ``looped`` says whether the main loop took a step.

    Frozen as the reference for the solver's bits. It takes the unbounded
    first step, or for a box that pins a variable the first step on the
    live columns with the pinned ones moved into ``b``; then, unless that
    step lies in the box, BVLS's initialization loop and main loop, with the
    solver's own pseudo-inverses.
    """
    A = solver.A
    live = lb < ub
    x = solver._pinv_all @ b
    if not live.all():
        x = lb * ~live
        if live.any():
            x[live] = solver._subproblem(live, b - A @ x)
    if ((x >= lb) & (x <= ub)).all():
        return x, 0, False
    on_bound = np.where(x >= ub, 1.0, np.where(x <= lb, -1.0, 0.0))
    x = _clamp(x, lb, ub)
    free = (on_bound == 0) & live
    iteration = 0

    while free.any():
        iteration += 1
        idx = free.nonzero()[0]
        z = solver._subproblem(free, b - A @ (x * ~free))
        side = np.where(z < lb[idx], -1.0, np.where(z > ub[idx], 1.0, 0.0))
        x[idx] = _clamp(z, lb[idx], ub[idx])
        on_bound[idx] = side
        if not side.any():
            break
        free[idx[side != 0]] = False

    r = A @ x - b
    cost = 0.5 * (r @ r)
    g = (A.T @ r) * live
    optimality = _kkt_violation(g, on_bound)
    looped = not optimality < 1e-10
    stopped = False
    for iteration in range(iteration, max_iter + iteration):
        if stopped or optimality < 1e-10:
            break
        on_bound[np.argmax(g * on_bound)] = 0.0
        while True:
            free = (on_bound == 0) & live
            idx = free.nonzero()[0]
            x_free = x[idx]
            lb_free = lb[idx]
            ub_free = ub[idx]
            z = solver._subproblem(free, b - A @ (x * ~free))
            lbv = (z < lb_free).nonzero()[0]
            ubv = (z > ub_free).nonzero()[0]
            if lbv.size == 0 and ubv.size == 0:
                x[idx] = z
                break
            v = np.concatenate((lbv, ubv))
            alphas = np.concatenate(
                (lb_free[lbv] - x_free[lbv], ub_free[ubv] - x_free[ubv])
            ) / (z[v] - x_free[v])
            i = int(np.argmin(alphas))
            alpha = alphas[i]
            x_free *= 1 - alpha
            x_free += alpha * z
            x[idx] = x_free
            on_bound[idx[v[i]]] = -1.0 if i < lbv.size else 1.0
        r = A @ x - b
        cost_new = 0.5 * (r @ r)
        stopped = cost - cost_new < 1e-10 * cost
        cost = cost_new
        g = (A.T @ r) * live
        optimality = _kkt_violation(g, on_bound)
    return _clamp(x, lb, ub), iteration + 1, looped


def _clamp(x, lb, ub):
    return np.minimum(np.maximum(x, lb), ub)


def _kkt_violation(g, on_bound):
    return float(np.where(on_bound == 0, np.abs(g), g * on_bound).max())
