"""Independent checks of box-constrained least-squares and QP solutions.

:func:`enumerate_box_qp_optimum` is a brute-force optimum for small
box-constrained QPs: it enumerates all 3^n lower/upper/free sign patterns,
solves the reduced equality system on the free block, keeps primal-feasible
candidates, and returns the best objective. It is only valid for strictly
convex problems (the reduced systems must be solvable), which the random
generators guarantee by construction. :func:`kkt_residual` measures how far
a point is from satisfying a bounded least-squares problem's optimality
conditions.
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
