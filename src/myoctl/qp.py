"""Deterministic solver for bounded-variable linear least squares.

Solves ``min 1/2 ||Ax - b||^2  subject to  lb <= x <= ub`` with Stark and
Parker's bounded-variable least-squares method (the algorithm behind
``scipy.optimize.lsq_linear(method="bvls")``), working on ``A`` itself
rather than on ``A'A`` so rank-deficient and wide matrices keep their
conditioning. A :class:`BvlsSolver` is bound to one matrix and does its
fixed work once, when it is built: it checks that ``A`` is finite and
computes the full-column pseudo-inverse that every unbounded first step
uses. Each free-set subproblem is solved as ``pinv(A[:, free]) @ rhs``;
every pseudo-inverse is computed the first time its free set appears and
kept for the life of the solver, so a trajectory whose frames share ``A``
pays for each distinct free set once. :meth:`BvlsSolver.solve` takes plain
arrays and checks nothing per call; :class:`BoxQp` is the checked problem
and :func:`solve_box_qp` solves one with a fresh solver and reports its
:class:`QpDiagnostics`. Variables with ``lb == ub`` are pinned and never
enter a free set. Convergence is judged by this module's own
projected-gradient KKT residual. Everything is deterministic for fixed
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BoxQp", "QpDiagnostics", "BvlsSolver", "solve_box_qp", "kkt_residual"]

# Defaults of every solve: the KKT tolerance and the cap on BVLS main-loop
# iterations.
_TOL = 1e-10
_MAX_ITER = 20000


@dataclass(frozen=True, eq=False)
class BoxQp:
    """One bounded least-squares problem: ``min 1/2 ||Ax - b||^2, lb <= x <= ub``.

    ``A`` is ``(m, n)``, ``b`` has length ``m`` and the bounds length ``n``;
    all entries are finite, with ``lb <= ub`` componentwise.
    """

    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self) -> None:
        for attr in ("A", "b", "lb", "ub"):
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), dtype=float))
        n = self.lb.shape[0] if self.lb.ndim == 1 else -1
        m = self.b.shape[0] if self.b.ndim == 1 else -1
        if self.A.shape != (m, n) or self.ub.shape != (n,):
            raise ValueError("inconsistent problem dimensions")
        for label in ("A", "b", "lb", "ub"):
            if not np.isfinite(getattr(self, label)).all():
                raise ValueError(f"{label} contains non-finite entries")
        if np.any(self.lb > self.ub):
            raise ValueError("lb exceeds ub")


@dataclass(frozen=True)
class QpDiagnostics:
    """Solver outcome: iteration count, convergence flag and final objective."""

    iterations: int
    converged: bool
    objective: float


def _clamp(x, lb, ub):
    # Same values as x.clip(lb, ub), without clip's Python-level dispatch.
    return np.minimum(np.maximum(x, lb), ub)


def _kkt_residual(A, b, lb, ub, x) -> float:
    grad = A.T @ (A @ x - b)
    return float(np.abs(x - _clamp(x - grad, lb, ub)).max(initial=0.0))


def kkt_residual(problem: BoxQp, x: np.ndarray) -> float:
    """Projected-gradient optimality residual, zero exactly at the optimum.

    Returns ``||x - clip(x - A'(Ax - b), lb, ub)||_inf`` for a feasible ``x``.

    Raises:
        ValueError: if ``x`` lies outside the box.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < problem.lb - 1e-12) or np.any(x > problem.ub + 1e-12):
        raise ValueError("x lies outside [lb, ub]")
    return _kkt_residual(problem.A, problem.b, problem.lb, problem.ub, x)


def _pinv(sub: np.ndarray) -> np.ndarray:
    """Pseudo-inverse cutting singular values at ``np.linalg.lstsq``'s default."""
    return np.linalg.pinv(sub, rcond=max(sub.shape) * np.finfo(float).eps)


def _kkt_violation(g, on_bound) -> float:
    """Largest KKT violation: ``|g|`` on free variables, ``g * side`` on bound ones."""
    return float(np.where(on_bound == 0, np.abs(g), g * on_bound).max())


class BvlsSolver:
    """Stark-Parker BVLS bound to one matrix ``A``, caching pseudo-inverses.

    Every pseudo-inverse, the unbounded first step's included, cuts
    singular values below ``eps * max(shape)`` times the largest, the
    default of ``np.linalg.lstsq``. The full-column one is computed when
    the solver is built; the others are kept per free-column mask for the
    life of the solver. ``lsq_linear`` cuts its first step at ``eps``
    instead; on a full-rank matrix the two agree, while on a rank-deficient
    one (exactly dependent columns) the steps and iteration counts may
    differ and the objective still agrees. ``A`` must be finite (a
    ``ValueError`` says so otherwise); it is not copied, so it must not
    change while the solver is in use.
    """

    def __init__(self, A) -> None:
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2:
            raise ValueError("A must be a matrix")
        if not np.isfinite(self.A).all():
            raise ValueError("A contains non-finite entries")
        # The unbounded first step's pseudo-inverse, outside the free-set cache.
        self._pinv_all = _pinv(self.A)
        self._pinv: dict[bytes, np.ndarray] = {}

    def _subproblem(self, free: np.ndarray, cols, rhs: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution on the free columns.

        ``free`` masks the columns ``cols`` of ``A`` (all of them when
        ``cols`` is None); the cache is keyed by the full-width mask.
        """
        if cols is not None:
            mask = np.zeros(self.A.shape[1], dtype=bool)
            mask[cols[free]] = True
            free = mask
        key = free.tobytes()
        pinv = self._pinv.get(key)
        if pinv is None:
            pinv = self._pinv[key] = _pinv(self.A[:, free])
        return pinv @ rhs

    def solve(self, b, lb, ub, tol: float = _TOL, max_iter: int = _MAX_ITER):
        """Solve ``min 1/2 ||Ax - b||^2`` over ``lb <= x <= ub``.

        Inputs are finite float vectors of matching lengths with
        ``lb <= ub``; they are not checked beyond ``tol`` and ``max_iter``.

        Returns:
            ``(x, iterations, converged)``: ``x`` lies in the box,
            ``iterations`` counts BVLS steps as ``lsq_linear``'s ``nit``
            does (0 when the unconstrained minimum is feasible), and
            ``converged`` is ``kkt_residual <= tol``.
        """
        if tol <= 0.0:
            raise ValueError("tol must be positive")
        if max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        A = self.A
        live = lb < ub
        if live.all():
            x, iterations = self._bvls(A, b, lb, ub, None, tol, max_iter)
        else:
            x, iterations = lb.copy(), 0
            if live.any():
                # Pinned columns are moved into b; the rest is solved as is.
                cols = np.flatnonzero(live)
                b_live = b - A[:, ~live] @ x[~live]
                x[cols], iterations = self._bvls(
                    A[:, cols], b_live, lb[cols], ub[cols], cols, tol, max_iter
                )
        return x, iterations, _kkt_residual(A, b, lb, ub, x) <= tol

    def _bvls(self, A, b, lb, ub, cols, tol, max_iter):
        """BVLS on ``A`` (all columns live); ``cols`` maps them into ``self.A``.

        Returns ``(x, iterations)`` with ``x`` in the box: a first step that
        lies in it as is, any later iterate clamped to it. Follows
        ``scipy.optimize._lsq.bvls`` step for step (up to the first step's
        cutoff, see the class docstring): the unbounded solution, the
        initialization loop that drops violators to their bounds, then
        the main loop that frees the variable with the largest KKT
        violation and steps back to the first bound crossed.
        """
        n = A.shape[1]
        if cols is None:
            x = self._pinv_all @ b
        else:
            x = self._subproblem(np.ones(n, dtype=bool), cols, b)
        if ((x >= lb) & (x <= ub)).all():
            return x, 0
        on_bound = np.where(x >= ub, 1.0, np.where(x <= lb, -1.0, 0.0))
        x = _clamp(x, lb, ub)

        # Initialization: least squares on the free variables, sending
        # violators to their bounds, until the free solution is feasible.
        free = on_bound == 0
        iteration = 0
        while free.any():
            iteration += 1
            idx = np.flatnonzero(free)
            z = self._subproblem(free, cols, b - A @ (x * ~free))
            side = np.where(z < lb[idx], -1.0, np.where(z > ub[idx], 1.0, 0.0))
            x[idx] = _clamp(z, lb[idx], ub[idx])
            on_bound[idx] = side
            if not side.any():
                break
            free[idx[side != 0]] = False

        r = A @ x - b
        cost = 0.5 * (r @ r)
        g = A.T @ r
        optimality = _kkt_violation(g, on_bound)
        stopped = False
        for iteration in range(iteration, max_iter + iteration):
            if stopped or optimality < tol:
                break
            on_bound[np.argmax(g * on_bound)] = 0.0
            while True:
                free = on_bound == 0
                idx = np.flatnonzero(free)
                x_free = x[idx]
                lb_free = lb[idx]
                ub_free = ub[idx]
                z = self._subproblem(free, cols, b - A @ (x * ~free))
                lbv = np.flatnonzero(z < lb_free)
                ubv = np.flatnonzero(z > ub_free)
                if lbv.size == 0 and ubv.size == 0:
                    x[idx] = z
                    break
                # Step from x towards z up to the first bound crossed.
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
            stopped = cost - cost_new < tol * cost
            cost = cost_new
            g = A.T @ r
            optimality = _kkt_violation(g, on_bound)
        return _clamp(x, lb, ub), iteration + 1


def solve_box_qp(
    problem: BoxQp,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
) -> tuple[np.ndarray, QpDiagnostics]:
    """Solve a bounded least-squares problem to a KKT tolerance.

    One :meth:`BvlsSolver.solve` of a fresh solver bound to ``problem.A``,
    plus the objective at the solution.

    Args:
        problem: validated problem data.
        tol: infinity-norm bound on the projected-gradient residual; also
            the BVLS termination tolerance.
        max_iter: cap on BVLS main-loop iterations; on exhaustion the last
            iterate is returned with ``converged=False`` and the caller
            decides failure policy.

    Returns:
        ``(x, diagnostics)`` with ``x`` feasible componentwise.
    """
    x, iterations, converged = BvlsSolver(problem.A).solve(
        problem.b, problem.lb, problem.ub, tol, max_iter
    )
    residual = problem.A @ x - problem.b
    return x, QpDiagnostics(iterations, converged, float(0.5 * residual @ residual))
