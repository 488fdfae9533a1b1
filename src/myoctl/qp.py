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
arrays, checks only ``max_iter`` and hands back, with the solution, the
residual vector ``Ax - b`` of its KKT check; the inversion loop takes many
problems' unbounded first steps at once, bit for bit as :meth:`solve` would,
and calls it only where they are not the answer. :class:`BoxQp` is the checked
problem and :func:`solve_box_qp` solves one with a fresh solver and reports
its :class:`QpDiagnostics`; the inversion loop uses neither, and they
remain for the tests and the benchmark tracer. A variable with ``lb == ub`` is
pinned: it stays on its bound through the one BVLS loop and never enters a
free set. Convergence is judged by this module's own projected-gradient KKT
residual at a fixed tolerance. Everything is deterministic for fixed
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BoxQp", "QpDiagnostics", "BvlsSolver", "solve_box_qp"]

# The KKT tolerance of every solve (also BVLS's relative cost-change stop)
# and the default cap on BVLS main-loop iterations.
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


def _projected_gradient(A, r, lb, ub, x) -> float:
    """``||x - clip(x - A'r, lb, ub)||_inf`` at ``x`` with residual ``r = Ax - b``."""
    return float(np.abs(x - _clamp(x - A.T @ r, lb, ub)).max(initial=0.0))


def _kkt_residual(A, b, lb, ub, x) -> float:
    """Projected-gradient residual ``||x - clip(x - A'(Ax - b), lb, ub)||_inf``.

    :meth:`BvlsSolver.solve` evaluates it as :func:`_projected_gradient` on
    the residual it hands back.
    """
    return _projected_gradient(A, A @ x - b, lb, ub, x)


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

    def _subproblem(self, free: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution on the columns ``free`` masks."""
        key = free.tobytes()
        pinv = self._pinv.get(key)
        if pinv is None:
            pinv = self._pinv[key] = _pinv(self.A[:, free])
        return pinv @ rhs

    def solve(self, b, lb, ub, max_iter: int = _MAX_ITER):
        """Solve ``min 1/2 ||Ax - b||^2`` over ``lb <= x <= ub``.

        Inputs are finite float vectors of matching lengths with
        ``lb <= ub``; only ``max_iter`` is checked.

        Follows ``scipy.optimize._lsq.bvls`` step for step (up to the first
        step's cutoff, see the class docstring): the unbounded solution,
        the initialization loop that drops violators to their bounds, then
        the main loop that frees the variable with the largest KKT
        violation and steps back to the first bound crossed. A pinned
        variable (``lb == ub``) starts on its bound, its gradient entry is
        masked to 0 and it never joins a free set, which is the same as
        moving its column into ``b``.

        Returns:
            ``(x, iterations, converged, residual)``: ``x`` lies in the box
            (a first step that lies in it as is, any later iterate clamped
            to it), ``iterations`` counts BVLS steps as ``lsq_linear``'s
            ``nit`` does (0 when the unconstrained minimum is feasible),
            ``converged`` is a KKT residual of at most ``1e-10``, and
            ``residual`` is the vector ``A x - b`` that the KKT check
            computed.
        """
        if max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        x, iterations = self._bvls(b, lb, ub, max_iter)
        residual = self.A @ x - b
        return x, iterations, _projected_gradient(self.A, residual, lb, ub, x) <= _TOL, residual

    def _first_steps(self, b, lb, ub):
        """The unbounded first step of many problems at once, and where it is the answer.

        Row ``i`` of ``b`` (``(k, m)``) and of the bounds (``(k, n)``) is one
        problem. Returns ``(x, done, converged, residual)``: per row, the
        step ``pinv(A) @ b``; a list of flags, set where the step is
        :meth:`solve`'s answer (with 0 iterations) because it lies in the box
        and no variable is pinned; and the step's KKT verdict and residual
        vector ``A x - b``, both ``None`` when no row is done. A row that is
        done holds the bits :meth:`solve` returns for it, because each
        product runs as a stack of columns (``M @ v[..., None]``), which
        numpy evaluates column by column as it does ``M @ v``; the other
        rows need :meth:`solve`.
        """
        x = (self._pinv_all @ b[..., None])[..., 0]
        done = ((x >= lb) & (x <= ub) & (lb < ub)).all(axis=-1).tolist()
        if not any(done):
            return x, done, None, None
        residual = (self.A @ x[..., None])[..., 0] - b
        gradient = (self.A.T @ residual[..., None])[..., 0]
        kkt = np.abs(x - _clamp(x - gradient, lb, ub)).max(axis=-1, initial=0.0)
        return x, done, kkt <= _TOL, residual

    def _bvls(self, b, lb, ub, max_iter):
        A = self.A
        live = lb < ub
        # The unbounded first step, with pinned columns moved into b.
        if live.all():
            x = self._pinv_all @ b
        else:
            x = lb * ~live
            if live.any():
                x[live] = self._subproblem(live, b - A @ x)
        if ((x >= lb) & (x <= ub)).all():
            return x, 0
        on_bound = np.where(x >= ub, 1.0, np.where(x <= lb, -1.0, 0.0))
        x = _clamp(x, lb, ub)

        # Initialization: least squares on the free variables, sending
        # violators to their bounds, until the free solution is feasible.
        free = (on_bound == 0) & live
        iteration = 0
        while free.any():
            iteration += 1
            idx = np.flatnonzero(free)
            z = self._subproblem(free, b - A @ (x * ~free))
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
        stopped = False
        for iteration in range(iteration, max_iter + iteration):
            if stopped or optimality < _TOL:
                break
            on_bound[np.argmax(g * on_bound)] = 0.0
            while True:
                free = (on_bound == 0) & live
                idx = np.flatnonzero(free)
                x_free = x[idx]
                lb_free = lb[idx]
                ub_free = ub[idx]
                z = self._subproblem(free, b - A @ (x * ~free))
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
            stopped = cost - cost_new < _TOL * cost
            cost = cost_new
            g = (A.T @ r) * live
            optimality = _kkt_violation(g, on_bound)
        return _clamp(x, lb, ub), iteration + 1


def solve_box_qp(problem: BoxQp, max_iter: int = _MAX_ITER) -> tuple[np.ndarray, QpDiagnostics]:
    """Solve ``problem`` with a fresh :class:`BvlsSolver` and report the objective too.

    ``x`` is feasible componentwise; when ``max_iter`` runs out it is the
    last iterate, with ``converged=False``, and the caller decides what
    that means.
    """
    x, iterations, converged, residual = BvlsSolver(problem.A).solve(
        problem.b, problem.lb, problem.ub, max_iter
    )
    return x, QpDiagnostics(iterations, converged, float(0.5 * residual @ residual))
