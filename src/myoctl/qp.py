"""Deterministic solver for bounded-variable linear least squares.

Solves ``min 1/2 ||Ax - b||^2  subject to  lb <= x <= ub`` with Stark and
Parker's bounded-variable least-squares method (``scipy.optimize.lsq_linear``
with ``method="bvls"``), working on ``A`` itself rather than on ``A'A`` so
rank-deficient and wide matrices keep their conditioning. Variables with
``lb == ub`` are pinned before the call. Convergence is judged by this
module's own projected-gradient KKT residual. Everything is deterministic
for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import lsq_linear

__all__ = ["BoxQp", "QpDiagnostics", "solve_box_qp", "kkt_residual"]


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


def kkt_residual(problem: BoxQp, x: np.ndarray) -> float:
    """Projected-gradient optimality residual, zero exactly at the optimum.

    Returns ``||x - clip(x - A'(Ax - b), lb, ub)||_inf`` for a feasible ``x``.

    Raises:
        ValueError: if ``x`` lies outside the box.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < problem.lb - 1e-12) or np.any(x > problem.ub + 1e-12):
        raise ValueError("x lies outside [lb, ub]")
    grad = problem.A.T @ (problem.A @ x - problem.b)
    return float(np.abs(x - np.clip(x - grad, problem.lb, problem.ub)).max(initial=0.0))


def solve_box_qp(
    problem: BoxQp,
    tol: float = 1e-10,
    max_iter: int = 20000,
) -> tuple[np.ndarray, QpDiagnostics]:
    """Solve a bounded least-squares problem to a KKT tolerance.

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
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lb, ub = problem.lb, problem.ub
    x = lb.copy()
    free = lb < ub
    iterations = 0
    if free.any():
        # lsq_linear needs lb < ub strictly: move pinned columns into b.
        b_free = problem.b - problem.A[:, ~free] @ x[~free]
        res = lsq_linear(
            problem.A[:, free], b_free, bounds=(lb[free], ub[free]),
            method="bvls", tol=tol, max_iter=max_iter,
        )
        x[free] = np.clip(res.x, lb[free], ub[free])
        iterations = int(res.nit)
    converged = kkt_residual(problem, x) <= tol
    residual = problem.A @ x - problem.b
    return x, QpDiagnostics(iterations, converged, float(0.5 * residual @ residual))
