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
kept in a bounded least-recently-used cache, so frames that share ``A``
reuse each other's free sets. :meth:`BvlsSolver.solve`, the one
entry point, solves a stack of problems on plain arrays, one per row, and
checks only ``max_iter``. It takes every row's unbounded first step at
once. For the rows whose first step leaves a box that pins nothing, it
then takes BVLS's first initialization step at once too, with only each
row's free-set product run row by row. The per-row BVLS loop runs only on
the rows that step leaves unfinished, resuming from where it left them,
and on the rows whose box pins a variable, from their first step; a stack
of one row, which has no other row to share the step with, runs it from
its first step too. A
variable with ``lb == ub`` is pinned: it stays on its bound through the
per-row loop and never enters a free set. Convergence is judged by a
projected-gradient KKT residual at a fixed tolerance.
:class:`BoxQp` is the checked problem and :func:`solve_box_qp` solves one
as a stack of one with a fresh solver and reports its
:class:`QpDiagnostics`; the inversion loop uses neither, and they remain
for the tests and the benchmark tracer. Everything is deterministic for
fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BoxQp", "BvlsSolver", "solve_box_qp"]

# The KKT tolerance of every solve (also BVLS's relative cost-change stop)
# and the default cap on BVLS main-loop iterations.
_TOL = 1e-10
_MAX_ITER = 20000
# The most free-set pseudo-inverses a solver keeps, dropping the least recently
# used past it; a rebuilt entry has the same bits. A clean 1000-frame hand_like
# round trip uses at most 81 sets; a noisy one finds 90.9 % of its lookups
# cached at this bound against 91.1 % unbounded.
_PINV_CACHE_SIZE = 1024


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
    the solver is built; of the others, the ``_PINV_CACHE_SIZE`` most
    recently used are kept per free-column mask. ``lsq_linear`` cuts its
    first step at ``eps`` instead; on a full-rank matrix the two agree, while
    on a rank-deficient one (exactly dependent columns) the steps and
    iteration counts may differ and the objective still agrees. ``A`` must
    be finite (a ``ValueError`` says so otherwise); it is not copied, so it
    must not change while the solver is in use.
    """

    def __init__(self, A) -> None:
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2:
            raise ValueError("A must be a matrix")
        if not np.isfinite(self.A).all():
            raise ValueError("A contains non-finite entries")
        # The unbounded first step's pseudo-inverse, outside the free-set cache.
        self._pinv_all = _pinv(self.A)
        # In order of last use, oldest first.
        self._pinv: dict[bytes, np.ndarray] = {}

    def _subproblem(self, free: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution on the columns ``free`` masks."""
        key = free.tobytes()
        pinv = self._pinv.pop(key, None)
        if pinv is None:
            pinv = _pinv(self.A[:, free])
            if len(self._pinv) >= _PINV_CACHE_SIZE:
                del self._pinv[next(iter(self._pinv))]
        self._pinv[key] = pinv
        return pinv @ rhs

    def solve(self, b, lb, ub, max_iter: int = _MAX_ITER):
        """Solve ``min 1/2 ||Ax - b||^2`` over ``lb <= x <= ub`` for a stack of problems.

        Row ``i`` of ``b`` (``(k, m)``) and of ``lb`` and ``ub`` (``(k, n)``)
        is one problem. Inputs are finite float arrays of these shapes with
        ``lb <= ub``; only ``max_iter`` is checked. The first steps
        ``pinv(A) @ b``, residuals and KKT checks of all rows are computed
        at once, as stacks of columns (``M @ v[..., None]``), which numpy
        evaluates column by column as it does ``M @ v``; so a row's outputs
        are bit for bit the same whatever rows share its stack. So is the
        first initialization step of the rows whose first step leaves a box
        that pins nothing (see :meth:`_bvls_stack`); only its free-set
        products run row by row. The per-row loop :meth:`_bvls` takes the
        rows that step leaves unfinished from where it left them, and the
        rows whose box pins a variable, or a stack's lone row, from their
        first step.

        Each row follows ``scipy.optimize._lsq.bvls`` step for step (up to
        the first step's cutoff, see the class docstring): the unbounded
        solution, the initialization loop that drops violators to their
        bounds, then the main loop that frees the variable with the largest
        KKT violation and steps back to the first bound crossed. A pinned
        variable (``lb == ub``) starts on its bound, its gradient entry is
        masked to 0 and it never joins a free set, which is the same as
        moving its column into ``b``.

        Returns:
            ``(x, iterations, converged, residual)``, one row per problem:
            ``x`` (``(k, n)``) lies in the box (a first step that lies in it
            as is, any later iterate clamped to it); ``iterations``
            (``(k,)``) counts BVLS steps as ``lsq_linear``'s ``nit`` does (0
            when the unconstrained minimum is feasible); ``converged``
            (``(k,)``) is a projected-gradient KKT residual ``||x - clip(x -
            A'(Ax - b), lb, ub)||_inf`` of at most ``1e-10``; and
            ``residual`` (``(k, m)``) is the vector ``Ax - b`` that check
            computed.
        """
        if max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        x = (self._pinv_all @ b[..., None])[..., 0]
        live = lb < ub
        # Per-row flags as lists: on the few rows of a frame, Python's any
        # and all are cheaper than numpy's reductions.
        done = ((x >= lb) & (x <= ub) & live).all(axis=-1).tolist()
        iterations = np.zeros(len(done), dtype=int)
        if len(done) == 1:
            # A lone row shares the stacked step's fixed cost with no other
            # row; the per-row loop gives it the same bits for less.
            if not done[0]:
                x[0], iterations[0] = self._bvls(b[0], lb[0], ub[0], x[0], max_iter)
        elif not all(done):
            pinned = (~live.all(axis=-1)).tolist()
            for i, p in enumerate(pinned):
                if p:
                    x[i], iterations[i] = self._bvls(b[i], lb[i], ub[i], x[i], max_iter)
            rows = np.array([i for i, (d, p) in enumerate(zip(done, pinned)) if not (d or p)],
                            dtype=int)
            if rows.size:
                x[rows], iterations[rows] = self._bvls_stack(
                    b[rows], lb[rows], ub[rows], x[rows], max_iter)
        residual = (self.A @ x[..., None])[..., 0] - b
        gradient = (self.A.T @ residual[..., None])[..., 0]
        kkt = np.abs(x - _clamp(x - gradient, lb, ub)).max(axis=-1, initial=0.0)
        return x, iterations, kkt <= _TOL, residual

    def _bvls_stack(self, b, lb, ub, x, max_iter):
        """Rows of :meth:`solve` whose first steps ``x`` leave boxes that pin
        nothing; returns ``(x, iterations)``.

        BVLS's first initialization step is taken for all rows at once. A
        row whose free solution is then feasible and within the KKT
        tolerance is finished, after 2 iterations. Every other row goes on
        in :meth:`_bvls` from the state the step left it in: its iterate,
        ``on_bound``, the free set the initialization loop still has to
        solve (empty once that loop is over) and its iteration count. Only
        the free-set products run row by row, each the 1-D ``pinv @ rhs`` of
        :meth:`_subproblem`; a stacked product of padded pseudo-inverses
        would change their bits.
        """
        hi, lo = x >= ub, x <= lb
        on_bound = np.subtract(hi, lo, dtype=float)
        free = ~(hi | lo)
        x = _clamp(x, lb, ub)
        stepped = free.any(axis=-1)
        steps = stepped.tolist()
        iterations = np.zeros(len(steps), dtype=int)
        unfinished = range(len(steps))
        if any(steps):
            rhs = b - (self.A @ (x * ~free)[..., None])[..., 0]
            z = x.copy()
            for j in [j for j, step in enumerate(steps) if step]:
                z[j, free[j]] = self._subproblem(free[j], rhs[j])
            # Off the free set z is the clamped x, which sends nothing.
            hi, lo = z > ub, z < lb
            x = _clamp(z, lb, ub)
            on_bound += hi
            on_bound -= lo
            sent = hi | lo
            free &= ~sent
            feasible = stepped & ~sent.any(axis=-1)
            if any(feasible.tolist()):
                # A feasible row's initialization loop is over.
                free[feasible] = False
                r = (self.A @ x[..., None])[..., 0] - b
                g = (self.A.T @ r[..., None])[..., 0]
                finished = feasible & (np.where(
                    on_bound == 0, np.abs(g), g * on_bound).max(axis=-1) < _TOL)
                iterations[finished] = 2
                unfinished = [j for j, f in enumerate(finished.tolist()) if not f]
        for j in unfinished:
            x[j], iterations[j] = self._bvls(b[j], lb[j], ub[j], x[j], max_iter,
                                             on_bound[j], free[j], int(steps[j]))
        return x, iterations

    def _bvls(self, b, lb, ub, x, max_iter, on_bound=None, free=None, iteration=0):
        """One row of :meth:`solve`, from the unbounded first step ``x`` that
        leaves its box or whose box pins a variable, or, given ``on_bound``,
        ``free`` and ``iteration``, from the iterate ``x`` that
        :meth:`_bvls_stack` left; returns ``(x, iterations)``."""
        A = self.A
        live = lb < ub
        if on_bound is None:
            if not live.all():
                # The first step on the live columns, with pinned ones moved into b.
                x = lb * ~live
                if live.any():
                    x[live] = self._subproblem(live, b - A @ x)
                if ((x >= lb) & (x <= ub)).all():
                    return x, 0
            on_bound = np.where(x >= ub, 1.0, np.where(x <= lb, -1.0, 0.0))
            x = _clamp(x, lb, ub)
            free = (on_bound == 0) & live

        # Initialization: least squares on the free variables, sending
        # violators to their bounds, until the free solution is feasible.
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
    """Solve ``problem`` as a stack of one with a fresh :class:`BvlsSolver`,
    and report the objective too.

    ``x`` is feasible componentwise; when ``max_iter`` runs out it is the
    last iterate, with ``converged=False``, and the caller decides what
    that means.
    """
    x, iterations, converged, residual = BvlsSolver(problem.A).solve(
        problem.b[None], problem.lb[None], problem.ub[None], max_iter
    )
    r = residual[0]
    return x[0], QpDiagnostics(int(iterations[0]), bool(converged[0]), float(0.5 * r @ r))
