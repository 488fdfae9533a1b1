"""Deterministic solver for bounded-variable linear least squares.

Solves ``min 1/2 ||Ax - b||^2  subject to  lb <= x <= ub`` with Stark and
Parker's bounded-variable least-squares method (the algorithm behind
``scipy.optimize.lsq_linear(method="bvls")``), working on ``A`` itself
rather than on ``A'A`` so rank-deficient and wide matrices keep their
conditioning. A :class:`BvlsSolver` is bound to one matrix: it checks that
``A`` is finite and computes the full-column pseudo-inverse once, and it
solves each free-set subproblem as ``pinv(A[:, free]) @ rhs``, keeping the
pseudo-inverses in a bounded least-recently-used cache.
:meth:`BvlsSolver.solve` solves a stack of problems, one per row: the
unbounded first step and BVLS's initialization loop run on the whole stack,
one KKT check follows, and each row that the check leaves unfinished runs
BVLS's main loop alone, resuming from the check's residual and gradient. A
row's outputs are bit for bit the same whatever rows share its stack. A
variable with ``lb == ub`` is pinned: it stays on its bound and never
enters a free set. :meth:`BvlsSolver.check` judges convergence afterwards,
on a stack of any shape, by a projected-gradient KKT residual at a fixed
tolerance. :class:`BoxQp` is a checked problem, and :func:`solve_box_qp`
solves one with a fresh solver and reports its :class:`QpDiagnostics`.
Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .muscle import _require_int

__all__ = ["BoxQp", "BvlsSolver", "solve_box_qp"]

# The KKT tolerance of every solve (also BVLS's relative cost-change stop)
# and the default cap on BVLS main-loop iterations.
_TOL = 1e-10
_MAX_ITER = 20000
# The most free-set pseudo-inverses a solver keeps, dropping the least recently
# used past it; a rebuilt entry has the same bits. A clean 1000-frame hand_like
# round trip uses at most 81 sets. With Gaussian pose noise (noise seed 7) on
# 1000-frame hand_like references at 500 Hz, lookups hit the cache 27.4 % of
# the time at this bound against 29.6 % unbounded (one lane, sigma 1e-5 rad),
# 9.7 % against 10.5 % (one lane, sigma 1e-6) and 26.7 % against 33.7 % (eight
# lanes, sigma 1e-5).
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


def _kkt_terms(g, on_bound):
    """The KKT violation's terms: ``|g|`` on free variables, ``g * side`` on
    bound ones."""
    return np.where(on_bound == 0, np.abs(g), g * on_bound)


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
        ``lb <= ub``; only ``max_iter`` is checked. Every row takes one path,
        and each row follows ``scipy.optimize._lsq.bvls`` step for step (up
        to the first step's cutoff, see the class docstring):

        1. The unbounded first step ``pinv(A) @ b``, for all rows at once; a
           row whose box pins a variable (``lb == ub``) takes it instead on
           its live columns, with the pinned ones moved into ``b``.
        2. A row whose first step lies in its box is done.
        3. Every other row runs BVLS's initialization loop, which drops
           violators to their bounds until the free solution is feasible, on
           the whole stack with a flag per row (:meth:`_bvls_stack`).
        4. One KKT check on the stack finishes the rows that loop left
           optimal.
        5. Only the rest run BVLS's main loop (:meth:`_bvls`), row by row,
           resuming from the check's residual and gradient: each pass frees
           the variable with the largest KKT violation and steps back to the
           first bound crossed.

        Every stacked product runs as a stack of columns (``M @
        v[..., None]``), which numpy evaluates column by column as it does
        ``M @ v``, and every free-set product is the 1-D ``pinv @ rhs`` of
        one row; so a row's outputs are bit for bit the same whatever rows
        share its stack. A pinned variable starts on its bound, its gradient
        entry is masked to 0 and it never joins a free set, which is the
        same as moving its column into ``b``.

        Returns:
            ``(x, iterations)``, one row per problem: ``x`` (``(k, n)``)
            lies in the box (a first step that lies in it as is, any later
            iterate clamped to it), and ``iterations`` (``(k,)``) counts BVLS
            steps as ``lsq_linear``'s ``nit`` does (0 when the first step is
            feasible). Whether a row converged is :meth:`check`'s to say.

        Raises:
            ValueError: ``"max_iter must be an integer of at least 1, got
                <max_iter!r>"`` for a ``max_iter`` that is not one (a bool or
                a float such as ``1.0`` included), before any work.
        """
        _require_int("max_iter", max_iter, 1)
        A = self.A
        x = (self._pinv_all @ b[..., None])[..., 0]
        live = lb < ub
        # An entry is done when its first step lies in its box on a live
        # column, so a row whose box pins a variable is not done until its
        # first step, on the live columns, is taken below.
        done = (x >= lb) & (x <= ub) & live
        # Per-row flags as lists: on the few rows of a frame, one
        # np.count_nonzero of the whole stack, and Python's any and all on
        # its tolist() rows, cost less than numpy's reductions along an axis.
        if np.count_nonzero(done) == done.size:
            return x, np.zeros(len(x), dtype=int)
        rows = [not all(row) for row in done.tolist()]
        pinning = np.count_nonzero(live) < live.size
        if pinning:
            for i, live_row in enumerate(live.tolist()):
                if not all(live_row):
                    live_i = live[i]
                    x_i = lb[i] * ~live_i
                    if any(live_row):
                        x_i[live_i] = self._subproblem(live_i, b[i] - A @ x_i)
                    x[i] = x_i
                    rows[i] = not ((x_i >= lb[i]) & (x_i <= ub[i])).all()
        x, on_bound, iterations = self._bvls_stack(b, lb, ub, x, rows)
        r = (A @ x[..., None])[..., 0] - b
        g = (A.T @ r[..., None])[..., 0]
        if pinning:
            g *= live
        # A row is optimal when every term of its KKT violation is below
        # _TOL, as when their maximum is (a NaN term fails both tests).
        optimal = (_kkt_terms(g, on_bound) < _TOL).tolist()
        for j, row in enumerate(rows):
            if row:
                if not all(optimal[j]):
                    x[j], iterations[j] = self._bvls(b[j], lb[j], ub[j], live[j], x[j],
                                                     on_bound[j], r[j], g[j], iterations[j],
                                                     max_iter)
                # The stacked check is the row's first stop test.
                iterations[j] += 1
        return x, np.array(iterations)

    def check(self, x, b, lb, ub):
        """Judge solutions ``x`` of :meth:`solve`'s problems; any stack shape.

        ``x``, ``lb`` and ``ub`` are ``(..., n)`` and ``b`` is ``(..., m)``,
        one problem per row. Returns ``(converged, residual)``: ``converged``
        (``(...)``) is a projected-gradient KKT residual ``||x - clip(x -
        A'(Ax - b), lb, ub)||_inf`` of at most ``1e-10``, and ``residual``
        (``(..., m)``) the vector ``Ax - b`` it was computed from. The
        products run as stacks of columns, so each row's outputs are bit for
        bit those of the row checked alone, whatever the stack's shape.
        """
        residual = (self.A @ x[..., None])[..., 0] - b
        gradient = (self.A.T @ residual[..., None])[..., 0]
        kkt = np.abs(x - _clamp(x - gradient, lb, ub)).max(axis=-1, initial=0.0)
        return kkt <= _TOL, residual

    def _bvls_stack(self, b, lb, ub, x, stepping):
        """BVLS's initialization loop for the rows that the list ``stepping``
        flags, whose first steps ``x`` leave their boxes, run on the whole
        stack.

        Each step solves every looping row's free set, sends the variables
        whose solution leaves the box to their bounds and takes them out of
        the free set; a row leaves the loop once its free solution sends
        nothing or no variable is left free, and the loop stops once no row
        sends a variable. Each row's flag is a Python bool: a row that leaves
        keeps the free set it had, and no later step uses its rows of the
        stacked products, as its flag stays down. Rows that are not flagged
        free nothing, and their
        ``x`` is returned as given: a clamp may flip the sign of a zero on a
        box edge. Only the free-set products run row by row, each the 1-D
        ``pinv @ rhs`` of :meth:`_subproblem`; a stacked product of padded
        pseudo-inverses would change their bits.

        A pinned variable lies on both of its bounds and gets ``on_bound`` 0
        here, where BVLS's per-row set-up, testing ``x >= ub`` first, gives
        it +1. Either is harmless: its gradient entry is masked to +-0, so
        neither the KKT violation's verdict nor the main loop's choice of
        variable to free can tell them apart, and a pinned variable, on both
        bounds at once, never enters a free set. Returns ``(x, on_bound,
        iterations)``, ``iterations`` a list of each row's initialization
        steps.
        """
        hi, lo = x >= ub, x <= lb
        on_bound = np.subtract(hi, lo, dtype=float)
        free = ~(hi | lo)
        z = _clamp(x, lb, ub)
        iterations = [0] * len(x)
        rows = [step and any(f) for step, f in zip(stepping, free.tolist())]
        while any(rows):
            rhs = b - (self.A @ (z * ~free)[..., None])[..., 0]
            for j, row in enumerate(rows):
                if row:
                    iterations[j] += 1
                    free_j = free[j]
                    z[j][free_j] = self._subproblem(free_j, rhs[j])
            # Off the free set z is clamped already, which sends nothing.
            hi, lo = z > ub, z < lb
            z = _clamp(z, lb, ub)
            sent = hi | lo
            if not np.count_nonzero(sent):
                break
            on_bound += hi
            on_bound -= lo
            free &= ~sent
            rows = [row and any(s) and any(f)
                    for row, s, f in zip(rows, sent.tolist(), free.tolist())]
        if all(stepping):
            return z, on_bound, iterations
        return np.where(np.array(stepping)[:, None], z, x), on_bound, iterations

    def _bvls(self, b, lb, ub, live, x, on_bound, r, g, iteration, max_iter):
        """BVLS's main loop for one row of :meth:`solve` that the stacked KKT
        check left unfinished, resumed from that check's state: ``x`` and
        ``on_bound`` as :meth:`_bvls_stack` left them, the residual ``r = Ax
        - b`` and the gradient ``g = A'r`` masked to the ``live`` variables.
        Each pass frees the variable with the largest KKT violation, steps
        back to the first bound crossed, and ends with BVLS's stop test (the
        cost stalls or the KKT violation falls below ``_TOL``), except the
        pass that reaches ``max_iter``. Returns ``x`` clamped to the box and
        ``iteration`` plus one per stop test run."""
        A = self.A
        cost = 0.5 * (r @ r)
        last = iteration + max_iter - 1
        while True:
            on_bound[np.argmax(g * on_bound)] = 0.0
            while True:
                free = (on_bound == 0) & live
                idx = free.nonzero()[0]
                x_free = x[idx]
                lb_free = lb[idx]
                ub_free = ub[idx]
                z = self._subproblem(free, b - A @ (x * ~free))
                lbv = (z < lb_free).nonzero()[0]
                ubv = (z > ub_free).nonzero()[0]
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
            if iteration == last:
                break
            iteration += 1
            r = A @ x - b
            cost_new = 0.5 * (r @ r)
            g = (A.T @ r) * live
            if cost - cost_new < _TOL * cost or _kkt_terms(g, on_bound).max() < _TOL:
                break
            cost = cost_new
        return _clamp(x, lb, ub), iteration


def solve_box_qp(problem: BoxQp, max_iter: int = _MAX_ITER) -> tuple[np.ndarray, QpDiagnostics]:
    """Solve ``problem`` as a stack of one with a fresh :class:`BvlsSolver`,
    and report the objective too.

    ``x`` is feasible componentwise; when ``max_iter`` runs out it is the
    last iterate, with ``converged=False``, and the caller decides what
    that means.
    """
    solver = BvlsSolver(problem.A)
    b, lb, ub = problem.b[None], problem.lb[None], problem.ub[None]
    x, iterations = solver.solve(b, lb, ub, max_iter)
    converged, residual = solver.check(x, b, lb, ub)
    r = residual[0]
    return x[0], QpDiagnostics(int(iterations[0]), bool(converged[0]), float(0.5 * r @ r))
