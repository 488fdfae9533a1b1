import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import lsq_linear

import myoctl.qp
from myoctl.inverse import _invert_lanes, _prepare, invert_trajectory
from myoctl.plant import make_fixture, rest_state, rollout, smooth_random_controls
from myoctl.qp import BoxQp, BvlsSolver, solve_box_qp

import qp_oracle
from qp_oracle import enumerate_box_qp_optimum, first_initialization_exit, random_box_qp


def _solve(A, b, lb, ub, **kwargs):
    problem = BoxQp(np.asarray(A, float), np.asarray(b, float),
                    np.asarray(lb, float), np.asarray(ub, float))
    x, diag = solve_box_qp(problem, **kwargs)
    return problem, x, diag


def _least_squares(pmat, qvec, lb, ub):
    """``1/2 x'Px + q'x`` as ``1/2 ||Ax - b||^2 - 1/2 b'b`` with ``P = LL'``."""
    lower = cholesky(pmat, lower=True)
    return BoxQp(lower.T, -solve_triangular(lower, qvec, lower=True), lb, ub)


def kkt_residual(problem, x):
    return qp_oracle.kkt_residual(problem.A, problem.b, problem.lb, problem.ub, x)


def solve_and_check(solver, b, lb, ub, max_iter=20000):
    """``solver.solve`` and then ``solver.check`` on one stack:
    ``(x, iterations, converged, residual)``."""
    x, iterations = solver.solve(b, lb, ub, max_iter)
    return (x, iterations, *solver.check(x, b, lb, ub))


def solve_one(solver, b, lb, ub, **kwargs):
    """:func:`solve_and_check` on a stack of one problem."""
    x, iterations, converged, residual = solve_and_check(solver, b[None], lb[None], ub[None],
                                                         **kwargs)
    return x[0], int(iterations[0]), bool(converged[0]), residual[0]


class TestExamples:
    def test_unconstrained_minimum_inside_box(self):
        _, x, diag = _solve(np.eye(2), [0.0, 0.0], [-1, -1], [1, 1])
        assert np.allclose(x, 0.0)
        assert diag.converged

    def test_minimum_clipped_at_upper_bound(self):
        # Unconstrained minimum of (x - 4)^2/2 is 4, clipped to ub = 1.
        _, x, _ = _solve(np.eye(1), [4.0], [-1.0], [1.0])
        assert x[0] == pytest.approx(1.0)

    def test_active_lower_bound(self):
        # Minimum of (x + 0.5)^2/2 at -0.5, outside the box [-0.1, 0.1].
        _, x, _ = _solve([[1.0]], [-0.5], [-0.1], [0.1])
        assert x[0] == pytest.approx(-0.1)


class TestKktResidual:
    def test_zero_at_optimum(self):
        problem, x, _ = _solve([[1.0]], [-0.5], [-0.1], [0.1])
        assert kkt_residual(problem, x) <= 1e-10

    def test_interior_point_residual(self):
        problem = BoxQp(np.eye(1), np.zeros(1), -np.ones(1), np.ones(1))
        # clip(0.5 - 0.5) = 0, so the residual is |0.5 - 0| = 0.5.
        assert kkt_residual(problem, np.array([0.5])) == pytest.approx(0.5)

    def test_active_bound_with_inward_gradient(self):
        # At the upper bound with the gradient pushing further up, the
        # projection absorbs the step and the residual is zero.
        problem = BoxQp(np.eye(1), np.array([4.0]), np.array([-1.0]), np.array([1.0]))
        assert kkt_residual(problem, np.array([1.0])) == 0.0


class TestAgainstEnumerationOracle:
    def test_matches_active_set_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            pmat, qvec, lb, ub = random_box_qp(rng)
            problem = _least_squares(pmat, qvec, lb, ub)
            x, diag = solve_box_qp(problem)
            reference = enumerate_box_qp_optimum(pmat, qvec, lb, ub)
            assert diag.objective - 0.5 * problem.b @ problem.b - reference <= 1e-8
            assert diag.converged
            assert kkt_residual(problem, x) <= 1e-10


SHAPES = ("small", "2x4", "23x39", "2x4 negated pairs", "23x39 negated pairs",
          "tall negated pairs")


def random_matrix(rng, shape):
    """A random matrix of one of :data:`SHAPES`.

    The wide negated-pair shapes copy the fixtures' antagonists:
    ``toy_finger`` is two such pairs on 2 joints, ``hand_like`` has nine on
    23 joints. The tall one is rank-deficient with more rows than columns.
    """
    if shape == "small":
        A = rng.standard_normal(rng.integers(1, 9, size=2))
    elif shape.startswith("2x4"):
        A = rng.standard_normal((2, 4))
    elif shape.startswith("23x39"):
        A = 0.01 * rng.standard_normal((23, 39))
    else:
        rows = int(rng.integers(3, 9))
        A = rng.standard_normal((rows, int(rng.integers(2, rows))))
    if shape.endswith("pairs"):
        last = 2 * max(A.shape[1] // 4, 1)
        A[:, 1:last:2] = -A[:, 0:last:2]
    return A


def random_bvls_problem(rng, A):
    """A random box and target for ``A``.

    A fifth of the problems pin one variable; half the boxes straddle zero
    as an inversion frame's do, and half the targets are reachable.
    """
    n = A.shape[1]
    if rng.random() < 0.5:
        lb, ub = -rng.uniform(0.01, 1.0, n), rng.uniform(0.0, 1.0, n)
    else:
        ends = rng.standard_normal((2, n))
        lb, ub = ends.min(axis=0), ends.max(axis=0)
    if rng.random() < 0.2:
        pinned = rng.integers(n)
        ub[pinned] = lb[pinned]
    inside = rng.uniform(lb, ub)
    b = A @ inside
    if rng.random() < 0.5:
        b = A @ (inside + 3.0 * rng.standard_normal(n)) + 0.1 * np.abs(A).max() * rng.standard_normal(A.shape[0])
    return BoxQp(A, b, lb, ub)


def lsq_linear_reference(problem, tol=1e-10, max_iter=20000):
    """``scipy.optimize.lsq_linear(method="bvls")`` with pinned columns moved into b."""
    A, b, lb, ub = problem.A, problem.b, problem.lb, problem.ub
    x = lb.copy()
    live = lb < ub
    if not live.any():
        return x, 0
    res = lsq_linear(A[:, live], b - A[:, ~live] @ x[~live], bounds=(lb[live], ub[live]),
                     method="bvls", tol=tol, max_iter=max_iter)
    x[live] = np.clip(res.x, lb[live], ub[live])
    return x, int(res.nit)


def has_paired_columns(A):
    """True when some column equals another one or its negation exactly."""
    return any(
        np.array_equal(A[:, i], sign * A[:, j])
        for i in range(A.shape[1]) for j in range(i) for sign in (1.0, -1.0)
    )


class TestAgainstLsqLinear:
    def test_random_problems_match_scipy_bvls(self):
        rng = np.random.default_rng(2026)
        compared = 0
        for k in range(1500):
            problem = random_bvls_problem(rng, random_matrix(rng, SHAPES[k % len(SHAPES)]))
            x, diag = solve_box_qp(problem)
            x_ref, nit_ref = lsq_linear_reference(problem)
            r_ref = problem.A @ x_ref - problem.b
            assert abs(diag.objective - 0.5 * r_ref @ r_ref) <= 1e-12, k
            assert kkt_residual(problem, x) <= 1e-10, k
            assert diag.converged
            if not has_paired_columns(problem.A):
                compared += 1
                assert np.abs(x - x_ref).max() <= 1e-9, k
                assert diag.iterations == nit_ref, k
        assert compared >= 500

    @pytest.mark.parametrize("shape", SHAPES)
    def test_reused_solver_matches_a_fresh_one_bit_for_bit(self, shape):
        rng = np.random.default_rng(7)
        A = random_matrix(rng, shape)
        reused = BvlsSolver(A)
        for _ in range(60):
            p = random_bvls_problem(rng, A)
            x_fresh, it_fresh, ok_fresh, _ = solve_one(BvlsSolver(A), p.b, p.lb, p.ub)
            x_reused, it_reused, ok_reused, _ = solve_one(reused, p.b, p.lb, p.ub)
            assert np.array_equal(x_reused, x_fresh)
            assert (it_reused, ok_reused) == (it_fresh, ok_fresh)

    @pytest.mark.parametrize("shape", ["toy_finger", "hand_like", "2x4 negated pairs",
                                       "23x39 negated pairs"])
    def test_plain_array_solve_matches_solve_box_qp(self, shape):
        # One solver reused on plain arrays, as the inversion loop uses it,
        # against a checked problem solved by a fresh one, bit for bit. The
        # fixtures' moment arms are wide with antagonist pairs, so A'A is
        # singular.
        rng = np.random.default_rng(12)
        if shape in ("toy_finger", "hand_like"):
            A = make_fixture(shape).moment_arms
        else:
            A = random_matrix(rng, shape)
        solver = BvlsSolver(A)
        first_steps = pinned = 0
        for k in range(150):
            p = random_bvls_problem(rng, A)
            lb, ub = p.lb, p.ub
            if k % 3 == 0:
                # A box wide enough for the unbounded first step.
                lb, ub = np.where(lb < ub, lb - 1e3, lb), np.where(lb < ub, ub + 1e3, ub)
            x, iterations, converged, _ = solve_one(solver, p.b, lb, ub)
            x_ref, diag = solve_box_qp(BoxQp(A, p.b, lb, ub))
            assert x.tobytes() == x_ref.tobytes(), k
            assert (iterations, converged) == (diag.iterations, diag.converged), k
            assert np.all((lb <= x) & (x <= ub)), k
            first_steps += iterations == 0
            pinned += bool((lb == ub).any())
        assert first_steps >= 40 and pinned >= 15
        assert first_steps < 150

    @pytest.mark.parametrize("shape", ["toy_finger", "hand_like", "2x4 negated pairs"])
    def test_stack_matches_stacks_of_one(self, shape):
        # Many problems in one call, as the inversion loop hands a frame's
        # lanes to the solver: every row gets the bytes of that row solved
        # as a stack of one. The stack mixes rows whose first step is the
        # answer (wide boxes), rows BVLS iterates on, rows with one or every
        # variable pinned, and runs once more with max_iter=1.
        rng = np.random.default_rng(21)
        if shape in ("toy_finger", "hand_like"):
            A = make_fixture(shape).moment_arms
        else:
            A = random_matrix(rng, shape)
        problems = [random_bvls_problem(rng, A) for _ in range(60)]
        b = np.stack([p.b for p in problems])
        lb = np.stack([p.lb for p in problems])
        ub = np.stack([p.ub for p in problems])
        live = lb < ub
        # Every third box wide enough for the unbounded first step, and every
        # tenth with each variable pinned.
        wide = np.arange(60)[:, None] % 3 == 0
        lb, ub = np.where(wide & live, lb - 1e3, lb), np.where(wide & live, ub + 1e3, ub)
        ub[5::10] = lb[5::10]
        for max_iter in (20000, 1):
            solver = BvlsSolver(A)
            x, iterations, converged, residual = solve_and_check(solver, b, lb, ub, max_iter)
            assert (x.shape, iterations.shape, converged.shape, residual.shape) == (
                lb.shape, (60,), (60,), b.shape)
            for i in range(60):
                row = solve_and_check(BvlsSolver(A), b[i:i + 1], lb[i:i + 1], ub[i:i + 1],
                                      max_iter)
                assert x[i].tobytes() == row[0].tobytes(), (max_iter, i)
                assert iterations[i:i + 1].tobytes() == row[1].tobytes(), (max_iter, i)
                assert converged[i:i + 1].tobytes() == row[2].tobytes(), (max_iter, i)
                assert residual[i].tobytes() == row[3].tobytes(), (max_iter, i)
            pinned = (lb == ub).any(axis=1)
            assert 10 <= np.count_nonzero((iterations == 0) & ~pinned) < 50
            assert np.count_nonzero(iterations > 0) >= 10
            assert np.count_nonzero(pinned & ~(lb == ub).all(axis=1)) >= 3
            assert np.count_nonzero((lb == ub).all(axis=1)) == 6
            # max_iter=1 stops some rows short of convergence except on
            # toy_finger, whose problems here need one main-loop step at most.
            assert converged.all() == (max_iter == 20000 or shape == "toy_finger")


class TestCheck:
    @pytest.mark.parametrize("shape", ["toy_finger", "hand_like", "2x4 negated pairs",
                                       "tall negated pairs"])
    def test_a_3d_stack_matches_row_by_row_calls(self, shape):
        # An (nframes, lanes) stack of problems, as the inversion checks its
        # frames after the loop: every row's verdict and residual are the
        # bytes of that row checked alone and of its frame checked as a
        # 2-D stack. Half the rows are solved; the others hold a point in
        # the box, which the check mostly rejects.
        rng = np.random.default_rng(33)
        if shape in ("toy_finger", "hand_like"):
            A = make_fixture(shape).moment_arms
        else:
            A = random_matrix(rng, shape)
        frames, lanes = 6, 5
        problems = [random_bvls_problem(rng, A) for _ in range(frames * lanes)]
        b, lb, ub = (np.stack([getattr(p, name) for p in problems]).reshape(frames, lanes, -1)
                     for name in ("b", "lb", "ub"))
        solver = BvlsSolver(A)
        x = np.stack([solver.solve(b[f], lb[f], ub[f])[0] for f in range(frames)])
        x[:, ::2] = rng.uniform(lb[:, ::2], ub[:, ::2])
        converged, residual = solver.check(x, b, lb, ub)
        assert (converged.shape, residual.shape) == ((frames, lanes), b.shape)
        assert converged[:, 1::2].all() and not converged[:, ::2].all()
        for f in range(frames):
            frame = solver.check(x[f], b[f], lb[f], ub[f])
            assert frame[0].tobytes() == converged[f].tobytes()
            assert frame[1].tobytes() == residual[f].tobytes()
            for i in range(lanes):
                ok, r = solver.check(x[f, i][None], b[f, i][None], lb[f, i][None], ub[f, i][None])
                assert ok.tobytes() == converged[f, i:i + 1].tobytes(), (f, i)
                assert r[0].tobytes() == residual[f, i].tobytes(), (f, i)
                assert ok[0] == (kkt_residual(BoxQp(A, b[f, i], lb[f, i], ub[f, i]), x[f, i])
                                 <= 1e-10), (f, i)


class TestStackedInitialization:
    """The first initialization step that :meth:`BvlsSolver.solve` takes for
    a whole stack against the per-row loop it replaces."""

    EXITS = ("first step", "finished", "sent", "kkt", "no free", "pinned")

    @staticmethod
    def per_row(solver, b, lb, ub, max_iter):
        """One row through the per-row loop from its unbounded first step:
        ``(x, iterations, converged, residual)`` as ``solve`` reports them."""
        x = solver._pinv_all @ b
        iterations = 0
        if (lb == ub).any() or not ((x >= lb) & (x <= ub)).all():
            x, iterations = solver._bvls(b, lb, ub, x, max_iter)
        residual = solver.A @ x - b
        kkt = np.abs(x - np.minimum(np.maximum(x - solver.A.T @ residual, lb), ub)).max(
            initial=0.0)
        return x, iterations, kkt <= 1e-10, residual

    @pytest.mark.parametrize("shape", ["toy_finger", "small", "tall negated pairs"])
    def test_every_exit_matches_the_per_row_loop_bit_for_bit(self, shape):
        rng = np.random.default_rng(21)
        if shape == "toy_finger":
            A = make_fixture(shape).moment_arms
        else:
            A = random_matrix(rng, shape)
        problems = [random_bvls_problem(rng, A) for _ in range(120)]
        b = np.stack([p.b for p in problems])
        lb = np.stack([p.lb for p in problems])
        ub = np.stack([p.ub for p in problems])
        ub[7::20] = lb[7::20]
        oracle = BvlsSolver(A)
        exits = [first_initialization_exit(oracle, b[i], lb[i], ub[i]) for i in range(120)]
        for name in self.EXITS:
            assert exits.count(name) >= 2, (name, exits.count(name))
        assert np.count_nonzero((lb == ub).all(axis=1)) == 6
        # One more row that misses the KKT tolerance by less than a decade:
        # a "kkt" row scaled down, which scales its violation, until the
        # next decade would pass.
        k = exits.index("kkt")
        scale = 1.0
        while first_initialization_exit(oracle, 0.1 * scale * b[k], 0.1 * scale * lb[k],
                                        0.1 * scale * ub[k]) == "kkt":
            scale *= 0.1
        assert scale < 1.0
        b, lb, ub = (np.vstack((v, scale * v[k])) for v in (b, lb, ub))
        exits.append("kkt")
        for max_iter in (20000, 1):
            x, iterations, converged, residual = solve_and_check(BvlsSolver(A), b, lb, ub,
                                                                 max_iter)
            reference = BvlsSolver(A)
            for i in range(len(b)):
                x_i, it_i, ok_i, r_i = self.per_row(reference, b[i], lb[i], ub[i], max_iter)
                where = (max_iter, i, exits[i])
                assert x[i].tobytes() == x_i.tobytes(), where
                assert iterations[i] == it_i, where
                assert converged[i] == ok_i, where
                assert residual[i].tobytes() == r_i.tobytes(), where
                if exits[i] == "finished":
                    assert iterations[i] == 2, where
            # max_iter=1 stops some rows that the stacked step leaves unfinished.
            assert converged.all() == (max_iter == 20000), max_iter

    def test_clean_toy_finger_lanes_never_reach_the_per_row_loop(self, monkeypatch):
        # Eight clean lanes inverted together: every lane-frame whose first
        # step leaves its box is finished by the stacked step.
        plant = make_fixture("toy_finger")
        lanes = [_prepare(plant, rollout(plant, rest_state(plant), smooth_random_controls(
            plant.nactuators, 1000, 0.002, seed), 0.002).q, 500.0) for seed in range(1, 9)]
        calls = []
        real = BvlsSolver._bvls

        def counting(solver, *args):
            calls.append(args)
            return real(solver, *args)

        monkeypatch.setattr(BvlsSolver, "_bvls", counting)
        results = _invert_lanes(plant, lanes)
        assert calls == []
        iterating = sum(int(np.count_nonzero(r.iterations)) for r in results)
        assert iterating > 2000
        assert all((r.iterations[r.iterations > 0] == 2).all() for r in results)


class TestPinnedVariables:
    def test_matches_the_problem_with_pinned_columns_moved_into_b(self):
        # Pinned at values that are not zero, so the pinned columns change
        # every right-hand side the loop forms.
        rng = np.random.default_rng(31)
        loops = 0
        for k in range(600):
            A = random_matrix(rng, SHAPES[k % len(SHAPES)])
            p = random_bvls_problem(rng, A)
            lb, ub = p.lb.copy(), p.ub.copy()
            pins = rng.random(A.shape[1]) < 0.3
            pins[rng.integers(A.shape[1])] = True
            ub[pins] = lb[pins] = rng.uniform(-1.0, 1.0, pins.sum())
            live = ~pins
            x, iterations, converged, _ = solve_one(BvlsSolver(A), p.b, lb, ub)
            assert np.array_equal(x[pins], lb[pins]), k
            if not live.any():
                assert (iterations, converged) == (0, True)
                continue
            x_ref, it_ref, ok_ref, _ = solve_one(
                BvlsSolver(A[:, live]), p.b - A[:, pins] @ lb[pins], lb[live], ub[live])
            assert np.abs(x[live] - x_ref).max() <= 1e-12, k
            assert (iterations, converged) == (it_ref, ok_ref), k
            loops += iterations > 0
        assert loops >= 100

    def test_a_pinned_variable_stays_where_freeing_it_would_pay(self):
        # x0 is pinned at 0.5 while b pulls it to -5: its gradient says
        # "move down", and freeing it would lower the objective.
        A = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.3, 1.0]])
        b = np.array([-5.0, 6.0, 0.2])
        lb = np.array([0.5, -1.0, -1.0])
        ub = np.array([0.5, 1.0, 1.0])
        x, iterations, converged, _ = solve_one(BvlsSolver(A), b, lb, ub)
        assert x[0] == 0.5
        assert converged and iterations > 0
        assert (A.T @ (A @ x - b))[0] > 1.0
        freed, _, _, _ = solve_one(BvlsSolver(A), b, np.array([-10.0, -1, -1]), ub)
        assert np.sum((A @ freed - b) ** 2) < np.sum((A @ x - b) ** 2)


class TestProperties:
    @staticmethod
    def _reachable_target(rng, A, lb, ub):
        x_true = rng.uniform(lb, ub)
        problem = BoxQp(A, A @ x_true, lb, ub)
        x, diag = solve_box_qp(problem)
        assert diag.converged
        assert kkt_residual(problem, x) <= 1e-10
        assert np.abs(A @ x - problem.b).max() <= 1e-12

    def test_wide_rank_deficient_toy_finger_shape(self):
        # Two joints, two antagonist pairs: A'A is singular, so the
        # minimizer set is a line segment inside the box.
        rng = np.random.default_rng(3)
        A = np.array([[0.01, -0.01, 0.005, -0.005], [0.0, 0.0, 0.008, -0.008]])
        for _ in range(20):
            self._reachable_target(rng, A, -rng.uniform(0.05, 0.2, 4), np.zeros(4))

    def test_wide_rank_deficient_hand_like_shape(self):
        rng = np.random.default_rng(4)
        A = 0.01 * rng.standard_normal((23, 39))
        assert np.linalg.matrix_rank(A) == 23
        for _ in range(20):
            self._reachable_target(rng, A, -rng.uniform(0.05, 0.2, 39), np.zeros(39))

    def test_scaling_invariance_of_argmin(self):
        rng = np.random.default_rng(9)
        problem = _least_squares(*random_box_qp(rng))
        x_ref, _ = solve_box_qp(problem)
        for scale in (1e-3, 17.0, 1e4):
            root = np.sqrt(scale)
            scaled = BoxQp(root * problem.A, root * problem.b, problem.lb, problem.ub)
            x_scaled, diag = solve_box_qp(scaled)
            assert diag.converged
            assert np.allclose(x_scaled, x_ref, atol=1e-8)

    def test_degenerate_bounds_pin_components(self):
        A = np.diag([1.0, np.sqrt(2.0)])
        b = np.array([10.0, -1.0 / np.sqrt(2.0)])
        lb = np.array([0.3, -1.0])
        ub = np.array([0.3, 1.0])
        problem = BoxQp(A, b, lb, ub)
        x, diag = solve_box_qp(problem)
        assert x[0] == 0.3
        assert x[1] == pytest.approx(-0.5)
        assert diag.converged

    def test_determinism(self):
        rng = np.random.default_rng(5)
        problem = _least_squares(*random_box_qp(rng))
        x1, d1 = solve_box_qp(problem)
        x2, d2 = solve_box_qp(problem)
        assert np.array_equal(x1, x2)
        assert d1.iterations == d2.iterations

    def test_max_iter_exhaustion_returns_best_iterate(self):
        # Needs three BVLS iterations; one leaves a bound to be released.
        A = np.array([[1.1, 1.8, -2.6], [-0.1, 1.0, 1.4], [0.7, 1.5, 0.3]])
        problem = BoxQp(A, np.array([0.6, 0.2, -1.1]), -0.5 * np.ones(3), 0.5 * np.ones(3))
        x, diag = solve_box_qp(problem, max_iter=1)
        assert not diag.converged
        assert np.all(x >= problem.lb) and np.all(x <= problem.ub)
        assert solve_box_qp(problem)[1].converged

    def test_antagonist_paired_singular_problem(self):
        # Regression: paired +/- columns put the all-ones direction exactly
        # in the null space of A'A, which once stalled the solver on box
        # corners.
        A = np.array([[0.01, -0.01, 0.005, -0.005], [0.0, 0.0, 0.008, -0.008]])
        b = np.array([2.32328487e-3, 1.30994750625e-3])
        lb = np.array([-0.18399456, -0.18400544, -0.10976158, -0.10976881])
        problem = BoxQp(A, b, lb, np.zeros(4))
        x, diag = solve_box_qp(problem)
        assert diag.converged
        assert diag.iterations < 100
        assert kkt_residual(problem, x) <= 1e-10


class TestPinvCache:
    def test_a_small_cache_stays_bounded_and_changes_no_bit(self, monkeypatch):
        # Pose noise makes nearly every hand_like frame meet new free sets,
        # so a cache of 8 evicts and rebuilds entries throughout the run.
        plant = make_fixture("hand_like")
        ctrl = smooth_random_controls(plant.nactuators, 300, 0.002, 1)
        q = rollout(plant, rest_state(plant), ctrl, 0.002).q
        q = q + 1e-4 * np.random.default_rng(7).standard_normal(q.shape)
        real = BvlsSolver._subproblem
        sizes, keys = [], set()

        def recording(self, free, rhs):
            out = real(self, free, rhs)
            sizes.append(len(self._pinv))
            keys.add(free.tobytes())
            return out

        runs = []
        for cap in (10**9, 8):
            monkeypatch.setattr(myoctl.qp, "_PINV_CACHE_SIZE", cap)
            monkeypatch.setattr(BvlsSolver, "_subproblem", recording)
            sizes.clear()
            runs.append(invert_trajectory(plant, q, 500.0))
        assert len(keys) > 8
        assert max(sizes) == 8
        unbounded, bounded = runs
        for name in ("ctrl", "act", "residuals", "iterations", "causes"):
            assert getattr(bounded, name).tobytes() == getattr(unbounded, name).tobytes(), name


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BoxQp(np.array([[np.nan]]), np.zeros(1), -np.ones(1), np.ones(1))
        with pytest.raises(ValueError):
            BoxQp(np.eye(1), np.array([np.inf]), -np.ones(1), np.ones(1))
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="A contains non-finite entries"):
                BvlsSolver(np.array([[1.0, value], [0.0, 1.0]]))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BoxQp(np.ones((3, 2)), np.zeros(2), -np.ones(2), np.ones(2))

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoxQp(np.eye(1), np.zeros(1), np.ones(1), -np.ones(1))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BoxQp(np.eye(2), np.zeros(2), -np.ones(3), np.ones(3))
