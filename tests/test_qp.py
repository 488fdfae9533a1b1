import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from myoctl.qp import BoxQp, kkt_residual, solve_box_qp

from qp_oracle import enumerate_box_qp_optimum, random_box_qp


def _solve(A, b, lb, ub, **kwargs):
    problem = BoxQp(np.asarray(A, float), np.asarray(b, float),
                    np.asarray(lb, float), np.asarray(ub, float))
    x, diag = solve_box_qp(problem, **kwargs)
    return problem, x, diag


def _least_squares(pmat, qvec, lb, ub):
    """``1/2 x'Px + q'x`` as ``1/2 ||Ax - b||^2 - 1/2 b'b`` with ``P = LL'``."""
    lower = cholesky(pmat, lower=True)
    return BoxQp(lower.T, -solve_triangular(lower, qvec, lower=True), lb, ub)


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

    def test_rejects_points_outside_the_box(self):
        problem = BoxQp(np.eye(1), np.zeros(1), -np.ones(1), np.ones(1))
        with pytest.raises(ValueError):
            kkt_residual(problem, np.array([2.0]))


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


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BoxQp(np.array([[np.nan]]), np.zeros(1), -np.ones(1), np.ones(1))
        with pytest.raises(ValueError):
            BoxQp(np.eye(1), np.array([np.inf]), -np.ones(1), np.ones(1))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BoxQp(np.ones((3, 2)), np.zeros(2), -np.ones(2), np.ones(2))

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoxQp(np.eye(1), np.zeros(1), np.ones(1), -np.ones(1))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BoxQp(np.eye(2), np.zeros(2), -np.ones(3), np.ones(3))
