import numpy as np
import pytest

from _oracles import brute_force_lp_minimum, random_box_lp, simplex_solve


def _solve(c, A, relations, b, lb, ub):
    return simplex_solve(
        np.asarray(A, dtype=float),
        np.asarray(relations),
        np.asarray(b, dtype=float),
        np.asarray(c, dtype=float),
        np.asarray(lb, dtype=float),
        np.asarray(ub, dtype=float),
    )


class TestSmallHandCases:
    def test_one_variable_ge(self):
        out = _solve([1.0], [[1.0]], [">"], [3.0], [0.0], [np.inf])
        assert out.status == "optimal"
        assert out.x[0] == 3.0
        assert out.objective == 3.0

    def test_infeasible_balance(self):
        out = _solve([0.0], [[0.0]], ["="], [1.0], [0.0], [np.inf])
        assert out.status == "infeasible"

    def test_unbounded(self):
        out = _solve([-1.0], [[1.0]], [">"], [0.0], [0.0], [np.inf])
        assert out.status == "unbounded"

    def test_bounded_variable_at_upper(self):
        out = _solve([-1.0], [[1.0]], [">"], [0.0], [0.0], [7.0])
        assert out.status == "optimal"
        assert out.x[0] == 7.0

    def test_equality_system(self):
        out = _solve(
            [1.0, 2.0],
            [[1.0, 1.0], [1.0, -1.0]],
            ["=", "="],
            [4.0, 0.0],
            [0.0, 0.0],
            [np.inf, np.inf],
        )
        assert out.status == "optimal"
        assert out.x == pytest.approx([2.0, 2.0])

    def test_duals_match_shadow_price(self):
        # min x, x >= 3: dual of the binding >= row is dZ/db = 1
        out = _solve([1.0], [[1.0]], [">"], [3.0], [0.0], [np.inf])
        assert out.y[0] == pytest.approx(1.0)


class TestDeterminism:
    def test_repeated_solves_identical(self):
        rng = np.random.default_rng(0)
        c, A, relations, b, lb, ub = random_box_lp(rng)
        first = _solve(c, A, relations, b, lb, ub)
        second = _solve(c, A, relations, b, lb, ub)
        assert first.status == second.status
        assert np.array_equal(first.x, second.x)
        assert first.iterations == second.iterations


class TestAgainstVertexEnumeration:
    def test_random_lps(self):
        rng = np.random.default_rng(12345)
        feasible = 0
        for _ in range(60):
            c, A, relations, b, lb, ub = random_box_lp(rng)
            expected = brute_force_lp_minimum(c, A, relations, b, lb, ub)
            out = _solve(c, A, relations, b, lb, ub)
            if expected is None:
                assert out.status == "infeasible"
                continue
            feasible += 1
            assert out.status == "optimal"
            assert out.objective == pytest.approx(expected, rel=1e-8, abs=1e-8)
        assert feasible >= 20  # the generator must exercise the optimal path

    def test_objective_scaling_invariance(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            c, A, relations, b, lb, ub = random_box_lp(rng)
            out = _solve(c, A, relations, b, lb, ub)
            if out.status != "optimal":
                continue
            scaled = _solve(3.5 * np.asarray(c), A, relations, b, lb, ub)
            assert scaled.status == "optimal"
            assert scaled.objective == pytest.approx(3.5 * out.objective, rel=1e-9, abs=1e-9)
            # the original argmin stays optimal under the scaled objective
            assert 3.5 * np.asarray(c) @ out.x == pytest.approx(scaled.objective, rel=1e-8, abs=1e-8)

    def test_degenerate_lp_terminates(self):
        # many redundant rows around the same vertex
        n = 4
        A = np.vstack([np.eye(n), np.eye(n), np.ones((1, n))])
        relations = np.array([">"] * (2 * n) + ["<"])
        b = np.concatenate([np.zeros(2 * n), [2.0]])
        out = _solve(np.ones(n), A, relations, b, np.zeros(n), np.full(n, np.inf))
        assert out.status == "optimal"
        assert out.objective == pytest.approx(0.0, abs=1e-12)
