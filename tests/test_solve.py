import sys

import numpy as np
import pytest
import scipy
import scipy.optimize._highspy._core as highs_core
import scipy.sparse as sp

from gridfactor import assemble, solve, verify_certificate
from gridfactor.harmonize import FactorState, apply_factor_state, derive_reference_shares
from gridfactor.lp import LinearProgram
from gridfactor.solve import SolveError, SolveOptions, _solve_highs

from _oracles import row_assemble
from conftest import wind_only_spec
from gridfactor import synthesize_system


@pytest.fixture(scope="module")
def mini_spec():
    """Small enough for the dense reference simplex to stay fast."""
    return synthesize_system(seed=5, n_countries=2, horizon=12, correlation=-0.8)


class TestBackendAgreement:
    def test_highs_matches_simplex(self, mini_spec):
        lp, _ = assemble(mini_spec)
        a = solve(lp, SolveOptions(method="highs"))
        b = solve(lp, SolveOptions(method="simplex", iteration_limit=200_000))
        assert a.status == b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, rel=1e-8)

    def test_tiny_lp_solves_with_highs_by_default(self):
        spec = wind_only_spec([1.0, 1.0], [0.5, 1.0])
        lp, _ = assemble(spec)
        result = solve(lp)
        assert result.method == "highs"
        assert result.status == "optimal"

    def test_unknown_method_rejected(self, small_spec):
        lp, _ = assemble(small_spec)
        with pytest.raises(SolveError):
            solve(lp, SolveOptions(method="barrier"))


def tiny_lp(A, relations, rhs, c, lb=None, ub=None):
    n = len(c)
    return LinearProgram(
        A=sp.csr_matrix(np.asarray(A, dtype=float).reshape(len(relations), n)),
        c=np.asarray(c, dtype=float),
        lb=np.zeros(n) if lb is None else np.asarray(lb, dtype=float),
        ub=np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float),
        relations=np.asarray(relations),
        rhs=np.asarray(rhs, dtype=float),
    )


class TestHighsStatus:
    @pytest.mark.parametrize("status", ["kSolveError", "kUnboundedOrInfeasible", "kUnknown"])
    def test_numerical_trouble_is_not_infeasible(self, monkeypatch, status):
        troubled = getattr(highs_core.HighsModelStatus, status)
        monkeypatch.setattr(highs_core._Highs, "getModelStatus", lambda self: troubled)
        lp, _ = assemble(wind_only_spec([1.0, 1.0], [0.5, 1.0]))
        result = solve(lp, SolveOptions(method="highs"))
        assert result.status == "numerical"
        assert np.isnan(result.objective)
        assert not result.primal.any() and not result.dual.any()

    def test_infeasible(self):
        result = solve(tiny_lp([[1.0], [1.0]], ["<", ">"], [1.0, 2.0], [1.0]))
        assert result.status == "infeasible"

    def test_unbounded(self):
        result = solve(tiny_lp([[1.0, -1.0]], ["<"], [1.0], [-1.0, 0.0]))
        assert result.status == "unbounded"

    def test_iteration_limit(self):
        spec = synthesize_system(seed=7, n_countries=3, horizon=168)
        lp, _ = assemble(apply_factor_state(spec, FactorState.parse("f_123456"), None))
        result = solve(lp, SolveOptions(method="highs", iteration_limit=1))
        assert result.status == "iteration-limit"
        assert result.iterations <= 1

    def test_missing_binding_raises(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        lp, _ = assemble(wind_only_spec([1.0, 1.0], [0.5, 1.0]))
        with pytest.raises(SolveError, match=f"scipy {scipy.__version__}: no HiGHS binding"):
            solve(lp, SolveOptions(method="highs"))

    def test_rejected_model_raises(self):
        lp = tiny_lp([[1.0]], ["<"], [1.0], [1.0], lb=[np.inf])
        with pytest.raises(SolveError, match="passModel returned kError"):
            solve(lp, SolveOptions(method="highs"))

    @pytest.mark.parametrize("field", ["c", "A", "rhs"])
    def test_non_finite_input_raises(self, field):
        lp = tiny_lp([[1.0]], ["<"], [1.0], [1.0])
        (lp.A.data if field == "A" else getattr(lp, field))[0] = np.nan
        with pytest.raises(SolveError, match="non-finite"):
            solve(lp)


@pytest.fixture(scope="module")
def isolated_lps():
    """The isolated (block-diagonal) states of a 3-country system, by name."""
    spec = synthesize_system(seed=11, n_countries=3, horizon=72, correlation=-0.5)
    shares = derive_reference_shares(spec, "AA")
    return {
        name: assemble(apply_factor_state(spec, FactorState.parse(name), shares))[0]
        for name in ("f_0", "f_2", "f_3456", "f_23456")
    }


# two independent blocks: min x0 s.t. x0 >= 1, and min x1 s.t. x1 >= 2
TWO_BLOCKS = ([[1.0, 0.0], [0.0, 1.0]], [">", ">"], [1.0, 2.0], [1.0, 1.0])


class TestBlocks:
    @pytest.mark.parametrize("name", ["f_0", "f_2", "f_3456", "f_23456"])
    def test_split_matches_monolithic_solve(self, isolated_lps, name):
        lp = isolated_lps[name]
        split = solve(lp)
        whole = _solve_highs(lp, SolveOptions())
        assert split.status == whole.status == "optimal"
        assert split.blocks == 3 and split.reused_blocks == 0
        assert split.objective == pytest.approx(whole.objective, rel=1e-9)
        assert verify_certificate(lp, split).ok

    def test_coupled_lp_is_one_unchanged_call(self):
        spec = synthesize_system(seed=11, n_countries=3, horizon=72, correlation=-0.5)
        lp, _ = assemble(apply_factor_state(spec, FactorState.parse("f_123456"), None))
        split = solve(lp)
        whole = _solve_highs(lp, SolveOptions())
        assert split.blocks == 1
        assert split.objective == whole.objective
        assert split.iterations == whole.iterations
        assert np.array_equal(split.primal, whole.primal)
        assert np.array_equal(split.dual, whole.dual)

    def test_blocks_write_back_in_lp_order(self):
        # rows and columns of the two blocks interleave
        lp = tiny_lp(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 2.0, 0.0]],
            [">", ">", "<"],
            [3.0, 1.0, 10.0],
            [5.0, 1.0, 2.0],
        )
        result = solve(lp)
        assert result.blocks == 2
        assert result.objective == pytest.approx(5.0)
        assert np.allclose(result.primal, [0.0, 3.0, 1.0])
        assert np.allclose(result.dual, [1.0, 2.0, 0.0])

    def test_infeasible_block_makes_lp_infeasible(self):
        A, relations, rhs, c = TWO_BLOCKS
        lp = tiny_lp(A, relations, rhs, c, ub=[np.inf, 1.0])
        result = solve(lp)
        assert (result.status, result.blocks) == ("infeasible", 2)
        assert np.isnan(result.objective)
        assert not result.primal.any() and not result.dual.any()

    def test_iteration_limit_is_one_budget(self, isolated_lps):
        lp = isolated_lps["f_23456"]
        needed = solve(lp).iterations
        # each block alone needs fewer iterations than this
        result = solve(lp, SolveOptions(iteration_limit=needed - 1))
        assert result.status == "iteration-limit"
        assert result.iterations <= needed - 1

    @pytest.mark.parametrize("relation,status", [("=", "infeasible"), ("<", "optimal")])
    def test_empty_row_is_honoured(self, relation, status):
        A, relations, rhs, c = TWO_BLOCKS
        lp = tiny_lp(A + [[0.0, 0.0]], relations + [relation], rhs + [5.0], c)
        assert lp.A.indptr[-1] == lp.A.indptr[-2]  # no stored entry in the last row
        result = solve(lp)
        assert (result.status, result.blocks) == (status, 2)

    def test_column_in_no_row_takes_its_cost_optimal_bound(self):
        A, relations, rhs, c = TWO_BLOCKS
        lp = tiny_lp(
            [row + [0.0, 0.0] for row in A],
            relations,
            rhs,
            c + [-2.0, 2.0],
            lb=[0.0, 0.0, 1.0, 1.0],
            ub=[np.inf, np.inf, 3.0, 3.0],
        )
        result = solve(lp)
        assert (result.status, result.blocks) == ("optimal", 2)
        assert np.allclose(result.primal, [1.0, 2.0, 3.0, 1.0])
        assert result.objective == pytest.approx(1.0 + 2.0 - 6.0 + 2.0)

    def test_known_blocks_are_not_solved_again(self, isolated_lps, monkeypatch):
        lp = isolated_lps["f_23456"]
        reuse = {}
        first = solve(lp, reuse=reuse)
        assert (first.blocks, first.reused_blocks, len(reuse)) == (3, 0, 3)
        solve_module = sys.modules["gridfactor.solve"]  # the package's `solve` shadows it
        monkeypatch.setattr(
            solve_module, "_solve_highs", lambda *a: pytest.fail("solved a known block")
        )
        again = solve(lp, reuse=reuse)
        assert (again.blocks, again.reused_blocks) == (3, 3)
        assert again.objective == first.objective
        assert again.iterations == first.iterations
        assert np.array_equal(again.primal, first.primal)
        assert np.array_equal(again.dual, first.dual)

    def test_known_block_is_solved_again_within_a_smaller_budget(self, isolated_lps):
        lp = isolated_lps["f_23456"]
        reuse = {}
        solve(lp, reuse=reuse)
        result = solve(lp, SolveOptions(iteration_limit=1), reuse)
        assert (result.status, result.reused_blocks) == ("iteration-limit", 0)
        assert result.iterations <= 1


class TestCertificates:
    @pytest.mark.parametrize("method", ["simplex", "highs"])
    def test_optimal_result_verifies(self, mini_spec, method):
        lp, _ = assemble(mini_spec)
        result = solve(lp, SolveOptions(method=method, iteration_limit=200_000))
        report = verify_certificate(lp, result)
        assert report.ok, report.messages
        assert report.primal_residual <= 1e-6 * (1 + np.abs(lp.rhs).max())
        assert report.duality_gap <= 1e-6 * (1 + abs(result.objective))

    def test_highs_verifies_on_larger_instance(self, small_spec):
        lp, _ = assemble(small_spec)
        result = solve(lp, SolveOptions(method="highs"))
        assert verify_certificate(lp, result).ok

    def test_perturbed_primal_flagged(self):
        spec = wind_only_spec([1.0, 1.0], [0.5, 1.0])
        lp, _ = assemble(spec)
        result = solve(lp)
        result.primal = result.primal.copy()
        result.primal[0] += 1e-3
        report = verify_certificate(lp, result)
        assert not report.ok

    def test_non_optimal_result_rejected(self):
        spec = wind_only_spec([1.0, 1.0], [0.5, 1.0])
        lp, _ = assemble(spec)
        result = solve(lp)
        result.status = "infeasible"
        with pytest.raises(SolveError):
            verify_certificate(lp, result)


class TestDualConvention:
    def test_balance_duals_are_marginal_cost_of_demand(self):
        """dZ/db of a balance row: one more MWh of demand costs more."""
        spec = wind_only_spec([1.0, 1.0], [0.5, 1.0])
        lp, _ = assemble(spec)
        row_meta = row_assemble(spec)[2].row_meta  # same A, bit for bit
        for method in ("simplex", "highs"):
            result = solve(lp, SolveOptions(method=method))
            balance = [i for i, m in enumerate(row_meta) if m[0] == "balance"]
            assert all(result.dual[i] >= -1e-9 for i in balance)
            # finite-difference check on hour 0
            bumped = lp.rhs.copy()
            bumped[balance[0]] += 1e-3
            lp.rhs = bumped
            bumped_result = solve(lp, SolveOptions(method=method))
            gain = (bumped_result.objective - result.objective) / 1e-3
            lp.rhs[balance[0]] -= 1e-3
            assert gain == pytest.approx(result.dual[balance[0]], rel=1e-4, abs=1e-6)
