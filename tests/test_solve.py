import sys

import numpy as np
import pytest
import scipy
import scipy.optimize._highspy._core as highs_core
import scipy.sparse as sp

from gridfactor import assemble, solve, verify_certificate
from gridfactor.harmonize import FactorState, apply_factor_state
from gridfactor.lp import LinearProgram
from gridfactor.solve import SolveError, SolveOptions

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


def tiny_lp(A, relations, rhs, c, lb=None):
    n = len(c)
    return LinearProgram(
        A=sp.csr_matrix(np.asarray(A, dtype=float)),
        c=np.asarray(c, dtype=float),
        lb=np.zeros(n) if lb is None else np.asarray(lb, dtype=float),
        ub=np.full(n, np.inf),
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
