import importlib

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from gridfactor import assemble, solve, verify_certificate
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


class TestHighsStatus:
    @pytest.mark.parametrize("code", [4, 9])
    def test_numerical_trouble_is_not_infeasible(self, monkeypatch, code):
        # ``gridfactor.solve`` the attribute is the function; fetch the module
        solve_mod = importlib.import_module("gridfactor.solve")
        troubled = OptimizeResult(status=code, x=None, fun=None, nit=7, message="trouble")
        monkeypatch.setattr(solve_mod, "linprog", lambda *a, **k: troubled)
        lp, _ = assemble(wind_only_spec([1.0, 1.0], [0.5, 1.0]))
        result = solve(lp, SolveOptions(method="highs"))
        assert result.status == "numerical"
        assert result.iterations == 7


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
