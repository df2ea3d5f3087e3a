import sys

import numpy as np
import pytest
import scipy
import scipy.optimize._highspy._core as highs_core
import scipy.sparse as sp

from gridfactor import assemble, verify_certificate
from gridfactor.factorize import extract_storage_metrics
from gridfactor.harmonize import FactorState, apply_factor_state, derive_reference_shares
from gridfactor.lp import LinearProgram
import gridfactor.solve as solve_mod
from gridfactor.solve import SolveError, SolveOptions, _solve_highs, map_basis, solve

from _oracles import row_assemble, simplex_lp
from conftest import wind_only_spec
from gridfactor import synthesize_system


@pytest.fixture(scope="module")
def mini_spec():
    """Small enough for the dense reference simplex to stay fast."""
    return synthesize_system(seed=5, n_countries=2, horizon=12, correlation=-0.8)


def solve_with(method, lp, iteration_limit=100_000):
    """``lp`` solved by ``solve`` (HiGHS) or by the reference simplex."""
    if method == "simplex":
        return simplex_lp(lp, iteration_limit)
    return solve(lp, SolveOptions(iteration_limit=iteration_limit))


def test_module_path_names_the_module():
    """``gridfactor.solve`` is the module; the package does not shadow it."""
    import gridfactor.solve as m

    assert m is sys.modules["gridfactor.solve"] is solve_mod
    assert callable(m.solve) and m.solve is solve


class TestBackendAgreement:
    def test_highs_matches_simplex(self, mini_spec):
        lp, _ = assemble(mini_spec)
        a = solve(lp)
        b = simplex_lp(lp, iteration_limit=200_000)
        assert a.status == b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, rel=1e-8)

    def test_tiny_lp_solves_with_highs_by_default(self):
        spec = wind_only_spec([1.0, 1.0], [0.5, 1.0])
        lp, _ = assemble(spec)
        result = solve(lp)
        assert result.status == "optimal"


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
        result = solve(lp)
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
        result = solve(lp, SolveOptions(iteration_limit=1))
        assert result.status == "iteration-limit"
        assert result.iterations <= 1

    def test_missing_binding_raises(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        lp, _ = assemble(wind_only_spec([1.0, 1.0], [0.5, 1.0]))
        with pytest.raises(SolveError, match=f"scipy {scipy.__version__}: no HiGHS binding"):
            solve(lp)

    def test_rejected_model_raises(self):
        lp = tiny_lp([[1.0]], ["<"], [1.0], [1.0], lb=[np.inf])
        with pytest.raises(SolveError, match="passModel returned kError"):
            solve(lp)

    def test_rejected_option_raises(self):
        # HiGHS keeps its old value for an option it rejects: here, no limit
        lp = tiny_lp([[1.0]], [">"], [1.0], [1.0])
        with pytest.raises(SolveError, match="rejected option simplex_iteration_limit=-5"):
            solve(lp, SolveOptions(iteration_limit=-5))

    @pytest.mark.parametrize("field", ["c", "A", "rhs"])
    def test_non_finite_input_raises(self, field):
        lp = tiny_lp([[1.0]], ["<"], [1.0], [1.0])
        (lp.A.data if field == "A" else getattr(lp, field))[0] = np.nan
        with pytest.raises(SolveError, match="non-finite"):
            solve(lp)


class TestNoColumns:
    """An LP without columns is decided from its rows at x = 0."""

    @pytest.mark.parametrize("method", ["highs", "simplex"])
    @pytest.mark.parametrize(
        "relation,rhs,status",
        [
            ("=", 5.0, "infeasible"),
            ("<", 5.0, "optimal"),
            ("<", -5.0, "infeasible"),
            (">", 5.0, "infeasible"),
        ],
    )
    def test_rows_at_zero_decide(self, method, relation, rhs, status):
        lp = tiny_lp([], [relation], [rhs], [])
        assert solve(lp).iterations == 0  # no solver runs
        result = solve_with(method, lp)
        assert result.status == status
        assert result.primal.shape == (0,) and result.dual.shape == (1,)
        if status == "optimal":
            assert result.objective == 0.0
            assert verify_certificate(lp, result).ok
        else:
            assert np.isnan(result.objective)

    def test_row_within_tolerance_holds(self):
        lp = tiny_lp([], ["=", ">"], [1e-9, 0.0], [])
        assert solve(lp).status == "optimal"


class TestSimplexVariant:
    """Aggregate storage metrics are unique across optimal vertices, unlike flows.

    So is each country's share in an isolated state, where every country
    is its own block. In a coupled state the split between countries can
    move from one optimal vertex to another, so only totals are compared.
    """

    @pytest.mark.parametrize("name", ["f_123456", "f_23456"])
    def test_storage_metrics_match_reference_simplex(self, mini_spec, name):
        shares = derive_reference_shares(mini_spec, "AA")
        scenario = apply_factor_state(mini_spec, FactorState.parse(name), shares)
        lp, _ = assemble(scenario)
        highs = solve(lp)
        reference = simplex_lp(lp, iteration_limit=200_000)
        assert highs.status == reference.status == "optimal"
        assert highs.blocks == (1 if name == "f_123456" else 2)
        got, got_by_country = extract_storage_metrics(scenario, lp, highs)
        want, want_by_country = extract_storage_metrics(scenario, lp, reference)
        # a metric that is 0 at the optimum reads as rounding noise, ~1e-12
        tol = 1e-8 * max(abs(v) for v in want.values())
        assert got == pytest.approx(want, rel=1e-8, abs=tol)
        if highs.blocks > 1:
            for code, metrics in want_by_country.items():
                assert got_by_country[code] == pytest.approx(metrics, rel=1e-8, abs=tol)


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
        monkeypatch.setattr(
            solve_mod, "_solve_highs", lambda *a: pytest.fail("solved a known block")
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


@pytest.fixture(scope="module")
def coupled_lp():
    spec = synthesize_system(seed=11, n_countries=3, horizon=72, correlation=-0.5)
    return assemble(apply_factor_state(spec, FactorState.parse("f_123456"), None))[0]


class TestStartBasis:
    def test_restart_from_own_basis_takes_no_iterations(self, coupled_lp):
        first = solve(coupled_lp, keep_basis=True)
        assert first.iterations > 0
        assert first.basis.dtype == np.int8
        assert first.basis.shape == (coupled_lp.n_cols + coupled_lp.n_rows,)
        # one basic variable per row
        assert np.count_nonzero(first.basis == 1) == coupled_lp.n_rows
        again = solve(coupled_lp, start=first.basis, keep_basis=True)
        assert again.iterations == 0
        assert again.objective == pytest.approx(first.objective, rel=1e-12)
        assert np.array_equal(again.basis, first.basis)

    def test_basis_is_only_read_when_kept(self, coupled_lp):
        assert solve(coupled_lp).basis is None

    def test_missing_final_basis_raises(self, coupled_lp):
        class NoBasis:
            def getBasis(self):
                return highs_core.HighsBasis()  # valid is False

        with pytest.raises(SolveError, match="no valid final basis"):
            solve_mod._final_basis(NoBasis(), coupled_lp)

    def test_block_basis_round_trips_in_lp_order(self):
        # the interleaved two-block LP of TestBlocks: x = (0, 3, 1)
        lp = tiny_lp(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 2.0, 0.0]],
            [">", ">", "<"],
            [3.0, 1.0, 10.0],
            [5.0, 1.0, 2.0],
        )
        result = solve(lp, keep_basis=True)
        assert result.blocks == 2
        # x0 at its lower bound, x1 and x2 basic; rows 0 and 1 bind, row 2 is slack
        assert result.basis.tolist() == [0, 1, 1, 0, 0, 1]
        again = solve(lp, start=result.basis, keep_basis=True)
        assert (again.iterations, again.objective) == (0, result.objective)
        assert np.array_equal(again.basis, result.basis)

    def test_blocks_restart_from_their_slices(self, isolated_lps):
        lp = isolated_lps["f_23456"]
        first = solve(lp, keep_basis=True)
        assert first.blocks == 3
        again = solve(lp, start=first.basis, keep_basis=True)
        assert again.iterations == 0
        assert again.objective == pytest.approx(first.objective, rel=1e-12)
        assert np.array_equal(again.basis, first.basis)

    def test_start_of_wrong_length_raises(self, coupled_lp):
        start = solve(coupled_lp, keep_basis=True).basis
        with pytest.raises(SolveError, match="start basis"):
            solve(coupled_lp, start=start[:-1])

    def test_start_with_too_many_basics_is_repaired(self):
        A, relations, rhs, c = TWO_BLOCKS
        lp = tiny_lp(A, relations, rhs, c)
        result = solve(lp, start=np.ones(4, dtype=np.int8))  # four basic for two rows
        assert (result.status, result.alien_start) == ("optimal", True)
        assert result.objective == pytest.approx(3.0)
        assert verify_certificate(lp, result).ok

    def test_start_rejected_by_highs_raises(self):
        class Refusing:
            def setBasis(self, basis):
                return highs_core.HighsStatus.kError

        A, relations, rhs, c = TWO_BLOCKS
        lp = tiny_lp(A, relations, rhs, c)
        with pytest.raises(SolveError, match="rejected the start basis"):
            solve_mod._set_basis(
                Refusing(), highs_core, lp, np.array([1, 1, 0, 0], dtype=np.int8)
            )

    def test_unknown_simplex_variant_raises(self, coupled_lp):
        with pytest.raises(SolveError, match="simplex variant"):
            solve(coupled_lp, simplex="barrier")

    def test_unknown_status_raises(self):
        A, relations, rhs, c = TWO_BLOCKS
        lp = tiny_lp(A, relations, rhs, c)
        with pytest.raises(SolveError, match="unknown status"):
            solve(lp, start=np.array([0, 0, 1, 7], dtype=np.int8))

    def test_warm_result_never_answers_another_start(self, isolated_lps):
        lp = isolated_lps["f_23456"]
        start = solve(isolated_lps["f_3456"], keep_basis=True).basis
        reuse = {}
        cold = solve(lp, reuse=reuse)
        assert (cold.reused_blocks, len(reuse)) == (0, 3)
        # a result stored without its basis answers only callers that keep none
        assert all(result.basis is None for result in reuse.values())
        assert solve(lp, reuse=reuse).reused_blocks == 3
        kept = solve(lp, reuse=reuse, keep_basis=True)
        assert (kept.reused_blocks, len(reuse)) == (0, 3)
        assert all(result.basis is not None for result in reuse.values())
        assert solve(lp, reuse=reuse, keep_basis=True).reused_blocks == 3
        warm = solve(lp, reuse=reuse, start=start, keep_basis=True)
        assert (warm.reused_blocks, len(reuse)) == (0, 6)
        again = solve(lp, reuse=reuse, start=start, keep_basis=True)
        assert (again.reused_blocks, len(reuse)) == (3, 6)
        assert again.iterations == warm.iterations
        assert np.array_equal(again.primal, warm.primal)
        assert np.array_equal(again.basis, warm.basis)
        # a block solved by the dual simplex from the same start is stored apart
        dual = solve(lp, reuse=reuse, start=start, keep_basis=True, simplex="dual")
        assert (dual.reused_blocks, len(reuse)) == (0, 9)
        again = solve(lp, reuse=reuse, start=start, keep_basis=True, simplex="dual")
        assert (again.reused_blocks, again.iterations) == (3, dual.iterations)


@pytest.fixture(scope="module")
def lattice_lps():
    """States of a 3-country system whose LPs differ in shape, by name.

    f_1 adds flow columns to f_0. Harmonized hydro gives every country
    the reference's reservoir, so f_5 (native hydro) has fewer columns
    and rows than f_0. f_6 has f_0's layout.
    """
    spec = synthesize_system(seed=11, n_countries=3, horizon=72, correlation=-0.5)
    shares = derive_reference_shares(spec, "AA")
    return {
        name: assemble(apply_factor_state(spec, FactorState.parse(name), shares))[0]
        for name in ("f_0", "f_1", "f_5", "f_6")
    }


class TestMapBasis:
    @pytest.fixture(scope="class")
    def bases(self, lattice_lps):
        return {name: solve(lp, keep_basis=True).basis for name, lp in lattice_lps.items()}

    @staticmethod
    def mapped(bases, lattice_lps, source, target):
        lp = lattice_lps[source]
        return map_basis(bases[source], lp.blocks, lp.row_blocks, lattice_lps[target])

    def test_equal_layouts_give_back_the_same_array(self, lattice_lps, bases):
        assert lattice_lps["f_6"].row_blocks == lattice_lps["f_0"].row_blocks
        assert self.mapped(bases, lattice_lps, "f_0", "f_6") is bases["f_0"]

    @pytest.mark.parametrize("source,target", [("f_0", "f_1"), ("f_0", "f_5"), ("f_5", "f_0")])
    def test_shared_keys_keep_their_statuses(self, lattice_lps, bases, source, target):
        start = self.mapped(bases, lattice_lps, source, target)
        old, new = lattice_lps[source], lattice_lps[target]
        assert start.shape == (new.n_cols + new.n_rows,)
        shared = 0
        for maps, old_at, new_at in (
            ("blocks", 0, 0),
            ("row_blocks", old.n_cols, new.n_cols),
        ):
            old_map, new_map = getattr(old, maps), getattr(new, maps)
            for key in old_map.keys() & new_map.keys():
                was, now = old_map[key], new_map[key]
                assert np.array_equal(
                    start[new_at + now.start : new_at + now.stop],
                    bases[source][old_at + was.start : old_at + was.stop],
                )
                shared += 1
        assert shared > 0

    def test_new_flow_columns_start_at_their_lower_bound(self, lattice_lps, bases):
        start = self.mapped(bases, lattice_lps, "f_0", "f_1")
        flows = lattice_lps["f_1"].find_columns("flow")
        assert flows and not start[flows].any()
        assert np.count_nonzero(start == 1) == lattice_lps["f_1"].n_rows

    def test_new_rows_start_basic(self, lattice_lps, bases):
        # f_0's harmonized reservoirs are rows that f_5 lacks
        start = self.mapped(bases, lattice_lps, "f_5", "f_0")
        lp, parent = lattice_lps["f_0"], lattice_lps["f_5"]
        new_rows = [
            lp.n_cols + r
            for key, rows in lp.row_blocks.items()
            if key not in parent.row_blocks
            for r in range(rows.start, rows.stop)
        ]
        new_cols = [
            j
            for key, cols in lp.blocks.items()
            if key not in parent.blocks
            for j in range(cols.start, cols.stop)
        ]
        assert new_rows and new_cols
        assert (start[new_rows] == 1).all()
        assert (start[new_cols] == 0).all()

    @pytest.mark.parametrize("simplex", ["primal", "dual"])
    def test_hydro_edge_gives_an_alien_start_that_certifies(
        self, lattice_lps, bases, simplex
    ):
        lp = lattice_lps["f_5"]
        start = self.mapped(bases, lattice_lps, "f_0", "f_5")
        assert np.count_nonzero(start == 1) != lp.n_rows
        warm = solve(lp, start=start, simplex=simplex)
        cold = solve(lp)
        assert (warm.status, warm.alien_start, cold.alien_start) == ("optimal", True, False)
        assert warm.iterations < cold.iterations
        assert verify_certificate(lp, warm).ok
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


class TestCertificates:
    @pytest.mark.parametrize("method", ["simplex", "highs"])
    def test_optimal_result_verifies(self, mini_spec, method):
        lp, _ = assemble(mini_spec)
        result = solve_with(method, lp, iteration_limit=200_000)
        report = verify_certificate(lp, result)
        assert report.ok, report.messages
        assert report.primal_residual <= 1e-6 * (1 + np.abs(lp.rhs).max())
        assert report.duality_gap <= 1e-6 * (1 + abs(result.objective))

    def test_highs_verifies_on_larger_instance(self, small_spec):
        lp, _ = assemble(small_spec)
        result = solve(lp)
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
            result = solve_with(method, lp)
            balance = [i for i, m in enumerate(row_meta) if m[0] == "balance"]
            assert all(result.dual[i] >= -1e-9 for i in balance)
            # finite-difference check on hour 0
            bumped = lp.rhs.copy()
            bumped[balance[0]] += 1e-3
            lp.rhs = bumped
            bumped_result = solve_with(method, lp)
            gain = (bumped_result.objective - result.objective) / 1e-3
            lp.rhs[balance[0]] -= 1e-3
            assert gain == pytest.approx(result.dual[balance[0]], rel=1e-4, abs=1e-6)
