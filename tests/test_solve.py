import importlib.machinery
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy
import scipy.optimize._highspy._core as highs_core

from gridfactor import assemble, verify_certificate
from gridfactor.factorize import extract_storage_metrics
from gridfactor.harmonize import (
    FACTOR_NAMES,
    FactorState,
    apply_factor_state,
    derive_reference_shares,
    enumerate_subset_states,
)
from gridfactor.lp import LinearProgram, scipy_extension
import gridfactor.solve as solve_mod
from gridfactor.solve import SolveError, SolveOptions, _solve_highs, solve, solve_certified
from gridfactor.sweep import basis_record, map_basis

from _oracles import from_scipy, independent_blocks, row_assemble, simplex_lp, to_scipy
from conftest import run_fresh, tiny_lp, wind_only_spec
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
        lp = tiny_lp([[1.0], [1.0]], ["<", ">"], [1.0, 2.0], [1.0])
        assert solve(lp).status == "infeasible"
        with pytest.raises(SolveError, match="^scenario x is infeasible$"):
            solve_certified(lp, "scenario x")

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


class TestLoad:
    """``highs_model`` hands HiGHS an assembled LP with nothing for it to drop."""

    @pytest.fixture
    def passed(self, monkeypatch):
        """The status of each ``passModel`` call."""
        statuses = []

        class Recorded(highs_core._Highs):
            def passModel(self, *args):
                statuses.append(super().passModel(*args))
                return statuses[-1]

        monkeypatch.setattr(highs_core, "_Highs", Recorded)
        return statuses

    @pytest.mark.parametrize("state", ["f_0", "f_2", "f_123456"])
    @pytest.mark.parametrize("system", ["small_spec", "seed-7 3x168"])
    def test_assembled_lp_loads_whole_with_ok(self, request, passed, system, state):
        if system == "small_spec":
            spec = request.getfixturevalue("small_spec")
        else:
            spec = synthesize_system(seed=7, n_countries=3, horizon=168, correlation=-0.8)
        shares = derive_reference_shares(spec, "AA")
        lp, _ = assemble(apply_factor_state(spec, FactorState.parse(state), shares))
        assert np.abs(lp.A.data).min() >= 1e-12
        passed.clear()  # the reference runs loaded models too
        loaded = solve_mod.highs_model(lp).getLp()
        assert passed == [highs_core.HighsStatus.kOk]
        assert len(loaded.a_matrix_.value_) == lp.A.nnz

    def test_tiny_coefficient_is_dropped_with_a_warning(self, passed):
        lp = tiny_lp([[1.0, 1e-16]], [">"], [1.0], [1.0, 1.0])
        loaded = solve_mod.highs_model(lp).getLp()
        assert passed == [highs_core.HighsStatus.kWarning]
        assert list(loaded.a_matrix_.value_) == [1.0]


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

    def test_kept_basis_is_every_row_basic(self):
        lp = tiny_lp([], ["<", ">"], [5.0, -1.0], [])
        assert solve(lp, keep_basis=True).basis.tolist() == [1, 1]
        assert solve(lp).basis is None


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
        assert split.blocks == 3
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

    def test_iteration_limit_is_per_block(self, isolated_lps):
        lp = isolated_lps["f_23456"]
        total = solve(lp).iterations
        needed = sorted(
            _solve_highs(
                LinearProgram(
                    A=from_scipy(to_scipy(lp.A)[rows][:, cols]),
                    c=lp.c[cols],
                    lb=lp.lb[cols],
                    ub=lp.ub[cols],
                    relations=lp.relations[rows],
                    rhs=lp.rhs[rows],
                ),
                SolveOptions(),
            ).iterations
            for rows, cols in solve_mod._independent_blocks(lp)
        )
        assert len(needed) == 3 and sum(needed) == total
        # HiGHS stops at iteration-limit once its count reaches the limit
        enough = solve(lp, SolveOptions(iteration_limit=needed[-1] + 1))
        assert needed[-1] + 1 < total
        assert (enough.status, enough.iterations) == ("optimal", total)
        short = solve(lp, SolveOptions(iteration_limit=needed[0] - 1))
        assert short.status == "iteration-limit"
        # the first block stops, and the blocks after it count for nothing
        assert short.iterations <= needed[0] - 1

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


def five_block_lp() -> LinearProgram:
    """Five blocks of 1, 3, 2, 3 and 1 stored entries; the optimum is 9."""
    A = np.zeros((7, 8))
    A[0, 0] = 1.0  # block 0: x0 >= 1
    A[1, [1, 2]] = A[2, 2] = 1.0  # block 1: x1 + x2 >= 2, x2 >= 1
    A[3, [3, 4]] = 1.0  # block 2: x3 + x4 >= 3
    A[4, [5, 6]] = A[5, 6] = 1.0  # block 3: x5 + x6 >= 1, x6 <= 4
    A[6, 7] = 1.0  # block 4: x7 = 2
    return tiny_lp(A, [">", ">", ">", ">", ">", "<", "="], [1, 2, 1, 3, 1, 4, 2], [1.0] * 8)


class TestBlockOracle:
    """``_independent_blocks`` gives the partition scipy's ``connected_components`` gives."""

    @staticmethod
    def assert_same_partition(lp: LinearProgram) -> int:
        """Assert equal (rows, cols) arrays in equal order; return the block count."""
        got, want = solve_mod._independent_blocks(lp), independent_blocks(lp)
        assert len(got) == len(want)
        for (rows, cols), (want_rows, want_cols) in zip(got, want):
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        return len(got)

    @pytest.mark.parametrize("system", ["small_spec", "three_country_spec"])
    def test_every_state_of_the_design(self, request, system):
        spec = request.getfixturevalue(system)
        shares = derive_reference_shares(spec, "AA")
        blocks = [
            self.assert_same_partition(assemble(apply_factor_state(spec, state, shares))[0])
            for state in enumerate_subset_states(tuple(FACTOR_NAMES))
        ]
        # an interconnected state is one block, an isolated one a block per country
        assert sorted(blocks) == [0] * 32 + [len(spec.countries)] * 32

    # each LP's rows, columns and entries; every row is ">= 1" and every cost 1
    CASES = {
        "empty last row": (TWO_BLOCKS[0] + [[0, 0]], 2),
        "empty first row": ([[0, 0]] + TWO_BLOCKS[0], 2),
        "column in no row": ([[1, 0, 0], [0, 0, 1]], 2),
        "column in no row first": ([[0, 1, 0], [0, 0, 1]], 2),
        "five one-row blocks": (np.eye(5), 5),
        "five blocks of unequal size": (to_scipy(five_block_lp().A).toarray(), 5),
        "interleaved blocks": ([[0, 1, 0], [1, 0, 1], [0, 2, 0]], 2),
        "one block": ([[1, 1], [0, 1]], 0),
        "no entries": (np.zeros((2, 3)), 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_hand_built_lp(self, case):
        A, blocks = self.CASES[case]
        m, n = np.shape(A)
        assert self.assert_same_partition(tiny_lp(A, [">"] * m, [1.0] * m, [1.0] * n)) == blocks


def count_loads(name: str) -> str:
    """Probe code counting the loads of extension ``name`` in ``loads``.

    Each load is held long enough for a second thread to try one at the
    same time, and threads switch often. The probe imports no scipy
    module; ``lp`` is an LP of three one-row blocks.
    """
    return (
        "import sys, threading, time, importlib.machinery\n"
        "sys.setswitchinterval(1e-5)\n"
        "loads = []\n"
        "create = importlib.machinery.ExtensionFileLoader.create_module\n"
        "def counted(self, spec):\n"
        f"    if spec.name == {name!r}:\n"
        "        loads.append(spec.name)\n"
        "        time.sleep(0.05)\n"
        "    return create(self, spec)\n"
        "importlib.machinery.ExtensionFileLoader.create_module = counted\n"
        "import numpy as np\n"
        "import gridfactor.solve as solve_mod\n"
        "from gridfactor.lp import CsrMatrix, LinearProgram, scipy_extension\n"
        "index = np.arange(4, dtype=np.int32)\n"
        "eye = CsrMatrix((3, 3), index, index[:3], np.ones(3))\n"
        "lp = LinearProgram(A=eye, c=np.ones(3), lb=np.zeros(3),\n"
        "                   ub=np.full(3, np.inf), relations=np.array(['>'] * 3), rhs=np.ones(3))\n"
    )


_BINDING = "scipy.optimize._highspy._core"


class TestBindingLoader:
    """The HiGHS binding's load on the block thread pool, and its ``SolveError``."""

    def test_first_solves_on_the_block_pool_load_it_once(self):
        probe = count_loads(_BINDING) + (
            "solve_mod._usable_cpus = lambda: 3\n"
            "threads = []\n"
            "class Counted(solve_mod.ThreadPoolExecutor):\n"
            "    def __init__(self, max_workers, **kwargs):\n"
            "        threads.append(max_workers)\n"
            "        super().__init__(max_workers, **kwargs)\n"
            "solve_mod.ThreadPoolExecutor = Counted\n"
            "result = solve_mod.solve(lp)\n"
            "print(threads, result.blocks, result.objective, len(loads))"
        )
        for _ in range(4):
            assert run_fresh(probe).split() == ["[3]", "3", "3.0", "1"]

    def test_missing_extension_file_raises_as_a_none_entry_does(self, monkeypatch):
        # test_missing_binding_raises holds the None entry's error
        lp, _ = assemble(wind_only_spec([1.0, 1.0], [0.5, 1.0]))
        monkeypatch.delitem(sys.modules, _BINDING)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])
        with pytest.raises(SolveError, match=f"^scipy {scipy.__version__}: no HiGHS binding "):
            solve(lp)
        assert _BINDING not in sys.modules


# each extension the package loads from its file: its package, a module of
# scipy that imports it and the name it has there, and a call through
# scipy's own API that runs it, with the value that call prints
EXTENSIONS = {
    _BINDING: (
        "scipy.optimize",
        "scipy.optimize._highspy._highs_wrapper",
        "_h",
        "scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0]).fun",
        "1.0",
    ),
    "scipy.sparse._sparsetools": (
        "scipy.sparse",
        "scipy.sparse._compressed",
        "_sparsetools",
        "(scipy.sparse.csr_matrix([[1.0, 2.0]]) @ np.ones(2))[0]",
        "3.0",
    ),
}


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
class TestExtensionLoader:
    """Each extension is loaded once per process, whether or not scipy loads it first."""

    def test_threads_asking_first_load_it_once(self, name):
        """More threads than CPUs ask for the module at once; one load serves them all."""
        probe = count_loads(name) + (
            "barrier = threading.Barrier(4)\n"
            "got = []\n"
            "def ask():\n"
            "    barrier.wait()\n"
            f"    got.append(scipy_extension({name!r}))\n"
            "threads = [threading.Thread(target=ask) for _ in range(4)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join(timeout=60)\n"
            "alive = sum(thread.is_alive() for thread in threads)\n"
            f"same = all(module is sys.modules[{name!r}] for module in got)\n"
            "print(len(loads), alive, len(got), same)"
        )
        for _ in range(4):
            assert run_fresh(probe).split() == ["1", "0", "4", "True"]

    def test_a_module_scipy_imported_first_is_reused(self, name):
        package = EXTENSIONS[name][0]
        probe = count_loads(name) + (
            f"import {package}\n"
            f"module = sys.modules[{name!r}]\n"
            "loaded_by_scipy = len(loads)\n"
            "from gridfactor import assemble, synthesize_system\n"
            "system = synthesize_system(seed=3, n_countries=2, horizon=24)\n"
            "result = solve_mod.solve(assemble(system)[0])\n"
            f"reused = scipy_extension({name!r}) is module\n"
            "print(loaded_by_scipy, len(loads), reused, result.status)"
        )
        assert run_fresh(probe).split() == ["1", "1", "True", "optimal"]

    def test_a_later_import_of_its_package_shares_it(self, name):
        package, user, attribute, call, value = EXTENSIONS[name]
        probe = count_loads(name) + (
            "from gridfactor import assemble, synthesize_system\n"
            "system = synthesize_system(seed=3, n_countries=2, horizon=24)\n"
            "result = solve_mod.solve(assemble(system)[0])\n"
            f"module = sys.modules[{name!r}]\n"
            f"import scipy, {package}, {user}\n"
            f"print(result.status, {user}.{attribute} is module, {call}, len(loads))"
        )
        assert run_fresh(probe).split() == ["optimal", "True", value, "1"]

    def test_none_in_sys_modules_raises_import_error(self, monkeypatch, name):
        monkeypatch.setitem(sys.modules, name, None)
        with pytest.raises(ImportError, match=f"^import of {name} halted; None in sys.modules$"):
            scipy_extension(name)


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

    def test_missing_final_basis_raises(self):
        class NoBasis:
            def getBasis(self):
                return highs_core.HighsBasis()  # valid is False

        with pytest.raises(SolveError, match="no valid final basis"):
            solve_mod._final_basis(NoBasis())

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

    @pytest.mark.parametrize("started", [False, True], ids=["cold", "started"])
    @pytest.mark.parametrize("name", ["coupled", "isolated"])
    def test_a_started_solve_runs_the_dual_simplex_with_devex(
        self, coupled_lp, isolated_lps, monkeypatch, name, started
    ):
        """The options each HiGHS model held when it ran.

        ``simplex_strategy`` 1 is the dual simplex and 4 the primal;
        ``simplex_dual_edge_weight_strategy`` 1 is Devex pricing.
        """
        lp = coupled_lp if name == "coupled" else isolated_lps["f_23456"]
        start = solve(lp, keep_basis=True).basis if started else None
        ran = []
        run = highs_core._Highs.run

        def spied(highs):
            status = run(highs)
            ran.append(
                tuple(
                    highs.getOptionValue(option)[1]
                    for option in ("simplex_strategy", "simplex_dual_edge_weight_strategy")
                )
            )
            return status

        monkeypatch.setattr(highs_core._Highs, "run", spied)
        result = solve(lp, start=start)
        assert result.status == "optimal"
        assert len(ran) == result.blocks
        if started:
            assert result.simplex == "dual" and set(ran) == {(1, 1)}
        else:
            assert result.simplex == "primal" and {strategy for strategy, _ in ran} == {4}

    def test_unknown_status_raises(self):
        A, relations, rhs, c = TWO_BLOCKS
        lp = tiny_lp(A, relations, rhs, c)
        with pytest.raises(SolveError, match="unknown status"):
            solve(lp, start=np.array([0, 0, 1, 7], dtype=np.int8))


class TestThreads:
    """Blocks solved at once on a thread pool give what blocks solved in order give.

    The CPU count is patched, so that the pool runs on a one-CPU machine too.
    """

    @pytest.fixture
    def pools(self, monkeypatch):
        """Each pool ``solve`` builds, with two CPUs to use.

        A pool holds its thread count and the blocks, each a (rows, cols)
        pair, in the order they were submitted.
        """
        built = []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                self.threads, self.submitted = max_workers, []
                built.append(self)
                super().__init__(max_workers, **kwargs)

            def submit(self, fn, part, /):
                self.submitted.append(part)
                return super().submit(fn, part)

        monkeypatch.setattr(solve_mod, "ThreadPoolExecutor", Recorded)
        monkeypatch.setattr(solve_mod, "_usable_cpus", lambda: 2)
        return built

    @staticmethod
    def submission_order(pool, lp) -> list[int]:
        """The block indices, in block order, of the blocks ``pool`` was given."""
        first_rows = [int(rows[0]) for rows, _ in solve_mod._independent_blocks(lp)]
        return [first_rows.index(int(rows[0])) for rows, _ in pool.submitted]

    @staticmethod
    def in_order(monkeypatch, *args, **kwargs):
        """``solve`` with one CPU to use: its blocks in order, on this thread."""
        with monkeypatch.context() as m:
            m.setattr(solve_mod, "_usable_cpus", lambda: 1)
            return solve(*args, **kwargs)

    # each state's start is a neighbour's final basis, mapped by block key as a
    # sweep maps it: f_0 fixes offshore capacity that f_2 may build, so their
    # row layouts differ
    NEIGHBOUR = {"f_0": "f_2", "f_2": "f_0", "f_3456": "f_23456", "f_23456": "f_3456"}

    @pytest.mark.parametrize("started", [False, True], ids=["cold", "started"])
    @pytest.mark.parametrize("name", sorted(NEIGHBOUR))
    def test_threads_match_blocks_in_order(self, isolated_lps, pools, monkeypatch, name, started):
        lp = isolated_lps[name]
        start = None
        if started:
            neighbour = isolated_lps[self.NEIGHBOUR[name]]
            basis = self.in_order(monkeypatch, neighbour, keep_basis=True).basis
            start = map_basis(basis_record(neighbour, basis), lp)
        threaded = solve(lp, start=start, keep_basis=True)
        in_order = self.in_order(monkeypatch, lp, start=start, keep_basis=True)
        assert [pool.threads for pool in pools] == [2]
        # f_0's three country blocks are of one size; in the other states
        # the middle country's block is smaller, so it is submitted last
        order = [0, 1, 2] if name == "f_0" else [0, 2, 1]
        assert self.submission_order(pools[0], lp) == order
        assert threaded.status == "optimal" and threaded.blocks == 3
        self.assert_same(threaded, in_order)

    @staticmethod
    def assert_same(threaded, in_order):
        for field in ("objective", "iterations", "blocks", "alien_start", "simplex"):
            assert getattr(threaded, field) == getattr(in_order, field)
        for field in ("primal", "dual", "basis"):
            assert np.array_equal(getattr(threaded, field), getattr(in_order, field))

    def test_largest_blocks_are_submitted_first(self, pools, monkeypatch):
        lp = five_block_lp()
        threaded = solve(lp, keep_basis=True)
        assert [pool.threads for pool in pools] == [2]
        # largest first; blocks 1 and 3, and blocks 0 and 4, keep block order
        assert self.submission_order(pools[0], lp) == [1, 3, 2, 0, 4]
        assert threaded.status == "optimal" and threaded.blocks == 5
        assert threaded.objective == pytest.approx(1 + 2 + 3 + 1 + 2)
        self.assert_same(threaded, self.in_order(monkeypatch, lp, keep_basis=True))

    def test_no_more_threads_than_blocks(self, isolated_lps, pools, monkeypatch):
        monkeypatch.setattr(solve_mod, "_usable_cpus", lambda: 8)
        assert solve(isolated_lps["f_23456"]).blocks == 3
        assert [pool.threads for pool in pools] == [3]

    @pytest.mark.parametrize("case", ["one block", "pool worker"])
    def test_no_pool_where_threads_do_not_help(self, isolated_lps, coupled_lp, monkeypatch, case):
        monkeypatch.setattr(solve_mod, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(
            solve_mod, "ThreadPoolExecutor", lambda *a, **k: pytest.fail("built a thread pool")
        )
        if case == "one block":
            assert solve(coupled_lp).blocks == 1
        else:
            monkeypatch.setattr(solve_mod.multiprocessing, "parent_process", lambda: object())
            assert solve(isolated_lps["f_23456"]).blocks == 3

    @pytest.mark.parametrize("error", [SolveError, KeyboardInterrupt])
    def test_failing_block_cancels_the_queued_ones(self, monkeypatch, error):
        # four one-column blocks: min x_k s.t. x_k >= k, k = 1..4
        lp = tiny_lp(np.eye(4), [">"] * 4, [1.0, 2.0, 3.0, 4.0], [1.0] * 4)
        shut = threading.Event()

        class Watched(ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                # what is still queued is cancelled before the held blocks end
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                shut.set()
                super().shutdown(wait=wait)

        solved = []
        highs = solve_mod._solve_highs

        def failing(block, *args):
            solved.append(int(block.rhs[0]))
            if solved[-1] == 1:
                raise error("block 1 failed")
            # hold the other thread until the solve has given up
            if not shut.wait(timeout=30):
                raise RuntimeError("the pool was never shut down")
            return highs(block, *args)

        monkeypatch.setattr(solve_mod, "ThreadPoolExecutor", Watched)
        monkeypatch.setattr(solve_mod, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(solve_mod, "_solve_highs", failing)
        with pytest.raises(error, match="block 1 failed"):
            solve(lp)
        # block 2 ran beside block 1; block 3 may have started before the
        # failure was seen; block 4 was still queued
        assert solved[0] in (1, 2) and 4 not in solved


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
        record = basis_record(lattice_lps[source], bases[source])
        return map_basis(record, lattice_lps[target])

    @pytest.mark.parametrize("name", ["f_0", "f_1", "f_5", "f_6"])
    def test_record_round_trip(self, lattice_lps, bases, name):
        start = self.mapped(bases, lattice_lps, name, name)
        assert start.dtype == np.int8
        assert np.array_equal(start, bases[name])

    def test_equal_layouts_give_back_the_same_array(self, lattice_lps, bases):
        assert lattice_lps["f_6"].blocks == lattice_lps["f_0"].blocks
        assert lattice_lps["f_6"].row_blocks == lattice_lps["f_0"].row_blocks
        assert np.array_equal(self.mapped(bases, lattice_lps, "f_0", "f_6"), bases["f_0"])

    @pytest.mark.parametrize("digit", ["5", "/"])
    def test_unknown_status_is_refused(self, lattice_lps, bases, digit):
        lp = lattice_lps["f_0"]
        record = basis_record(lp, bases["f_0"])
        key, digits = record["columns"][0]
        record["columns"][0] = [key, digit + digits[1:]]
        with pytest.raises(SolveError, match="unknown status"):
            solve(lp, start=map_basis(record, lp))

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
        flows = [block for key, block in lattice_lps["f_1"].blocks.items() if key[0] == "flow"]
        assert flows and not any(start[block].any() for block in flows)
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
        """The started solve runs the dual simplex, the cold one the primal;
        each case certifies the solve that ran its variant."""
        lp = lattice_lps["f_5"]
        start = self.mapped(bases, lattice_lps, "f_0", "f_5")
        assert np.count_nonzero(start == 1) != lp.n_rows
        warm = solve(lp, start=start)
        cold = solve(lp)
        assert (warm.status, warm.alien_start, cold.alien_start) == ("optimal", True, False)
        assert (warm.simplex, cold.simplex) == ("dual", "primal")
        assert warm.iterations < cold.iterations
        assert verify_certificate(lp, warm if simplex == "dual" else cold).ok
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


class TestCertificates:
    @pytest.mark.parametrize("method", ["simplex", "highs"])
    def test_optimal_result_verifies(self, mini_spec, method):
        lp, _ = assemble(mini_spec)
        result = solve_with(method, lp, iteration_limit=200_000)
        report = verify_certificate(lp, result)
        assert report.ok, report
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
