import csv
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from gridfactor import annuity, assemble
from gridfactor.harmonize import FactorState, apply_factor_state
from gridfactor.lp import BuildError, LinearProgram, lp_digest, write_solution_csv
from gridfactor.mps import write_mps
from gridfactor.model import (
    Country,
    ExogenousCapacity,
    Interconnector,
    PowerSystemSpec,
    Technology,
    TimeSeriesSet,
)
from gridfactor.solve import solve, verify_certificate

from _oracles import csv_write_solution, read_mps, row_assemble, simplex_lp
from conftest import wind_only_spec


class TestWindOnlyHandOracle:
    def test_full_year_constant_load(self):
        """Constant 1 MW load, cf 0.5: N = 2 MW, cost = 2000 kW * annuity."""
        spec = wind_only_spec(np.ones(8760), np.full(8760, 0.5))
        lp, _ = assemble(spec)
        result = solve(lp)
        assert result.status == "optimal"
        n = result.primal[lp.col_names.index("N[AA,wind]")]
        assert n == pytest.approx(2.0, rel=1e-9)
        expected_cost = 2000.0 * annuity(1182.0, 25, 0.04)
        assert result.objective == pytest.approx(expected_cost, rel=1e-9)

    def test_two_hour_instance_exact_on_simplex(self):
        spec = wind_only_spec([1.0, 1.0], [0.5, 1.0])
        lp, _ = assemble(spec)
        result = simplex_lp(lp)
        assert result.status == "optimal"
        assert result.primal[lp.col_names.index("N[AA,wind]")] == 2.0


class TestStructure:
    def test_balance_row_counts(self, small_spec):
        _, report = assemble(small_spec)
        assert report.rows_by_family["balance"] == 2 * 48  # countries x hours

    def test_row_blocks_tile_the_rows(self, small_spec):
        lp, report = assemble(small_spec)
        slices = list(lp.row_blocks.values())
        assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]
        assert slices[-1].stop == lp.n_rows
        assert list(lp.row_blocks)[:2] == [("balance", "AA"), ("balance", "AB")]
        for family, count in report.rows_by_family.items():
            rows = [s.stop - s.start for key, s in lp.row_blocks.items() if key[0] == family]
            assert sum(rows) == count
        # the block maps are layout, not part of the optimization problem
        bare = dataclasses.replace(lp, blocks={}, row_blocks={})
        assert lp_digest(bare) == lp_digest(lp)

    def test_two_by_two_balance_counting(self):
        spec = wind_only_spec([1.0, 1.0], [0.5, 1.0])
        second = Country(code="AB", yearly_load_total=spec.countries[0].yearly_load_total)
        ts = spec.time_series
        spec2 = dataclasses.replace(
            spec,
            countries=spec.countries + (second,),
            time_series=dataclasses.replace(
                ts,
                capacity_factors={**ts.capacity_factors, ("AB", "wind"): ts.capacity_factors[("AA", "wind")]},
                load={**ts.load, "AB": ts.load["AA"]},
            ),
        )
        assert assemble(spec2)[1].rows_by_family["balance"] == 4

    def test_incidence_signs(self, small_spec):
        lp, _ = assemble(small_spec)
        row_names = row_assemble(small_spec)[2].row_names  # same A, bit for bit
        j = lp.col_names.index("F[AA-AB,0]")
        col = lp.A.tocsc()[:, j].toarray().ravel()
        from_row = row_names.index("bal[AA,0]")
        to_row = row_names.index("bal[AB,0]")
        assert col[from_row] == 1.0
        assert col[to_row] == -1.0

    def test_flow_bounds_are_ntc(self, small_spec):
        lp, _ = assemble(small_spec)
        ntc = small_spec.interconnectors[0].ntc
        for j in lp.find_columns("flow", line="AA-AB"):
            assert lp.lb[j] == -ntc
            assert lp.ub[j] == ntc

    def test_disabling_interconnection_removes_flow_columns(self, small_spec):
        lp_on, _ = assemble(small_spec)
        lp_off, _ = assemble(dataclasses.replace(small_spec, interconnection_enabled=False))
        flows = len(lp_on.find_columns("flow"))
        assert flows == 48 * len(small_spec.interconnectors)
        assert lp_off.find_columns("flow") == []
        assert lp_on.n_cols - lp_off.n_cols == flows

    def test_metadata_is_total_and_unique(self, small_spec):
        lp, report = assemble(small_spec)
        row_meta = row_assemble(small_spec)[2].row_meta
        assert len(set(lp.col_meta)) == lp.n_cols
        assert len(set(row_meta)) == lp.n_rows
        assert report.n_columns == lp.n_cols
        assert report.n_rows == lp.n_rows

    def test_variable_count_formula(self):
        """2 countries x 24 h x {1 VRE, 1 storage}: closed-form column count."""
        base = wind_only_spec(np.ones(24), np.full(24, 0.5))
        storage = Technology(
            id="battery",
            kind="storage",
            efficiency_in=0.9,
            efficiency_out=0.9,
            overnight_cost_energy=200.0,
            overnight_cost_charge=150.0,
            overnight_cost_discharge=150.0,
            lifetime=13,
            duration_class="short",
        )
        second = Country(code="AB", yearly_load_total=base.countries[0].yearly_load_total)
        ts = base.time_series
        spec = dataclasses.replace(
            base,
            countries=base.countries + (second,),
            technologies=base.technologies + (storage,),
            time_series=dataclasses.replace(
                ts,
                capacity_factors={**ts.capacity_factors, ("AB", "wind"): ts.capacity_factors[("AA", "wind")]},
                load={**ts.load, "AB": ts.load["AA"]},
            ),
            interconnectors=(Interconnector("AA", "AB", 100.0),),
            interconnection_enabled=True,
        )
        lp, _ = assemble(spec)
        t = 24
        # per country: VRE (t gen + 1 cap) + storage (3t hourly + 3 caps); plus t flows
        assert lp.n_cols == 2 * ((t + 1) + (3 * t + 3)) + t

    def test_deterministic_build(self, small_spec):
        from gridfactor import write_mps

        a = write_mps(assemble(small_spec)[0])
        b = write_mps(assemble(small_spec)[0])
        assert a == b

    def test_missing_inflow_raises(self, small_spec):
        ts = small_spec.time_series
        spec = dataclasses.replace(
            small_spec,
            time_series=dataclasses.replace(ts, reservoir_inflow={})
        )
        with pytest.raises(BuildError, match="missing inflow series"):
            assemble(spec)

    def test_missing_overnight_cost_raises(self):
        spec = wind_only_spec([1.0, 1.0], [0.5, 1.0], overnight=0.0)
        with pytest.raises(BuildError, match="overnight_cost_power"):
            assemble(spec)


class TestSystemBalanceInvariants:
    def test_flow_terms_cancel_across_countries(self, small_spec):
        lp, _ = assemble(small_spec)
        row_meta = row_assemble(small_spec)[2].row_meta
        balance = [i for i, m in enumerate(row_meta) if m[0] == "balance"]
        total = np.asarray(lp.A[balance].sum(axis=0)).ravel()
        for j in lp.find_columns("flow"):
            assert total[j] == 0.0

    def test_optimal_solution_is_feasible(self, small_spec):
        lp, _ = assemble(small_spec)
        result = solve(lp)
        report = verify_certificate(lp, result)
        assert report.ok, report.messages

    def test_storage_no_free_energy(self, small_spec):
        lp, _ = assemble(small_spec)
        result = solve(lp)
        for tech_id, eta in (("lithium_ion", 0.92 * 0.92), ("power_to_gas", 0.25)):
            for code in ("AA", "AB"):
                charged = sum(
                    result.primal[j]
                    for j in lp.find_columns("sto_in", country=code, tech=tech_id)
                )
                discharged = sum(
                    result.primal[j]
                    for j in lp.find_columns("sto_out", country=code, tech=tech_id)
                )
                # retention = 1 for both techs, so round-trip losses only
                assert charged * eta == pytest.approx(discharged, abs=1e-5)


class TestStoragePhysics:
    def _shift_spec(self, eta):
        """Hour-0 wind only, hour-1 load only: all energy must pass storage."""
        base = wind_only_spec([0.0, 1.0], [1.0, 0.0])
        storage = Technology(
            id="store",
            kind="storage",
            efficiency_in=eta,
            efficiency_out=eta,
            overnight_cost_energy=1.0,
            overnight_cost_charge=1.0,
            overnight_cost_discharge=1.0,
            lifetime=20,
            duration_class="long",
        )
        return dataclasses.replace(base, technologies=base.technologies + (storage,))

    @pytest.mark.parametrize("eta,charged_for_one_mwh", [(1.0, 1.0), (0.5, 4.0)])
    def test_round_trip_losses(self, eta, charged_for_one_mwh):
        spec = self._shift_spec(eta)
        lp, _ = assemble(spec)
        result = simplex_lp(lp)
        assert result.status == "optimal"
        charged = sum(result.primal[j] for j in lp.find_columns("sto_in"))
        assert charged == pytest.approx(charged_for_one_mwh, rel=1e-9)

    def test_power_to_gas_efficiency_product(self):
        """10 MWh charged at 50/50 efficiencies delivers 2.5 MWh."""
        assert 10.0 * 0.5 * 0.5 == 2.5


def test_zero_demand_expandable_only_costs_nothing():
    spec = wind_only_spec([0.0, 0.0], [0.5, 1.0])
    lp, _ = assemble(spec)
    result = simplex_lp(lp)
    assert result.status == "optimal"
    assert result.objective == 0.0


def test_exogenous_capacity_is_sunk(small_spec):
    """Non-expandable capacities contribute no investment coefficients."""
    lp, _ = assemble(small_spec)
    for j, meta in enumerate(lp.col_meta):
        if meta[0] in ("cap_power", "cap_charge", "cap_discharge", "cap_energy"):
            tech = small_spec.technology(meta[2])
            if not tech.expandable:
                assert lp.c[j] == 0.0
                assert lp.lb[j] == lp.ub[j]


def test_offshore_blocked_without_eligibility(small_spec):
    lp, _ = assemble(small_spec)
    # synthetic country AB (odd index) is not offshore eligible
    j = lp.find_columns("cap_power", country="AB", tech="wind_offshore")
    assert len(j) == 1
    assert lp.lb[j[0]] == 0.0 and lp.ub[j[0]] == 0.0


def test_solution_csv_rows(small_spec, tmp_path):
    """A flow's line sits under ``country`` and its hour under ``technology``."""
    lp, _ = assemble(small_spec)
    primal = np.arange(lp.n_cols) / 3.0
    path = tmp_path / "solution.csv"
    write_solution_csv(path, lp, primal)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["column", "family", "country", "technology", "hour", "value"]
    by_name = dict(zip(lp.col_names, rows, strict=True))
    for name, fields in (
        ("F[AA-AB,5]", ["flow", "AA-AB", "5", ""]),
        ("N[AA,wind_onshore]", ["cap_power", "AA", "wind_onshore", ""]),
        ("G[AB,wind_onshore,7]", ["gen", "AB", "wind_onshore", "7"]),
    ):
        assert by_name[name] == [name, *fields, repr(float(primal[lp.col_names.index(name)]))]


def _quoted_names_lp() -> LinearProgram:
    """Ids with a quote and a comma, which ``csv.writer`` must quote."""
    blocks = {
        ("gen", 'A"B', "x,y"): slice(0, 3),
        ("cap_power", 'A"B', "x,y"): slice(3, 4),
        ("flow", 'A"B-C'): slice(4, 6),
    }
    n = 6
    return LinearProgram(
        A=sp.csr_matrix((1, n)),
        c=np.zeros(n),
        lb=np.zeros(n),
        ub=np.ones(n),
        relations=np.asarray(["<"]),
        rhs=np.ones(1),
        blocks=blocks,
    )


class TestSolutionCsvBytes:
    """``write_solution_csv`` writes the bytes of one ``csv.writer`` row per column."""

    @staticmethod
    def _both(lp, primal, tmp_path):
        paths = tmp_path / "fast.csv", tmp_path / "oracle.csv"
        for write, path in zip((write_solution_csv, csv_write_solution), paths):
            write(path, lp, primal)
        return tuple(path.read_bytes() for path in paths)

    @pytest.mark.parametrize("state", ["f_123456", "f_23456"])
    def test_matches_csv_writer(self, small_spec, tmp_path, state):
        lp, _ = assemble(apply_factor_state(small_spec, FactorState.parse(state), None))
        primal = solve(lp).primal
        fast, oracle = self._both(lp, primal, tmp_path)
        assert fast == oracle
        assert fast.count(b"\r\n") == lp.n_cols + 1

    def test_matches_csv_writer_on_odd_values(self, small_spec, tmp_path):
        lp, _ = assemble(small_spec)
        rng = np.random.default_rng(3)
        primal = rng.normal(size=lp.n_cols) * 10.0 ** rng.integers(-30, 30, size=lp.n_cols)
        primal[:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320]
        fast, oracle = self._both(lp, primal, tmp_path)
        assert fast == oracle

    def test_matches_csv_writer_on_quoted_names(self, tmp_path):
        lp = _quoted_names_lp()
        fast, oracle = self._both(lp, np.arange(lp.n_cols) / 7.0, tmp_path)
        assert fast == oracle
        assert b'"G[A""B,x,y,2]",gen,"A""B","x,y",2,' in fast

    def test_lp_without_blocks_is_refused_like_csv_writer(self, small_spec, tmp_path):
        lp = read_mps(write_mps(assemble(small_spec)[0]))
        assert not lp.blocks and lp.n_cols > 0
        primal = np.zeros(lp.n_cols)
        for write, path in ((write_solution_csv, "fast.csv"), (csv_write_solution, "oracle.csv")):
            with pytest.raises(ValueError):
                write(tmp_path / path, lp, primal)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
