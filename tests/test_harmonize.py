import dataclasses

import numpy as np
import pytest

from gridfactor import (
    apply_factor_state,
    assemble,
    derive_reference_shares,
    enumerate_states,
    enumerate_subset_states,
    isolate_country,
)
from gridfactor.harmonize import FactorState, HarmonizeError
from gridfactor.solve import solve


@pytest.fixture(scope="module")
def spec():
    from gridfactor import synthesize_system

    return synthesize_system(seed=11, n_countries=3, horizon=72, correlation=-0.5)


@pytest.fixture(scope="module")
def shares(spec):
    return derive_reference_shares(spec, "AA")


class TestFactorState:
    def test_names(self):
        assert FactorState().name == "f_0"
        assert FactorState.from_factors({1, 2, 3, 4, 5, 6}).name == "f_123456"
        assert FactorState.from_factors({2, 5}).name == "f_25"

    def test_parse_round_trip(self):
        for text in ("f_0", "f_1", "f_25", "f_123456"):
            assert FactorState.parse(text).name == text

    @pytest.mark.parametrize("bad", ["f_07", "f_21", "f_11", "f_", "g_1", "f_7"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(HarmonizeError):
            FactorState.parse(bad)

    def test_enumerate_six_factors(self):
        states = enumerate_states(6)
        assert len(states) == 64
        assert states[0].name == "f_0"
        assert states[-1].name == "f_123456"
        assert len(set(states)) == 64  # power set, no repeats

    def test_enumerate_two_factors(self):
        assert [s.name for s in enumerate_states(2)] == ["f_0", "f_1", "f_2", "f_12"]

    def test_subset_states_pin_omitted_at_native(self):
        states = enumerate_subset_states((1, 2))
        assert [s.name for s in states] == ["f_3456", "f_13456", "f_23456", "f_123456"]

    @pytest.mark.parametrize(
        "name, harmonizes",
        [("f_0", True), ("f_1", True), ("f_23456", False), ("f_123456", False)],
    )
    def test_harmonizes(self, name, harmonizes):
        assert FactorState.parse(name).harmonizes is harmonizes


class TestReferenceShares:
    def test_zero_capacity_gives_zero_share(self, shares):
        # synthetic systems carry no pumped hydro at all; bioenergy is
        # always present with nonzero power
        assert shares.technology_shares["bioenergy"].power_discharge > 0

    def test_share_arithmetic(self, spec, shares):
        ref = spec.country("AA")
        e = spec.exogenous_capacity("AA", "reservoir")
        expected = e.energy / ref.yearly_load_total
        assert shares.technology_shares["reservoir"].energy == pytest.approx(expected)

    def test_scaling_invariance(self, spec, shares):
        """Scaling the reference's load and exogenous capacity by the same
        factor leaves all shares unchanged."""
        lam = 2.0
        ts = spec.time_series
        load = dict(ts.load)
        load["AA"] = load["AA"] * lam
        inflow = {k: v * lam if k == "AA" else v for k, v in ts.reservoir_inflow.items()}
        countries = tuple(
            dataclasses.replace(c, yearly_load_total=c.yearly_load_total * lam)
            if c.code == "AA"
            else c
            for c in spec.countries
        )
        exogenous = tuple(
            dataclasses.replace(
                e,
                power_discharge=e.power_discharge * lam,
                power_charge=e.power_charge * lam,
                energy=e.energy * lam,
            )
            if e.country == "AA"
            else e
            for e in spec.exogenous_capacities
        )
        scaled = dataclasses.replace(
            spec,
            countries=countries,
            exogenous_capacities=exogenous,
            time_series=dataclasses.replace(ts, load=load, reservoir_inflow=inflow),
        )
        scaled_shares = derive_reference_shares(scaled, "AA")
        assert scaled_shares.offshore_share == pytest.approx(shares.offshore_share, rel=1e-6)
        for tid, s in shares.technology_shares.items():
            t = scaled_shares.technology_shares[tid]
            assert t.power_discharge == pytest.approx(s.power_discharge, rel=1e-9)
            assert t.energy == pytest.approx(s.energy, rel=1e-9)

    def test_isolated_subspec_has_no_lines(self, spec):
        sub = isolate_country(spec, "AB")
        assert sub.interconnectors == ()
        assert not sub.interconnection_enabled
        assert [c.code for c in sub.countries] == ["AB"]


class TestApplyFactorState:
    def test_all_native_is_identity_plus_flag(self, spec, shares):
        out = apply_factor_state(spec, FactorState.parse("f_123456"), shares)
        assert out == dataclasses.replace(spec, interconnection_enabled=True)
        out_iso = apply_factor_state(spec, FactorState.parse("f_23456"), shares)
        assert out_iso == dataclasses.replace(spec, interconnection_enabled=False)

    def test_idempotent(self, spec, shares):
        for name in ("f_0", "f_14", "f_25", "f_123456"):
            state = FactorState.parse(name)
            once = apply_factor_state(spec, state, shares)
            twice = apply_factor_state(once, state, shares)
            assert once == twice, name

    def test_load_harmonization_preserves_totals(self, spec, shares):
        state = FactorState.from_factors({1, 2, 3, 5, 6})  # load harmonized
        out = apply_factor_state(spec, state, shares)
        for c in spec.countries:
            before = float(np.sum(spec.time_series.load[c.code]))
            after = float(np.sum(out.time_series.load[c.code]))
            assert after == pytest.approx(before, rel=1e-9)

    def test_wind_harmonization_grants_offshore_everywhere(self, spec, shares):
        state = FactorState.from_factors({1, 3, 4, 5, 6})  # wind harmonized
        out = apply_factor_state(spec, state, shares)
        assert shares.offshore_share > 0
        overrides = dict(out.offshore_overrides)
        # AB is not offshore eligible natively, yet receives capacity
        assert overrides["AB"] > 0
        lp, _ = assemble(out)
        j = lp.find_columns("cap_power", country="AB", tech="wind_offshore")[0]
        assert lp.lb[j] == lp.ub[j] == overrides["AB"]

    def test_wind_harmonization_equalizes_series(self, spec, shares):
        state = FactorState.from_factors({1, 3, 4, 5, 6})
        out = apply_factor_state(spec, state, shares)
        ref = out.time_series.capacity_factors[("AA", "wind_onshore")]
        for code in ("AB", "AC"):
            assert np.array_equal(out.time_series.capacity_factors[(code, "wind_onshore")], ref)

    def test_reference_is_fixed_point(self, spec, shares):
        out = apply_factor_state(spec, FactorState.parse("f_1"), shares)
        ts, ref_ts = out.time_series, spec.time_series
        assert np.array_equal(ts.load["AA"], ref_ts.load["AA"])
        for tech in ("wind_onshore", "solar_pv"):
            assert np.array_equal(
                ts.capacity_factors[("AA", tech)], ref_ts.capacity_factors[("AA", tech)]
            )

    def test_scaled_copy_after_full_harmonization(self, spec, shares):
        out = apply_factor_state(spec, FactorState.parse("f_1"), shares)
        ts = out.time_series
        for code in ("AB", "AC"):
            # proportional loads
            ratio = ts.load[code] / ts.load["AA"]
            assert np.allclose(ratio, ratio[0])
            # identical capacity factors
            for tech in ("wind_onshore", "wind_offshore", "solar_pv"):
                assert np.array_equal(
                    ts.capacity_factors[(code, tech)], ts.capacity_factors[("AA", tech)]
                )
            # equal exogenous-capacity-to-load ratios
            own = out.exogenous_capacity(code, "bioenergy").power_discharge
            ref = out.exogenous_capacity("AA", "bioenergy").power_discharge
            assert own / out.country(code).yearly_load_total == pytest.approx(
                ref / out.country("AA").yearly_load_total, rel=1e-9
            )

    def test_hydro_harmonization_rescales_inflow(self, spec, shares):
        state = FactorState.from_factors({1, 2, 3, 4, 6})  # hydro harmonized
        out = apply_factor_state(spec, state, shares)
        for code in ("AB", "AC"):
            power = out.exogenous_capacity(code, "reservoir").power_discharge
            ref_power = out.exogenous_capacity("AA", "reservoir").power_discharge
            expected = np.asarray(spec.time_series.reservoir_inflow["AA"]) * (power / ref_power)
            assert np.allclose(out.time_series.reservoir_inflow[code], expected)

    def test_missing_shares_rejected(self, spec):
        with pytest.raises(HarmonizeError, match="requires reference shares"):
            apply_factor_state(spec, FactorState.parse("f_1"), None)

    def test_harmonized_states_solve(self, spec, shares):
        for name in ("f_0", "f_1", "f_123456"):
            scenario = apply_factor_state(spec, FactorState.parse(name), shares)
            lp, _ = assemble(scenario)
            assert solve(lp).status == "optimal", name
