import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridfactor import annuity, synthesize_system, validate

# Frozen oracle values, computed with an independent spreadsheet-style
# evaluation of cost * r / (1 - (1+r)^-L) before the implementation.
ANNUITY_ORACLE = [
    # (overnight EUR/kW, lifetime, rate, annualized EUR/kW/a)
    (1182.0, 25, 0.04, 75.66214001358932),
    (3000.0, 20, 0.04, 220.74525098588654),
    (2506.0, 25, 0.04, 160.4139787428552),
    (200.0, 13, 0.04, 20.028745562806506),
]


class TestAnnuity:
    @pytest.mark.parametrize("cost,lifetime,rate,expected", ANNUITY_ORACLE)
    def test_matches_precomputed_oracle(self, cost, lifetime, rate, expected):
        assert annuity(cost, lifetime, rate) == pytest.approx(expected, rel=1e-12)

    def test_one_year_zero_rate_is_identity(self):
        assert annuity(123.0, 1, 0.0) == 123.0

    def test_zero_rate_is_straight_line(self):
        assert annuity(500.0, 25, 0.0) * 25 == pytest.approx(500.0, abs=1e-12)

    def test_rejects_non_positive_lifetime(self):
        with pytest.raises(ValueError):
            annuity(100.0, 0, 0.04)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            annuity(100.0, 10, -0.01)

    @given(
        cost=st.floats(1.0, 1e4),
        lifetime=st.integers(2, 80),
        r1=st.floats(0.001, 0.2),
        r2=st.floats(0.001, 0.2),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_in_rate(self, cost, lifetime, r1, r2):
        lo, hi = sorted((r1, r2))
        if hi - lo < 1e-9:
            return
        assert annuity(cost, lifetime, lo) < annuity(cost, lifetime, hi)


class TestValidate:
    def test_synthetic_specs_are_clean(self):
        for seed in (0, 1, 2, 7, 42):
            spec = synthesize_system(seed=seed, n_countries=3, horizon=24, correlation=0.3)
            assert validate(spec) == []

    def test_capacity_factor_out_of_range(self, small_spec):
        ts = small_spec.time_series
        cf = dict(ts.capacity_factors)
        key = ("AA", "wind_onshore")
        bad = cf[key].copy()
        bad[0] = 1.3
        cf[key] = bad
        spec = dataclasses.replace(
            small_spec,
            time_series=dataclasses.replace(ts, capacity_factors=cf)
        )
        assert any("capacity factor out of [0,1]" in v for v in validate(spec))

    def test_series_length_mismatch(self, small_spec):
        ts = small_spec.time_series
        load = dict(ts.load)
        load["AA"] = load["AA"][:-1]
        spec = dataclasses.replace(small_spec, time_series=dataclasses.replace(ts, load=load))
        assert any("series length mismatch" in v for v in validate(spec))

    def test_load_of_unknown_country(self, small_spec):
        ts = small_spec.time_series
        load = {**ts.load, "ZZ": ts.load["AA"]}
        spec = dataclasses.replace(small_spec, time_series=dataclasses.replace(ts, load=load))
        assert validate(spec) == ["load (ZZ): unknown country"]

    def test_duplicate_country_codes(self, small_spec):
        spec = dataclasses.replace(
            small_spec, countries=small_spec.countries + (small_spec.countries[0],)
        )
        assert any("not unique" in v for v in validate(spec))

    def test_yearly_load_consistency(self, small_spec):
        countries = tuple(
            dataclasses.replace(c, yearly_load_total=c.yearly_load_total * 2)
            for c in small_spec.countries
        )
        spec = dataclasses.replace(small_spec, countries=countries)
        assert any("yearly_load_total inconsistent" in v for v in validate(spec))


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_system(seed=7, n_countries=2, horizon=96, correlation=-0.4)
        b = synthesize_system(seed=7, n_countries=2, horizon=96, correlation=-0.4)
        assert a == b

    def test_anti_correlated_wind(self):
        spec = synthesize_system(seed=7, n_countries=2, horizon=168, correlation=-0.9)
        a = spec.time_series.capacity_factors[("AA", "wind_onshore")]
        b = spec.time_series.capacity_factors[("AB", "wind_onshore")]
        assert np.corrcoef(a, b)[0, 1] <= -0.5

    def test_single_country_has_no_interconnectors(self):
        spec = synthesize_system(seed=8, n_countries=1, horizon=2, correlation=0.0)
        assert spec.interconnectors == ()
        assert validate(spec) == []

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            synthesize_system(seed=0, n_countries=0, horizon=24)
        with pytest.raises(ValueError):
            synthesize_system(seed=0, n_countries=1, horizon=1)
        with pytest.raises(ValueError):
            synthesize_system(seed=0, n_countries=1, horizon=24, correlation=1.5)

    def test_country_codes_run_out_after_zz(self, monkeypatch):
        """676 two-letter codes; a larger system is refused before any series is drawn."""
        import gridfactor.synth as synth_mod

        monkeypatch.setattr(synth_mod, "_ar1", lambda *a: pytest.fail("drew a series"))
        with pytest.raises(ValueError, match=r"n_countries must lie in \[1, 676\]"):
            synthesize_system(seed=0, n_countries=677, horizon=24)


def test_spec_equality_covers_series():
    a = synthesize_system(seed=3, n_countries=2, horizon=24, correlation=0.0)
    b = synthesize_system(seed=3, n_countries=2, horizon=24, correlation=0.0)
    assert a == b
    load = dict(b.time_series.load)
    load["AA"] = load["AA"] + 1.0
    c = dataclasses.replace(b, time_series=dataclasses.replace(b.time_series, load=load))
    assert a != c
