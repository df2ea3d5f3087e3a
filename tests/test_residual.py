import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridfactor import assemble
from gridfactor.residual import (
    ResidualError,
    ResidualSeries,
    capacities_from_result,
    peak_coincidence,
    peak_hour_cross_section,
    peak_residual_hour,
    positive_events,
    residual_series,
    write_events_csv,
)
from gridfactor.solve import solve

from _oracles import brute_positive_events


def series(values, country="AA"):
    return ResidualSeries(country=country, values=np.asarray(values, dtype=float))


class TestResidualSeries:
    def test_zero_capacity_equals_load(self, small_spec):
        caps = {
            (c.code, t.id): 0.0
            for c in small_spec.countries
            for t in small_spec.techs_of_kind("variable-renewable")
        }
        out = residual_series(small_spec, caps)
        for s in out:
            assert np.array_equal(s.values, small_spec.time_series.load[s.country])

    def test_saturation_goes_non_positive(self, small_spec):
        big = {
            (c.code, t.id): 10.0 * float(np.max(small_spec.time_series.load[c.code]))
            for c in small_spec.countries
            for t in small_spec.techs_of_kind("variable-renewable")
        }
        # saturating capacity with cf = 1 would push residual below zero;
        # here cf varies, so only check it decreased everywhere
        out = residual_series(small_spec, big)
        for s in out:
            assert np.all(s.values <= small_spec.time_series.load[s.country])

    def test_arithmetic_fixture(self):
        from conftest import wind_only_spec

        spec = wind_only_spec([3.0, 1.0], [0.5, 1.0])
        out = residual_series(spec, {("AA", "wind"): 2.0})
        assert np.array_equal(out[0].values, [2.0, -1.0])

    def test_missing_capacity_entry(self, small_spec):
        with pytest.raises(ResidualError, match="missing capacity entry"):
            residual_series(small_spec, {})

    def test_capacities_from_solution(self, small_spec):
        lp, _ = assemble(small_spec)
        result = solve(lp)
        caps = capacities_from_result(small_spec, lp, result)
        vre = small_spec.techs_of_kind("variable-renewable")
        assert len(caps) == len(small_spec.countries) * len(vre)
        assert all(v >= -1e-9 for v in caps.values())


class TestPeakHour:
    def test_strictly_increasing_series(self):
        hour, value = peak_residual_hour(series([1.0, 2.0, 3.0]))
        assert (hour, value) == (2, 3.0)

    def test_constant_series_breaks_to_earliest(self):
        hour, _ = peak_residual_hour(series([5.0, 5.0, 5.0]))
        assert hour == 0

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_matches_linear_scan(self, values):
        hour, value = peak_residual_hour(series(values))
        best = max(range(len(values)), key=lambda i: (values[i], -i))
        assert hour == best
        assert value == values[best]


class TestPositiveEvents:
    def test_all_negative_series_empty(self):
        assert positive_events(series([-1.0, -2.0, -0.5])) == []

    def test_hand_scanned_fixture(self):
        events = positive_events(series([5.0, -2.0, 3.0, -7.0, 4.0]))
        assert len(events) == 2
        first, second = events
        assert (first.start, first.end, first.peak_cumulative) == (0, 2, 6.0)
        assert (second.start, second.end, second.peak_cumulative) == (4, 4, 4.0)

    def test_leading_zero_padding_shifts_indices(self):
        base = [5.0, -2.0, 3.0, -7.0, 4.0]
        plain = positive_events(series(base))
        padded = positive_events(series([0.0, 0.0, 0.0] + base))
        assert len(plain) == len(padded)
        for a, b in zip(plain, padded):
            assert b.start == a.start + 3
            assert b.end == a.end + 3
            assert b.peak_cumulative == a.peak_cumulative
            assert b.gross_positive == a.gross_positive

    def test_event_opens_only_on_strictly_positive_hour(self):
        events = positive_events(series([0.0, 0.0, 1.0, -2.0]))
        assert len(events) == 1
        assert events[0].start == 2

    def test_gross_positive_at_least_peak(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            values = rng.normal(size=rng.integers(1, 60)) * 3.0
            for e in positive_events(series(values)):
                assert e.gross_positive >= e.peak_cumulative - 1e-12

    def test_gap_free_series_partitions_positive_mass(self):
        values = [3.0, 1.0, -0.5, 2.0, 4.0]  # single event, never closes
        events = positive_events(series(values))
        assert len(events) == 1
        assert events[0].gross_positive == sum(v for v in values if v > 0)

    @given(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=120),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_scanner(self, values):
        got = [
            (e.start, e.end, e.peak_cumulative, e.gross_positive)
            for e in positive_events(series(values))
        ]
        assert got == brute_positive_events(values)


class TestCrossSection:
    def test_needs_two_countries(self):
        from conftest import wind_only_spec

        spec = wind_only_spec([1.0, 1.0], [0.5, 1.0])
        with pytest.raises(ResidualError):
            peak_hour_cross_section(spec, {("AA", "wind"): 1.0})

    def test_anti_correlated_fixture(self, small_spec):
        lp, _ = assemble(small_spec)
        result = solve(lp)
        caps = capacities_from_result(small_spec, lp, result)
        rows = peak_hour_cross_section(small_spec, caps)
        assert len(rows) == 2  # 2 countries x 1 other
        for row in rows:
            assert 0.0 <= row["relative_load"] <= 1.0
        # anti-correlated wind: the other country's wind cf at my peak
        # residual hour exceeds my own
        by_country = {r["country"]: r for r in rows}
        ts = small_spec.time_series
        for code, other in (("AA", "AB"), ("AB", "AA")):
            h = by_country[code]["peak_hour"]
            own = ts.capacity_factors[(code, "wind_onshore")][h]
            assert by_country[code]["cf_wind_onshore"] > own


class TestPeakCoincidence:
    def test_single_country_equal(self):
        s = series([1.0, 5.0, 2.0])
        assert peak_coincidence([s]) == (5.0, 5.0)

    def test_perfectly_correlated_equal(self):
        a = series([1.0, 5.0, 2.0], "AA")
        b = series([2.0, 10.0, 4.0], "AB")
        total, system = peak_coincidence([a, b])
        assert total == system == 15.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_system_peak_never_exceeds_sum_of_peaks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        length = int(rng.integers(1, 80))
        group = [series(rng.normal(size=length) * 10.0, f"A{i}") for i in range(n)]
        total, system = peak_coincidence(group)
        assert system <= total + 1e-9


def test_events_csv_exclusion(tmp_path):
    a = series([5.0, -10.0], "AA")
    b = series([7.0, -10.0], "AB")
    out = tmp_path / "events.csv"
    write_events_csv([a, b], out, exclude=("AB",))
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + AA only
    assert lines[1].startswith("AA,")


def test_events_csv_numbers_parse(tmp_path):
    """Every numeric field reads back with float(), equal to the event's value."""
    import csv

    s = series([5.0, 2.5, -1.0, -10.0, 0.3, -4.0], "AA")
    out = tmp_path / "events.csv"
    write_events_csv([s], out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    events = positive_events(s)
    assert len(rows) == len(events) == 2
    for row, event in zip(rows, events):
        values = {k: float(v) for k, v in row.items() if k != "country"}
        assert values == {
            "start_hour": event.start,
            "end_hour": event.end,
            "peak_cumulative_mwh": event.peak_cumulative,
            "gross_positive_mwh": event.gross_positive,
        }
