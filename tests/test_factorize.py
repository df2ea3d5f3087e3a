import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridfactor.factorize import (
    FactorizeError,
    MetricTable,
    all_interaction_terms,
    difference_of_interest,
    shared_interactions_totals,
    write_decompositions,
)

from _oracles import factor_total, interaction_term


def table_from_values(values, factors=(1, 2, 3, 4, 5, 6), metric="m"):
    return MetricTable(metric=metric, factors=factors, values=values)


def full_table(rng, factors=(1, 2, 3, 4, 5, 6)):
    values = {}
    for size in range(len(factors) + 1):
        for combo in itertools.combinations(factors, size):
            values[frozenset(combo)] = float(rng.normal() * 100.0)
    return table_from_values(values, factors)


class TestInteractionTerm:
    def test_singleton_is_difference_to_base(self):
        rng = np.random.default_rng(1)
        table = full_table(rng)
        for j in range(1, 7):
            expected = table.value({j}) - table.value(frozenset())
            assert interaction_term(table, {j}) == pytest.approx(expected)

    def test_two_factor_toy(self):
        values = {
            frozenset(): 0.0,
            frozenset({1}): 1.0,
            frozenset({2}): 2.0,
            frozenset({1, 2}): 4.0,
        }
        table = table_from_values(values, factors=(1, 2))
        assert interaction_term(table, {1, 2}) == 1.0

    def test_additive_table_has_no_interactions(self):
        a = {1: 3.0, 2: -1.5, 3: 0.25, 4: 7.0, 5: 2.0, 6: -0.5}
        values = {}
        for size in range(7):
            for combo in itertools.combinations(range(1, 7), size):
                values[frozenset(combo)] = sum(a[i] for i in combo)
        table = table_from_values(values)
        terms = all_interaction_terms(table)
        for subset, value in terms.items():
            if len(subset) >= 2:
                assert value == pytest.approx(0.0, abs=1e-9)

    def test_moebius_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        table = full_table(rng)
        terms = all_interaction_terms(table)
        for subset in [frozenset({1}), frozenset({2, 4}), frozenset({1, 3, 5, 6})]:
            assert terms[subset] == pytest.approx(interaction_term(table, subset), rel=1e-12, abs=1e-9)

    def test_subset_outside_factors_rejected(self):
        table = full_table(np.random.default_rng(0), factors=(1, 2))
        with pytest.raises(FactorizeError):
            interaction_term(table, {3})


class TestIdentities:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_int_is_sum_of_interconnection_terms(self, seed):
        table = full_table(np.random.default_rng(seed))
        terms = all_interaction_terms(table)
        int_value = difference_of_interest(table)
        summed = sum(v for s, v in terms.items() if 1 in s)
        scale = max(1.0, abs(int_value))
        assert abs(summed - int_value) <= 1e-9 * scale

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_totals_plus_baseline_equal_int(self, seed):
        table = full_table(np.random.default_rng(seed))
        decomp = shared_interactions_totals(table)
        total = decomp.baseline + sum(decomp.totals.values())
        scale = max(1.0, abs(decomp.int_value))
        assert abs(total - decomp.int_value) <= 1e-9 * scale

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_completeness(self, seed):
        table = full_table(np.random.default_rng(seed))
        terms = all_interaction_terms(table)
        total = sum(terms.values())
        expected = table.value(frozenset(range(1, 7))) - table.value(frozenset())
        assert total == pytest.approx(expected, rel=1e-9, abs=1e-7)

    def test_share_sum_identity(self):
        table = full_table(np.random.default_rng(3))
        d = shared_interactions_totals(table)
        assert d.shares is not None
        assert sum(d.shares.values()) == pytest.approx(
            (d.int_value - d.baseline) / d.int_value, rel=1e-9
        )

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        table = full_table(rng)
        # swap factor labels 2 and 3 throughout
        swap = {1: 1, 2: 3, 3: 2, 4: 4, 5: 5, 6: 6}
        swapped_values = {
            frozenset(swap[i] for i in s): v for s, v in table.values.items()
        }
        swapped = table_from_values(swapped_values)
        a = shared_interactions_totals(table)
        b = shared_interactions_totals(swapped)
        assert b.totals[3] == pytest.approx(a.totals[2], rel=1e-12, abs=1e-9)
        assert b.totals[2] == pytest.approx(a.totals[3], rel=1e-12, abs=1e-9)
        assert b.int_value == a.int_value


class TestTwoFactorClosedForms:
    def test_closed_form_identity_exact(self):
        """f-hat-1 total = ((f_1 - f_0) + (f_12 - f_2)) / 2, exactly,
        on dyadic-rational tables where float arithmetic is exact."""
        cases = [
            (0.0, 1.0, 2.0, 4.0),
            (0.5, 2.25, -1.75, 8.125),
            (-3.0, 0.25, 6.5, -0.125),
        ]
        for f0, f1, f2, f12 in cases:
            values = {
                frozenset(): f0,
                frozenset({1}): f1,
                frozenset({2}): f2,
                frozenset({1, 2}): f12,
            }
            table = table_from_values(values, factors=(1, 2))
            assert factor_total(table, 1) == ((f1 - f0) + (f12 - f2)) / 2
            assert factor_total(table, 2) == ((f2 - f0) + (f12 - f1)) / 2

    def test_three_factor_half_coefficient(self):
        """The three-way term enters both two-factor totals with weight 1/2."""
        rng = np.random.default_rng(5)
        base = full_table(rng, factors=(1, 2, 3))
        d = shared_interactions_totals(base)
        terms = all_interaction_terms(base)
        expected_2 = terms[frozenset({1, 2})] + 0.5 * terms[frozenset({1, 2, 3})]
        expected_3 = terms[frozenset({1, 3})] + 0.5 * terms[frozenset({1, 2, 3})]
        assert d.totals[2] == pytest.approx(expected_2, rel=1e-12, abs=1e-9)
        assert d.totals[3] == pytest.approx(expected_3, rel=1e-12, abs=1e-9)


class TestDegenerateAndErrors:
    def test_constant_table_flagged_degenerate(self):
        values = {
            frozenset(s): 42.0
            for size in range(7)
            for s in itertools.combinations(range(1, 7), size)
        }
        d = shared_interactions_totals(table_from_values(values))
        assert d.degenerate
        assert d.shares is None
        assert d.int_value == 0.0

    def test_incomplete_table_rejected(self):
        values = {frozenset(): 0.0, frozenset({1}): 1.0}
        with pytest.raises(FactorizeError, match="entries"):
            table_from_values(values, factors=(1, 2))

    def test_non_finite_value_rejected(self):
        values = {
            frozenset(): 0.0,
            frozenset({1}): float("nan"),
            frozenset({2}): 1.0,
            frozenset({1, 2}): 2.0,
        }
        with pytest.raises(FactorizeError, match="non-finite"):
            table_from_values(values, factors=(1, 2))

    def test_table_without_interconnection_rejected(self):
        values = {frozenset(): 0.0, frozenset({2}): 1.0}
        table = table_from_values(values, factors=(2,))
        with pytest.raises(FactorizeError, match="interconnection"):
            difference_of_interest(table)



def _by_subset(metric, factors, value):
    """Table ``metric`` over ``factors`` whose value at subset ``s`` is ``value(s)``."""
    return table_from_values(
        {
            frozenset(s): value(set(s))
            for size in range(len(factors) + 1)
            for s in itertools.combinations(factors, size)
        },
        factors,
        metric,
    )


class TestWriteDecompositions:
    def test_bytes(self, tmp_path):
        """The ``.csv`` and ``.json`` bytes of one decomposition with shares and one without."""
        shared = shared_interactions_totals(
            _by_subset(
                "energy",
                (1, 2, 3),
                lambda s: 8.0
                + 4 * (1 in s)
                - 2 * (2 in s)
                + 3 * ({1, 2} <= s)
                - 1.5 * ({1, 3} <= s)
                + 0.5 * (s == {1, 2, 3}),
            )
        )
        degenerate = shared_interactions_totals(_by_subset("flat", (1, 4), lambda s: 5.0))
        assert degenerate.shares is None
        write_decompositions([shared, degenerate], tmp_path / "dec")

        rows = [
            "metric,term,subset,value,share",
            "energy,INT,,6.0,",
            "energy,baseline_interconnection,1,4.0,",
            "energy,total_wind,12,3.25,0.5416666666666666",
            "energy,total_solar,13,-1.25,-0.20833333333333334",
            "energy,interaction,1,4.0,",
            "energy,interaction,2,-2.0,",
            "energy,interaction,3,0.0,",
            "energy,interaction,12,3.0,",
            "energy,interaction,13,-1.5,",
            "energy,interaction,23,0.0,",
            "energy,interaction,123,0.5,",
            "flat,INT,,0.0,",
            "flat,baseline_interconnection,1,0.0,",
            "flat,total_load,14,0.0,",
            "flat,interaction,1,0.0,",
            "flat,interaction,4,0.0,",
            "flat,interaction,14,0.0,",
        ]
        assert (tmp_path / "dec.csv").read_bytes() == "".join(f"{r}\r\n" for r in rows).encode()

        doc = [
            {
                "baseline_interconnection": 4.0,
                "degenerate": False,
                "factors": [1, 2, 3],
                "int": 6.0,
                "metric": "energy",
                "shares": {"solar": -0.20833333333333334, "wind": 0.5416666666666666},
                "terms": {
                    "1": 4.0, "12": 3.0, "123": 0.5, "13": -1.5, "2": -2.0, "23": 0.0, "3": 0.0
                },
                "totals": {"solar": -1.25, "wind": 3.25},
            },
            {
                "baseline_interconnection": 0.0,
                "degenerate": True,
                "factors": [1, 4],
                "int": 0.0,
                "metric": "flat",
                "shares": None,
                "terms": {"1": 0.0, "14": 0.0, "4": 0.0},
                "totals": {"load": 0.0},
            },
        ]
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "dec.json").read_bytes() == expected.encode()
