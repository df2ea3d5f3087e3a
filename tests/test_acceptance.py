"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL
line so the suite doubles as a sign-off report. Criteria with a runtime
budget assert on wall-clock time as well as on correctness.
"""

import dataclasses
import itertools
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gridfactor import assemble, synthesize_system, write_system
from gridfactor.defaults import NTC_MW, _EXOGENOUS_GW, COUNTRY_CODES, default_technologies
from gridfactor.factorize import (
    MetricTable,
    all_interaction_terms,
    difference_of_interest,
    shared_interactions_totals,
)
from gridfactor.harmonize import FactorState, apply_factor_state, derive_reference_shares
from gridfactor.residual import ResidualSeries, peak_coincidence, positive_events
from gridfactor.solve import solve
import gridfactor.sweep as sweep_mod
from gridfactor.sweep import (
    RunManifest,
    decompositions_from_ledger,
    ledger_comparison_bytes,
    run_sweep,
)

from _oracles import (
    brute_force_lp_minimum,
    brute_positive_events,
    factor_total,
    random_box_lp,
    simplex_lp,
    simplex_solve,
)
from conftest import wind_only_spec


@pytest.fixture
def report(capsys):
    @contextmanager
    def _report(number, name):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")

    return _report


def _random_table(rng):
    values = {
        frozenset(combo): float(rng.normal() * 50.0)
        for size in range(7)
        for combo in itertools.combinations(range(1, 7), size)
    }
    return MetricTable(metric="m", factors=(1, 2, 3, 4, 5, 6), values=values)


@pytest.fixture(scope="module")
def reproduction_sweep(tmp_path_factory):
    """Full 64-state sweep on the anti-correlated two-country fixture."""
    spec = synthesize_system(seed=7, n_countries=2, horizon=336, correlation=-0.8)
    base = tmp_path_factory.mktemp("reproduction")
    manifest_path = write_system(spec, base / "system")
    run = RunManifest(
        system_manifest=str(manifest_path),
        reference_country="AA",
        out_dir=str(base / "out"),
        workers=4,
    )
    started = time.perf_counter()
    ledger = run_sweep(run)
    elapsed = time.perf_counter() - started
    return ledger, elapsed, run


def test_criterion_1_factorization_identities(report):
    with report(1, "factorization identities on 1000 random tables"):
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        for _ in range(1000):
            table = _random_table(rng)
            terms = all_interaction_terms(table)
            int_value = difference_of_interest(table)
            scale = max(1.0, abs(int_value))

            summed = sum(v for s, v in terms.items() if 1 in s)
            assert abs(summed - int_value) <= 1e-9 * scale

            d = shared_interactions_totals(table)
            recomposed = d.baseline + sum(d.totals.values())
            assert abs(recomposed - int_value) <= 1e-9 * scale
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"


def test_criterion_2_two_factor_closed_form(report):
    with report(2, "two-factor totals match the closed form exactly"):
        cases = [
            (0.0, 1.0, 2.0, 4.0),
            (0.5, 2.25, -1.75, 8.125),
            (-3.0, 0.25, 6.5, -0.125),
            (1.0, -0.5, 0.75, 2.5),
        ]
        for f0, f1, f2, f12 in cases:
            values = {
                frozenset(): f0,
                frozenset({1}): f1,
                frozenset({2}): f2,
                frozenset({1, 2}): f12,
            }
            table = MetricTable(metric="m", factors=(1, 2), values=values)
            assert factor_total(table, 1) == ((f1 - f0) + (f12 - f2)) / 2
            assert factor_total(table, 2) == ((f2 - f0) + (f12 - f1)) / 2


def test_criterion_3_lp_oracle_equivalence(report):
    with report(3, "reference simplex matches vertex enumeration"):
        started = time.perf_counter()
        rng = np.random.default_rng(777)
        feasible = 0
        for _ in range(200):
            c, A, relations, b, lb, ub = random_box_lp(rng, max_cols=12)
            expected = brute_force_lp_minimum(c, A, relations, b, lb, ub)
            out = simplex_solve(
                np.asarray(A, dtype=float),
                np.asarray(relations),
                np.asarray(b, dtype=float),
                np.asarray(c, dtype=float),
                np.asarray(lb, dtype=float),
                np.asarray(ub, dtype=float),
            )
            if expected is None:
                assert out.status == "infeasible"
                continue
            feasible += 1
            assert out.status == "optimal"
            scale = max(1.0, abs(expected))
            assert abs(out.objective - expected) <= 1e-8 * scale

        assert feasible >= 50

        # hand-checkable instance: covering load 1 MW at cf 0.5 needs 2 MW
        spec = wind_only_spec([1.0, 1.0], [0.5, 1.0])
        lp, _ = assemble(spec)
        result = simplex_lp(lp)
        assert result.status == "optimal"
        (j,) = lp.find_columns("cap_power", country="AA", tech="wind")
        assert result.primal[j] == 2.0

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"LP oracle suite took {elapsed:.1f}s"


def test_criterion_4_qualitative_reproduction(report, reproduction_sweep):
    with report(4, "interconnection cuts long-duration storage, wind leads"):
        ledger, elapsed, _ = reproduction_sweep
        assert elapsed < 300.0, f"64-state sweep took {elapsed:.1f}s"

        by_state = {e["state"]: e for e in ledger["entries"]}
        isolated = by_state["f_23456"]["metrics"]["long_duration_energy_mwh"]
        interconnected = by_state["f_123456"]["metrics"]["long_duration_energy_mwh"]
        assert interconnected < isolated

        decomp = next(
            d
            for d in decompositions_from_ledger(ledger)
            if d.metric == "long_duration_energy_mwh"
        )
        assert decomp.shares is not None
        wind = decomp.shares[2]
        assert all(wind > decomp.shares[j] for j in (3, 4, 5, 6))


def test_warm_starts_agree_with_cold_solves(reproduction_sweep, monkeypatch):
    """Objectives, aggregate storage metrics and decompositions of the
    warm-started sweep match a sweep of cold solves; the LPs are
    degenerate, so flows and the interconnected states' per-country
    split may not."""
    warm, _, run = reproduction_sweep
    real = sweep_mod.warm_parents
    monkeypatch.setattr(sweep_mod, "warm_parents", lambda f: dict.fromkeys(real(f)))
    cold = run_sweep(dataclasses.replace(run, out_dir=run.out_dir + "-cold", workers=2))

    warm_by, cold_by = ({e["state"]: e for e in ledger["entries"]} for ledger in (warm, cold))
    assert warm_by.keys() == cold_by.keys()
    assert all(e["certificate"]["ok"] for e in (*warm_by.values(), *cold_by.values()))
    assert sum(e["iterations"] for e in warm_by.values()) < sum(
        e["iterations"] for e in cold_by.values()
    )
    for name, entry in cold_by.items():
        assert warm_by[name]["objective"] == pytest.approx(entry["objective"], rel=1e-9)
    for metric in cold_by["f_0"]["metrics"]:
        scale = max(abs(e["metrics"][metric]) for e in cold_by.values())
        for name, entry in cold_by.items():
            assert abs(warm_by[name]["metrics"][metric] - entry["metrics"][metric]) <= 1e-9 * scale
        decomposed = [
            next(d for d in decompositions_from_ledger(ledger) if d.metric == metric)
            for ledger in (warm, cold)
        ]
        got, want = ([d.baseline, *d.totals.values()] for d in decomposed)
        assert np.allclose(got, want, rtol=0.0, atol=1e-9 * scale)


def test_criterion_5_scaled_copy_null(report, three_country_spec):
    with report(5, "harmonizing every factor nullifies interconnection"):
        shares = derive_reference_shares(three_country_spec, "AA")
        objectives = {}
        for name in ("f_0", "f_1"):
            scenario = apply_factor_state(
                three_country_spec, FactorState.parse(name), shares
            )
            lp, _ = assemble(scenario)
            result = solve(lp)
            assert result.status == "optimal"
            objectives[name] = result.objective
        effect = abs(objectives["f_1"] - objectives["f_0"])
        assert effect <= 1e-4 * abs(objectives["f_0"])


def test_criterion_6_residual_analytics_oracle(report):
    with report(6, "event scanner and peak coincidence match oracles"):
        rng = np.random.default_rng(5150)
        for _ in range(10_000):
            n = int(rng.integers(1, 501))
            values = rng.normal(size=n) * 5.0
            values[rng.random(size=n) < 0.1] = 0.0
            got = [
                (e.start, e.end, e.peak_cumulative, e.gross_positive)
                for e in positive_events(
                    ResidualSeries(country="AA", values=values)
                )
            ]
            assert got == brute_positive_events(values)

        for seed in range(200):
            g = np.random.default_rng(seed)
            group = [
                ResidualSeries(country=f"A{i}", values=g.normal(size=60) * 10.0)
                for i in range(int(g.integers(1, 6)))
            ]
            total, system = peak_coincidence(group)
            assert system <= total + 1e-9


def test_criterion_7_determinism(report, system_dir, tmp_path):
    with report(7, "sweeps are byte-identical across runs and parallelism"):
        ledgers = []
        mps = []
        for i, workers in enumerate((1, 1, 8)):
            run = RunManifest(
                system_manifest=str(system_dir),
                reference_country="AA",
                out_dir=str(tmp_path / f"run{i}"),
                workers=workers,
                export_mps=True,
            )
            ledgers.append(ledger_comparison_bytes(run_sweep(run)))
            mps.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted((Path(run.out_dir) / "mps").glob("*.mps"))
                }
            )
            assert len(mps[-1]) == 64
        assert ledgers[0] == ledgers[1] == ledgers[2]
        assert mps[0] == mps[1] == mps[2]


def test_criterion_8_parameter_fidelity(report):
    with report(8, "default parameter tables carry the published values"):
        techs = {t.id: t for t in default_technologies()}
        assert techs["wind_onshore"].overnight_cost_power == 1182.0
        assert techs["power_to_gas"].efficiency_in == 0.5
        assert techs["power_to_gas"].efficiency_out == 0.5
        assert NTC_MW[("AT", "DE")] == 7500.0
        de = COUNTRY_CODES.index("DE")
        assert _EXOGENOUS_GW["reservoir"]["energy"][de] == 258.0
