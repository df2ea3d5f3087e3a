"""Array assembly against the row-by-row reference builder, bit for bit,
and lookups through the block layout against full metadata scans."""

import dataclasses
import hashlib
import types
from collections import defaultdict

import numpy as np
import pytest

from gridfactor import (
    Technology,
    apply_factor_state,
    assemble,
    derive_reference_shares,
    synthesize_system,
    validate,
)
from gridfactor.factorize import extract_storage_metrics
from gridfactor.harmonize import FactorState, enumerate_subset_states
import gridfactor.lp as lp_mod
import gridfactor.solve as solve_mod
from gridfactor.lp import lp_digest
from gridfactor.model import ExogenousCapacity
from gridfactor.residual import capacities_from_result

from _oracles import (
    row_assemble,
    scan_capacities,
    scan_storage_metrics,
    scipy_csr,
    to_scipy,
)
from conftest import default_portfolio_spec, tiny_lp, wind_only_spec


def assert_identical(spec):
    lp, report = assemble(spec)
    ref, ref_report, labels = row_assemble(spec)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(lp.A, name), getattr(ref.A, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert lp.A.shape == ref.A.shape
    for name in ("c", "lb", "ub", "relations", "rhs"):
        got, want = getattr(lp, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert lp.col_names == labels.col_names
    assert report == ref_report
    assert list(report.columns_by_family) == list(ref_report.columns_by_family)
    assert list(report.rows_by_family) == list(ref_report.rows_by_family)
    assert lp_digest(lp) == lp_digest(ref)


def assert_lookups_match_scans(spec, rng):
    lp, _ = assemble(spec)
    col_meta = row_assemble(spec)[2].col_meta
    starts = defaultdict(list)  # metadata prefix -> columns whose metadata starts with it
    for j, meta in enumerate(col_meta):
        for n in (2, 3):
            starts[meta[:n]].append(j)
    for key, block in lp.blocks.items():
        assert list(range(block.start, block.stop)) == starts[key], key
    tiled = [j for block in lp.blocks.values() for j in range(block.start, block.stop)]
    assert tiled == list(range(lp.n_cols))

    primal = rng.random(lp.n_cols) * 1e3
    result = types.SimpleNamespace(primal=primal)
    got = extract_storage_metrics(spec, lp, result)
    assert got == scan_storage_metrics(spec, col_meta, primal)
    assert capacities_from_result(spec, lp, result) == scan_capacities(spec, col_meta, primal)
    caps = [(meta[:3], float(v)) for v, meta in zip(primal, col_meta) if meta[0].startswith("cap_")]
    assert list(lp.capacities(primal).items()) == caps


def run_of_river_spec(base, profile):
    """``base`` with exogenous run-of-river in its first country."""
    ror = Technology(
        id="run_of_river",
        kind="run-of-river",
        efficiency_out=0.9,
        overnight_cost_power=600.0,
        lifetime=25,
        expandable=False,
        factor_group="hydro",
    )
    code = base.countries[0].code
    ts = base.time_series
    cf = dict(ts.capacity_factors)
    if profile:
        cf[(code, "run_of_river")] = np.linspace(0.2, 1.0, ts.horizon)
    return dataclasses.replace(
        base,
        technologies=base.technologies + (ror,),
        exogenous_capacities=base.exogenous_capacities
        + (ExogenousCapacity(country=code, technology="run_of_river", power_discharge=150.0),),
        time_series=dataclasses.replace(ts, capacity_factors=cf),
    )


def test_small_spec(small_spec):
    assert_identical(small_spec)


def test_three_country_spec(three_country_spec):
    assert_identical(three_country_spec)


def test_interconnection_off(small_spec, three_country_spec):
    assert_identical(dataclasses.replace(small_spec, interconnection_enabled=False))
    assert_identical(dataclasses.replace(three_country_spec, interconnection_enabled=False))


@pytest.mark.parametrize("profile", [False, True])
def test_run_of_river(small_spec, profile):
    spec = run_of_river_spec(small_spec, profile)
    lp, _ = assemble(spec)
    assert ("cap_power", small_spec.countries[0].code, "run_of_river") in lp.blocks
    assert_identical(spec)


def test_single_hour_cyclic_storage(small_spec):
    """With one hour the previous level is the level itself: coefficients add."""
    ts = small_spec.time_series
    one = dataclasses.replace(
        ts,
        horizon=1,
        load={k: v[:1] for k, v in ts.load.items()},
        capacity_factors={k: v[:1] for k, v in ts.capacity_factors.items()},
        reservoir_inflow={k: v[:1] for k, v in ts.reservoir_inflow.items()},
    )
    assert_identical(dataclasses.replace(small_spec, time_series=one))


def test_all_harmonized_states(small_spec):
    shares = derive_reference_shares(small_spec, "AA")
    states = enumerate_subset_states((1, 2, 3, 4, 5, 6))
    assert len(states) == 64
    for state in states:
        assert_identical(apply_factor_state(small_spec, state, shares))


def test_block_lookups_all_harmonized_states(small_spec, three_country_spec):
    rng = np.random.default_rng(8)
    shares = derive_reference_shares(small_spec, "AA")
    for state in enumerate_subset_states((1, 2, 3, 4, 5, 6)):
        assert_lookups_match_scans(apply_factor_state(small_spec, state, shares), rng)
    assert_lookups_match_scans(three_country_spec, rng)
    assert_lookups_match_scans(run_of_river_spec(small_spec, profile=True), rng)


def test_default_portfolio_all_harmonized_states():
    """Legacy (non-expandable) storage and reservoirs, in every state.

    The lookups do not depend on the horizon, so a shorter one keeps
    their full scans quick.
    """
    spec = default_portfolio_spec()
    assert validate(spec) == []
    lp, _ = assemble(spec)
    assert ("cap_charge", "DE", "pumped_hydro_open") in lp.blocks
    assert ("rsv_level", "CH", "reservoir") in lp.blocks
    shares = derive_reference_shares(spec, "DE")
    for state in enumerate_subset_states((1, 2, 3, 4, 5, 6)):
        assert_identical(apply_factor_state(spec, state, shares))

    short = default_portfolio_spec(horizon=4)
    shares = derive_reference_shares(short, "DE")
    rng = np.random.default_rng(9)
    for state in enumerate_subset_states((1, 2, 3, 4, 5, 6)):
        assert_lookups_match_scans(apply_factor_state(short, state, shares), rng)


def test_pinned_digest():
    lp, _ = assemble(wind_only_spec([1.0, 1.0], [0.5, 1.0]))
    assert lp_digest(lp) == "9409c3651cbe4c34a62c9e65694d1e598b51ec080e878fa3a9ca777d4d92211a"


def string_cast_digest(lp):
    """``lp_digest`` as ledgers first computed it: relations cast to "S1"."""
    h = hashlib.sha256()
    h.update(np.asarray(lp.A.shape, dtype="<i8").tobytes())
    for ints in (lp.A.indptr, lp.A.indices):
        h.update(np.ascontiguousarray(ints, dtype="<i8").tobytes())
    for floats in (lp.A.data, lp.c, lp.lb, lp.ub, lp.rhs):
        h.update(np.ascontiguousarray(floats, dtype="<f8").tobytes())
    h.update(np.asarray(lp.relations, dtype="S1").tobytes())
    return h.hexdigest()


def test_digest_matches_the_string_cast():
    """Ledgers' ``lp_hash`` reads the same as when relations were cast to bytes."""
    spec = synthesize_system(seed=7, n_countries=2, horizon=168, correlation=-0.8)
    shares = derive_reference_shares(spec, "AA")
    for name in ("f_0", "f_1", "f_23456", "f_123456"):
        lp, _ = assemble(apply_factor_state(spec, FactorState.parse(name), shares))
        assert lp_digest(lp) == string_cast_digest(lp), name
    # assembled LPs hold no ">" row
    lp = tiny_lp(np.eye(3), ["<", ">", "="], [1.0, 2.0, 3.0], [1.0] * 3)
    assert lp_digest(lp) == string_cast_digest(lp)


def test_digest_sees_every_array():
    lp, _ = assemble(wind_only_spec([1.0, 1.0], [0.5, 1.0]))
    seen = {lp_digest(lp)}
    for name in ("c", "lb", "ub", "rhs"):
        changed = getattr(lp, name).copy()
        changed[0] = 7.0
        seen.add(lp_digest(dataclasses.replace(lp, **{name: changed})))
    seen.add(lp_digest(dataclasses.replace(lp, relations=np.full(lp.n_rows, "<"))))
    data = lp.A.data.copy()
    data[0] = 7.0
    seen.add(lp_digest(dataclasses.replace(lp, A=dataclasses.replace(lp.A, data=data))))
    assert len(seen) == 7


# The CSR matrix against scipy.sparse, whose kernels it runs: every array
# and every float bit for bit.


def assert_same_csr(got, want):
    """``got``, a ``CsrMatrix``, holds ``want``'s shape and arrays, dtypes and bytes."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


def built_from_triples(spec, monkeypatch):
    """``assemble(spec)``'s LP and the triples its matrix was built from."""
    calls = []
    build = lp_mod._csr_matrix

    def recorded(shape, ri, ci, data):
        calls.append((shape, ri.copy(), ci.copy(), data.copy()))
        return build(shape, ri, ci, data)

    monkeypatch.setattr(lp_mod, "_csr_matrix", recorded)
    lp, _ = assemble(spec)
    (triples,) = calls
    return lp, triples


def single_hour(spec, retention):
    """``spec`` cut to its first hour, every storage keeping ``retention`` an hour."""
    ts = spec.time_series
    one = dataclasses.replace(
        ts,
        horizon=1,
        load={k: v[:1] for k, v in ts.load.items()},
        capacity_factors={k: v[:1] for k, v in ts.capacity_factors.items()},
        reservoir_inflow={k: v[:1] for k, v in ts.reservoir_inflow.items()},
    )
    techs = tuple(
        dataclasses.replace(t, self_discharge_retention=retention)
        if t.kind in ("storage", "reservoir")
        else t
        for t in spec.technologies
    )
    return dataclasses.replace(spec, time_series=one, technologies=techs)


class TestCsrAgainstScipy:
    def test_assemble_small_spec(self, small_spec, monkeypatch):
        lp, triples = built_from_triples(small_spec, monkeypatch)
        assert_same_csr(lp.A, scipy_csr(*triples))

    @pytest.mark.parametrize("retention", [0.9, 1.0])
    def test_assemble_single_hour_duplicates(self, monkeypatch, retention):
        """At one hour ``np.roll`` puts a level twice in its row; at retention 1 they sum to 0."""
        spec = single_hour(default_portfolio_spec(), retention)
        lp, (shape, ri, ci, data) = built_from_triples(spec, monkeypatch)
        assert_same_csr(lp.A, scipy_csr(shape, ri, ci, data))
        pairs = np.unique(ri.astype(np.int64) * shape[1] + ci).size
        assert pairs < ri.size  # duplicates summed
        # a level's two entries cancel at retention 1, and the sum is dropped
        assert (lp.A.nnz < pairs) == (retention == 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_build_from_unsorted_triples_with_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        shape, n = (7, 5), 60
        ri, ci = rng.integers(0, 7, n), rng.integers(0, 5, n)
        data = rng.choice([1.0, -1.0, 0.5, 1e-13, 0.0, 1.0 / 3.0], n)
        assert_same_csr(lp_mod._csr_matrix(shape, ri, ci, data), scipy_csr(shape, ri, ci, data))

    @pytest.mark.parametrize("state", ["f_23456", "f_123456"])
    def test_products_and_transpose(self, three_country_spec, state):
        lp, _ = assemble(apply_factor_state(three_country_spec, FactorState.parse(state), None))
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=lp.n_cols), rng.normal(size=lp.n_rows)
        A = to_scipy(lp.A)
        assert (lp.A @ x).tobytes() == (A @ x).tobytes()
        assert lp.A.rmatvec(y).tobytes() == (A.T @ y).tobytes()
        assert_same_csr(lp.A.transpose(), A.tocsc().T.tocsr())

    def test_solve_extracts_blocks_as_scipy_does(self, three_country_spec):
        lp, _ = assemble(apply_factor_state(three_country_spec, FactorState.parse("f_23456"), None))
        blocks = solve_mod._independent_blocks(lp)
        assert len(blocks) == 3
        for rows, cols in blocks:
            assert_same_csr(lp.A.block(rows, cols), to_scipy(lp.A)[rows][:, cols])

    def test_block_refuses_entries_outside_its_columns(self, three_country_spec):
        lp, _ = assemble(three_country_spec)
        rng = np.random.default_rng(2)
        rows = rng.permutation(lp.n_rows)[: lp.n_rows // 3]
        cols = np.sort(rng.permutation(lp.n_cols)[: lp.n_cols // 2])
        with pytest.raises(ValueError, match="outside cols"):
            lp.A.block(rows, cols)
