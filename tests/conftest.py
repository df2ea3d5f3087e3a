import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridfactor
from gridfactor import Country, PowerSystemSpec, Technology, TimeSeriesSet, synthesize_system
from gridfactor.defaults import (
    default_countries,
    default_exogenous_capacities,
    default_interconnectors,
    default_technologies,
)
from gridfactor.lp import LinearProgram
from gridfactor.model import HOURS_PER_YEAR

from _oracles import from_scipy


def run_fresh(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter that imports this package."""
    src = Path(gridfactor.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return out.stdout


def ledger_comparison_bytes(ledger: dict) -> bytes:
    """Canonical serialization with timing stripped, for determinism checks."""
    doc = {k: v for k, v in ledger.items() if k != "timing"}
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def tiny_lp(A, relations, rhs, c, lb=None, ub=None):
    """An LP from dense rows; bounds default to [0, inf)."""
    n = len(c)
    return LinearProgram(
        A=from_scipy(np.asarray(A, dtype=float).reshape(len(relations), n)),
        c=np.asarray(c, dtype=float),
        lb=np.zeros(n) if lb is None else np.asarray(lb, dtype=float),
        ub=np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float),
        relations=np.asarray(relations),
        rhs=np.asarray(rhs, dtype=float),
    )


def wind_only_spec(load, cf, overnight=1182.0, lifetime=25.0):
    """Single country, single expandable wind technology, nothing else."""
    load = np.asarray(load, dtype=float)
    cf = np.asarray(cf, dtype=float)
    horizon = load.size
    tech = Technology(
        id="wind",
        kind="variable-renewable",
        overnight_cost_power=overnight,
        lifetime=lifetime,
        factor_group="wind",
    )
    country = Country(
        code="AA", yearly_load_total=float(load.sum()) * HOURS_PER_YEAR / horizon
    )
    return PowerSystemSpec(
        countries=(country,),
        technologies=(tech,),
        time_series=TimeSeriesSet(
            horizon=horizon,
            capacity_factors={("AA", "wind"): cf},
            load={"AA": load},
        ),
        interconnectors=(),
        interconnection_enabled=False,
    )


def default_portfolio_spec(horizon=48):
    """AT, CH and DE with the built-in technologies, legacy capacities and lines.

    Series are synthetic; every country has reservoir inflow.
    """
    codes = ("AT", "CH", "DE")
    rng = np.random.default_rng(3)
    techs = default_technologies()
    scale = {"AT": 7e3, "CH": 7e3, "DE": 6e4}  # MW
    load = {code: scale[code] * (0.8 + 0.4 * rng.random(horizon)) for code in codes}
    cf = {
        (code, t.id): rng.random(horizon)
        for code in codes
        for t in techs
        if t.kind == "variable-renewable"
    }
    inflow = {code: 0.1 * scale[code] * rng.random(horizon) for code in codes}
    totals = {code: float(load[code].sum()) * HOURS_PER_YEAR / horizon for code in codes}
    return PowerSystemSpec(
        countries=default_countries(totals),
        technologies=techs,
        time_series=TimeSeriesSet(
            horizon=horizon, capacity_factors=cf, load=load, reservoir_inflow=inflow
        ),
        interconnectors=default_interconnectors(codes),
        exogenous_capacities=default_exogenous_capacities(codes),
        interconnection_enabled=True,
    )


@pytest.fixture
def small_spec():
    return synthesize_system(seed=5, n_countries=2, horizon=48, correlation=-0.8)


@pytest.fixture
def three_country_spec():
    return synthesize_system(seed=11, n_countries=3, horizon=72, correlation=-0.5)


@pytest.fixture
def system_dir(tmp_path, small_spec):
    from gridfactor import write_system

    return write_system(small_spec, tmp_path / "system")
