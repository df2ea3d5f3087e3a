"""Deterministic synthetic system generation for desk-scale experiments.

Stands in for the production climate/load databases: generates
capacity-factor, load, and inflow series that satisfy all model
invariants, with a tunable cross-country wind correlation so that
anti-correlated fixtures can be constructed.
"""

from __future__ import annotations

import string

import numpy as np

from .defaults import default_technologies
from .model import (
    HOURS_PER_YEAR,
    Country,
    ExogenousCapacity,
    Interconnector,
    PowerSystemSpec,
    TimeSeriesSet,
)

# Technologies present in synthetic systems; a lean subset of the default
# portfolio that still exercises every factor of the experiment design.
_SYNTH_TECH_IDS = (
    "bioenergy",
    "solar_pv",
    "wind_offshore",
    "wind_onshore",
    "lithium_ion",
    "power_to_gas",
    "reservoir",
)


# the two-letter country codes AA..ZZ
MAX_COUNTRIES = 26 * 26


def _country_codes(n: int) -> list[str]:
    letters = string.ascii_uppercase
    return [letters[i // 26] + letters[i % 26] for i in range(n)]


def _ar1(rng: np.random.Generator, n: int, phi: float = 0.9) -> np.ndarray:
    eps = rng.normal(0.0, np.sqrt(1.0 - phi * phi), size=n)
    z = np.empty(n)
    z[0] = rng.normal()
    for t in range(1, n):
        z[t] = phi * z[t - 1] + eps[t]
    return z


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def synthesize_system(
    seed: int,
    n_countries: int,
    horizon: int,
    correlation: float = 0.0,
) -> PowerSystemSpec:
    """Generate a valid synthetic PowerSystemSpec.

    ``correlation`` steers the latent cross-country correlation of wind
    capacity factors (country 0 carries the base weather signal).
    Deterministic for a given argument tuple.
    """
    if not 1 <= n_countries <= MAX_COUNTRIES:
        raise ValueError(f"n_countries must lie in [1, {MAX_COUNTRIES}]")
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    if not -1.0 <= correlation <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")

    rng = np.random.default_rng(seed)
    codes = _country_codes(n_countries)
    hours = np.arange(horizon)

    wind_base = _ar1(rng, horizon)
    cf: dict[tuple[str, str], np.ndarray] = {}
    load: dict[str, np.ndarray] = {}
    inflow: dict[str, np.ndarray] = {}
    countries: list[Country] = []
    exogenous: list[ExogenousCapacity] = []

    pv_clock = np.clip(np.sin(np.pi * ((hours % 24) - 6.0) / 12.0), 0.0, None)
    n_days = horizon // 24 + 1

    for i, code in enumerate(codes):
        if i == 0:
            z_wind = wind_base
        else:
            own = _ar1(rng, horizon)
            z_wind = correlation * wind_base + np.sqrt(1.0 - correlation**2) * own
        cf[(code, "wind_onshore")] = _sigmoid(1.2 * z_wind - 0.3)
        # offshore: steadier and much stronger, so eligible countries
        # build some despite the higher overnight cost
        cf[(code, "wind_offshore")] = _sigmoid(0.8 * z_wind + 2.2)

        day_amp = rng.uniform(0.55, 1.0, size=n_days)
        pv = pv_clock * np.repeat(day_amp, 24)[:horizon]
        cf[(code, "solar_pv")] = np.clip(pv, 0.0, 1.0)

        mean_load = 1000.0 * (1.0 + 0.25 * i)
        shape = (
            1.0
            + 0.15 * np.sin(2.0 * np.pi * ((hours % 24) - 8.0) / 24.0)
            + 0.05 * np.sin(2.0 * np.pi * (hours % 168) / 168.0)
            + 0.05 * _ar1(rng, horizon, phi=0.7)
        )
        series = np.clip(mean_load * shape, 0.0, None)
        load[code] = series
        countries.append(
            Country(
                code=code,
                yearly_load_total=float(series.sum()) * HOURS_PER_YEAR / horizon,
                offshore_eligible=(i % 2 == 0),
            )
        )

        bio_power = mean_load * rng.uniform(0.02, 0.06)
        exogenous.append(
            ExogenousCapacity(country=code, technology="bioenergy", power_discharge=bio_power)
        )
        if i % 2 == 0:
            rsv_power = 0.15 * mean_load
            exogenous.append(
                ExogenousCapacity(
                    country=code,
                    technology="reservoir",
                    power_discharge=rsv_power,
                    energy=40.0 * rsv_power,
                )
            )
            inflow[code] = rsv_power * 0.4 * _sigmoid(_ar1(rng, horizon, phi=0.8))

    interconnectors = tuple(
        Interconnector(
            from_country=codes[i],
            to_country=codes[i + 1],
            ntc=0.4 * 1000.0 * (1.0 + 0.25 * i),
        )
        for i in range(n_countries - 1)
    )

    technologies = tuple(
        t for t in default_technologies() if t.id in _SYNTH_TECH_IDS
    )
    return PowerSystemSpec(
        countries=tuple(countries),
        technologies=technologies,
        time_series=TimeSeriesSet(
            horizon=horizon, capacity_factors=cf, load=load, reservoir_inflow=inflow
        ),
        interconnectors=interconnectors,
        exogenous_capacities=tuple(exogenous),
        interconnection_enabled=True,
    )
