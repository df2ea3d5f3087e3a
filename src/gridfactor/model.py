"""Domain types for a multi-region power system instance.

Units follow power-market conventions throughout the package:
power in MW, energy in MWh, overnight investment costs in EUR/kW
(power) or EUR/kWh (energy), marginal costs in EUR/MWh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

HOURS_PER_YEAR = 8760

# The capacity families of each technology kind, in column order, each with
# the ``ExogenousCapacity`` field that fixes it when the technology is not
# expandable and the overnight cost (> 0) that prices it when it is.
_GENERATOR = (("cap_power", "power_discharge", "overnight_cost_power"),)
KIND_CAPACITIES = {
    "dispatchable": _GENERATOR,
    "variable-renewable": _GENERATOR,
    "run-of-river": _GENERATOR,
    "storage": (
        ("cap_charge", "power_charge", "overnight_cost_charge"),
        ("cap_discharge", "power_discharge", "overnight_cost_discharge"),
        ("cap_energy", "energy", "overnight_cost_energy"),
    ),
    "reservoir": (
        ("cap_discharge", "power_discharge", "overnight_cost_discharge"),
        ("cap_energy", "energy", "overnight_cost_energy"),
    ),
}
FACTOR_GROUPS = frozenset({"wind", "solar", "hydro", "bioenergy"})
DURATION_CLASSES = frozenset({"short", "long"})


class GridFactorError(Exception):
    """Base class for domain errors raised by this package."""


@dataclass(frozen=True)
class Country:
    """One market zone, treated as a copper plate internally."""

    code: str
    yearly_load_total: float  # MWh
    offshore_eligible: bool = False


@dataclass(frozen=True)
class Technology:
    """Techno-economic description of one generation or storage technology.

    ``factor_group`` ties a technology to one of the harmonizable
    factors (wind, solar, hydro, bioenergy); ``duration_class`` marks
    storage technologies as short- or long-duration for the reported
    storage metrics.
    """

    id: str
    kind: str
    marginal_cost: float = 0.0  # EUR/MWh
    overnight_cost_power: float = 0.0  # EUR/kW
    overnight_cost_energy: float = 0.0  # EUR/kWh, storage only
    overnight_cost_charge: float = 0.0  # EUR/kW, storage only
    overnight_cost_discharge: float = 0.0  # EUR/kW, storage only
    fixed_cost: float = 0.0  # EUR/kW/a
    lifetime: float = 25.0  # years
    efficiency_in: float = 1.0
    efficiency_out: float = 1.0
    self_discharge_retention: float = 1.0  # per-hour energy retention
    expandable: bool = True
    offshore: bool = False
    factor_group: str | None = None
    duration_class: str | None = None


@dataclass(frozen=True)
class Interconnector:
    """One cross-border link with a symmetric net transfer capacity."""

    from_country: str
    to_country: str
    ntc: float  # MW


@dataclass(frozen=True)
class ExogenousCapacity:
    """Fixed legacy capacity of a non-expandable technology in one country."""

    country: str
    technology: str
    power_discharge: float = 0.0  # MW
    power_charge: float = 0.0  # MW
    energy: float = 0.0  # MWh


@dataclass(frozen=True, eq=False)
class TimeSeriesSet:
    """Hourly input series for one system instance.

    ``capacity_factors`` is keyed by ``(country_code, technology_id)``
    and covers variable renewables plus, optionally, run-of-river
    availability profiles. All series have exactly ``horizon`` entries.
    """

    horizon: int
    capacity_factors: Mapping[tuple[str, str], np.ndarray]
    load: Mapping[str, np.ndarray]  # MWh/h
    reservoir_inflow: Mapping[str, np.ndarray] = field(default_factory=dict)  # MWh/h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeriesSet):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and _series_maps_equal(self.capacity_factors, other.capacity_factors)
            and _series_maps_equal(self.load, other.load)
            and _series_maps_equal(self.reservoir_inflow, other.reservoir_inflow)
        )

    def __hash__(self) -> int:  # maps of arrays are not hashable
        return hash(self.horizon)


def _series_maps_equal(a: Mapping, b: Mapping) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


@dataclass(frozen=True)
class PowerSystemSpec:
    """Immutable description of one scenario instance.

    ``offshore_overrides`` fixes offshore wind capacity (MW) per country,
    overriding offshore eligibility; it is populated by wind
    harmonization and empty in native scenarios.
    """

    countries: tuple[Country, ...]
    technologies: tuple[Technology, ...]
    time_series: TimeSeriesSet
    interconnectors: tuple[Interconnector, ...] = ()
    exogenous_capacities: tuple[ExogenousCapacity, ...] = ()
    interconnection_enabled: bool = True
    annuity_rate: float = 0.04
    offshore_overrides: tuple[tuple[str, float], ...] = ()

    # -- lookup helpers -------------------------------------------------

    def country(self, code: str) -> Country:
        for c in self.countries:
            if c.code == code:
                return c
        raise KeyError(code)

    def techs_of_kind(self, *kinds: str) -> tuple[Technology, ...]:
        return tuple(t for t in self.technologies if t.kind in kinds)

    def techs_in_group(self, group: str) -> tuple[Technology, ...]:
        return tuple(t for t in self.technologies if t.factor_group == group)

    def exogenous_capacity(self, country: str, tech: str) -> ExogenousCapacity:
        for e in self.exogenous_capacities:
            if e.country == country and e.technology == tech:
                return e
        return ExogenousCapacity(country=country, technology=tech)

    def in_portfolio(self, country: str, tech: Technology) -> bool:
        """Whether ``tech`` exists in ``country``'s portfolio.

        Expandable technologies are always present; non-expandable ones
        only where an exogenous capacity entry carries nonzero values.
        """
        if tech.expandable:
            return True
        e = self.exogenous_capacity(country, tech.id)
        return e.power_discharge > 0 or e.power_charge > 0 or e.energy > 0

    def offshore_override(self, country: str) -> float | None:
        for code, mw in self.offshore_overrides:
            if code == country:
                return mw
        return None


def annuity(overnight_cost: float, lifetime: float, rate: float) -> float:
    """Annualized equivalent of an overnight cost.

    Uses the standard annuity factor ``rate / (1 - (1 + rate)^-lifetime)``;
    a zero rate degenerates to straight-line ``overnight_cost / lifetime``.
    """
    if lifetime <= 0:
        raise ValueError(f"lifetime must be positive, got {lifetime}")
    if rate < 0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    if rate == 0:
        return overnight_cost / lifetime
    return overnight_cost * rate / (1.0 - (1.0 + rate) ** (-lifetime))


def validate(spec: PowerSystemSpec) -> list[str]:
    """Check every type invariant; violations are returned, not raised."""
    out: list[str] = []
    codes = [c.code for c in spec.countries]
    if len(set(codes)) != len(codes):
        out.append("country codes are not unique")
    for c in spec.countries:
        if len(c.code) != 2:
            out.append(f"country {c.code!r}: code is not a 2-letter identifier")
        if not c.yearly_load_total > 0:
            out.append(f"country {c.code}: yearly_load_total must be > 0")

    tech_ids = [t.id for t in spec.technologies]
    if len(set(tech_ids)) != len(tech_ids):
        out.append("technology ids are not unique")
    for t in spec.technologies:
        if t.kind not in KIND_CAPACITIES:
            out.append(f"technology {t.id}: unknown kind {t.kind!r}")
        if t.expandable:
            for _, _, cost in KIND_CAPACITIES.get(t.kind, ()):
                if getattr(t, cost) == 0:
                    out.append(f"technology {t.id}: expandable, so {cost} must be > 0")
        for name in (
            "marginal_cost",
            "overnight_cost_power",
            "overnight_cost_energy",
            "overnight_cost_charge",
            "overnight_cost_discharge",
            "fixed_cost",
        ):
            if getattr(t, name) < 0:
                out.append(f"technology {t.id}: {name} must be >= 0")
        if t.lifetime < 1:
            out.append(f"technology {t.id}: lifetime must be >= 1 year")
        for name in ("efficiency_in", "efficiency_out"):
            if not 0 < getattr(t, name) <= 1:
                out.append(f"technology {t.id}: {name} out of (0, 1]")
        if not 0 <= t.self_discharge_retention <= 1:
            out.append(f"technology {t.id}: self_discharge_retention out of [0, 1]")
        if t.factor_group is not None and t.factor_group not in FACTOR_GROUPS:
            out.append(f"technology {t.id}: unknown factor_group {t.factor_group!r}")
        # harmonizing wind or solar copies the reference's capacity-factor profiles
        if t.factor_group in ("wind", "solar") and t.kind != "variable-renewable":
            out.append(
                f"technology {t.id}: factor_group {t.factor_group} needs a variable-renewable kind"
            )
        if t.duration_class is not None and t.duration_class not in DURATION_CLASSES:
            out.append(f"technology {t.id}: unknown duration_class {t.duration_class!r}")
        if t.offshore and t.kind != "variable-renewable":
            out.append(f"technology {t.id}: offshore flag on non-VRE technology")

    out.extend(_validate_time_series(spec))
    out.extend(_validate_interconnectors(spec))
    out.extend(_validate_exogenous(spec))

    if spec.annuity_rate < 0:
        out.append(f"annuity_rate must be >= 0, got {spec.annuity_rate!r}")
    override_codes = [code for code, _ in spec.offshore_overrides]
    for code, mw in spec.offshore_overrides:
        if code not in codes:
            out.append(f"offshore override references unknown country {code}")
        if mw < 0:
            out.append(f"offshore override for {code} must be >= 0")
    for code in sorted({c for c in override_codes if override_codes.count(c) > 1}):
        out.append(f"offshore override for {code} is given more than once")
    return out


def _validate_time_series(spec: PowerSystemSpec) -> list[str]:
    out: list[str] = []
    ts = spec.time_series
    t_hours = ts.horizon
    if t_hours < 1:
        out.append("time series horizon must be >= 1")
    codes = {c.code for c in spec.countries}
    tech_ids = {t.id for t in spec.technologies}

    for (code, tech), series in ts.capacity_factors.items():
        tag = f"capacity factors ({code}, {tech})"
        if code not in codes:
            out.append(f"{tag}: unknown country")
        if tech not in tech_ids:
            out.append(f"{tag}: unknown technology")
        if len(series) != t_hours:
            out.append(f"{tag}: series length mismatch ({len(series)} != {t_hours})")
        elif np.any((np.asarray(series) < 0) | (np.asarray(series) > 1)):
            out.append(f"{tag}: capacity factor out of [0,1]")

    for code in ts.load:
        if code not in codes:
            out.append(f"load ({code}): unknown country")

    for c in spec.countries:
        if c.code not in ts.load:
            out.append(f"country {c.code}: missing load series")
            continue
        series = np.asarray(ts.load[c.code])
        if len(series) != t_hours:
            out.append(
                f"load ({c.code}): series length mismatch ({len(series)} != {t_hours})"
            )
        elif np.any(series < 0):
            out.append(f"load ({c.code}): negative load")
        elif t_hours >= 1:
            annualized = float(series.sum()) * HOURS_PER_YEAR / t_hours
            if not np.isclose(annualized, c.yearly_load_total, rtol=1e-6):
                out.append(
                    f"country {c.code}: yearly_load_total inconsistent with load series"
                )

    for code, series in ts.reservoir_inflow.items():
        if code not in codes:
            out.append(f"inflow ({code}): unknown country")
        if len(series) != t_hours:
            out.append(
                f"inflow ({code}): series length mismatch ({len(series)} != {t_hours})"
            )
        elif np.any(np.asarray(series) < 0):
            out.append(f"inflow ({code}): negative inflow")

    # every (country, VRE tech) pair needs a capacity-factor series,
    # and every country with a reservoir its inflow series
    for c in spec.countries:
        for t in spec.techs_of_kind("variable-renewable"):
            if (c.code, t.id) not in ts.capacity_factors:
                out.append(f"missing capacity-factor series for ({c.code}, {t.id})")
        for t in spec.techs_of_kind("reservoir"):
            if spec.in_portfolio(c.code, t) and c.code not in ts.reservoir_inflow:
                out.append(f"country {c.code}: missing inflow series for reservoir {t.id}")
    return out


def _validate_interconnectors(spec: PowerSystemSpec) -> list[str]:
    out: list[str] = []
    codes = {c.code for c in spec.countries}
    seen: set[frozenset[str]] = set()
    for line in spec.interconnectors:
        tag = f"interconnector {line.from_country}-{line.to_country}"
        if line.ntc < 0:
            out.append(f"{tag}: ntc must be >= 0")
        if line.from_country == line.to_country:
            out.append(f"{tag}: endpoints must differ")
        for code in (line.from_country, line.to_country):
            if code not in codes:
                out.append(f"{tag}: unknown country {code}")
        pair = frozenset((line.from_country, line.to_country))
        if pair in seen:
            out.append(f"{tag}: duplicate unordered country pair")
        seen.add(pair)
    return out


def _validate_exogenous(spec: PowerSystemSpec) -> list[str]:
    out: list[str] = []
    codes = {c.code for c in spec.countries}
    tech_by_id = {t.id: t for t in spec.technologies}
    seen: set[tuple[str, str]] = set()
    for e in spec.exogenous_capacities:
        tag = f"exogenous capacity ({e.country}, {e.technology})"
        if e.country not in codes:
            out.append(f"{tag}: unknown country")
        tech = tech_by_id.get(e.technology)
        if tech is None:
            out.append(f"{tag}: unknown technology")
        elif tech.expandable:
            out.append(f"{tag}: referenced technology must have expandable = false")
        for name in ("power_discharge", "power_charge", "energy"):
            if getattr(e, name) < 0:
                out.append(f"{tag}: {name} must be >= 0")
        key = (e.country, e.technology)
        if key in seen:
            out.append(f"{tag}: duplicate entry")
        seen.add(key)
    return out
