"""Factor states and counterfactual harmonization.

Six binary factors define the scenario design: interconnection
(not-allowed / allowed) plus wind, solar, load, hydro, and bioenergy
(harmonized / not harmonized). A factor state is the set of factors
left native (state B: allowed / not harmonized), named by their digits
in ascending order: ``f_13`` allows interconnection and keeps native
solar, ``f_0`` is the empty set; a state parses by that name alone.
Harmonizing a factor removes its cross-country variation by imposing
the reference country's profiles or per-load capacity shares on every
country.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .lp import assemble
from .model import ExogenousCapacity, GridFactorError, PowerSystemSpec
from .solve import SOLVER, SolveOptions, solve_certified

FACTOR_NUMBERS = {
    "interconnection": 1,
    "wind": 2,
    "solar": 3,
    "load": 4,
    "hydro": 5,
    "bioenergy": 6,
}
FACTOR_NAMES = {v: k for k, v in FACTOR_NUMBERS.items()}
INTERCONNECTION = FACTOR_NUMBERS["interconnection"]


class HarmonizeError(GridFactorError):
    pass


@dataclass(frozen=True)
class FactorState:
    """One corner of the 2^6 design: the factors left native (state B).

    A native interconnection (1) is allowed; a native wind (2), solar
    (3), load (4), hydro (5) or bioenergy (6) is not harmonized.
    """

    factors: frozenset[int] = frozenset()

    @property
    def name(self) -> str:
        return f"f_{''.join(map(str, sorted(self.factors))) or '0'}"

    @property
    def harmonizes(self) -> bool:
        """Whether any of wind, solar, load, hydro or bioenergy is harmonized."""
        return self.factors | {INTERCONNECTION} != FACTOR_NAMES.keys()

    @classmethod
    def from_factors(cls, factors: set[int] | frozenset[int]) -> "FactorState":
        bad = set(factors) - set(FACTOR_NAMES)
        if bad:
            raise HarmonizeError(f"unknown factor numbers {sorted(bad)}")
        return cls(frozenset(factors))

    @classmethod
    def parse(cls, text: str) -> "FactorState":
        try:
            return _STATES[text.strip()]
        except KeyError:
            raise HarmonizeError(f"malformed factor state {text!r}") from None


def _by_size(numbers):
    """Subsets of ``numbers`` by size, then lexicographically by digits.

    Runs and ledgers list states in this one canonical order.
    """
    for size in range(len(numbers) + 1):
        yield from itertools.combinations(numbers, size)


def enumerate_subset_states(factor_numbers: tuple[int, ...]) -> list[FactorState]:
    """2^k states varying only the given factors; the rest stay native (B)."""
    fixed = set(FACTOR_NAMES) - set(factor_numbers)
    return [FactorState.from_factors(set(s) | fixed) for s in _by_size(sorted(factor_numbers))]


_STATES = {s.name: s for s in enumerate_subset_states(tuple(FACTOR_NAMES))}


@dataclass(frozen=True)
class CapacityShares:
    """Installed capacity per MWh of yearly load, component-wise."""

    power_discharge: float = 0.0
    power_charge: float = 0.0
    energy: float = 0.0


@dataclass(frozen=True)
class ReferenceShares:
    """Per-load capacity shares from an isolated reference-country run."""

    reference_country: str
    offshore_share: float  # MW per MWh of yearly load
    technology_shares: Mapping[str, CapacityShares]  # non-expandable techs
    provenance: Mapping[str, float | str] = field(default_factory=dict)


def isolate_country(spec: PowerSystemSpec, code: str) -> PowerSystemSpec:
    """Single-country sub-spec with interconnection off."""
    ts = spec.time_series
    return replace(
        spec,
        countries=(spec.country(code),),
        time_series=replace(
            ts,
            capacity_factors={k: v for k, v in ts.capacity_factors.items() if k[0] == code},
            load={code: ts.load[code]},
            reservoir_inflow={k: v for k, v in ts.reservoir_inflow.items() if k == code},
        ),
        interconnectors=(),
        exogenous_capacities=tuple(e for e in spec.exogenous_capacities if e.country == code),
        interconnection_enabled=False,
        offshore_overrides=tuple((c, mw) for c, mw in spec.offshore_overrides if c == code),
    )


def derive_reference_shares(
    spec: PowerSystemSpec,
    reference_country: str,
    solve_options: SolveOptions | None = None,
) -> ReferenceShares:
    """Shares from running the reference country in isolation.

    Offshore wind uses the isolated run's optimal capacity; exogenous
    (non-expandable) technologies use their fixed capacities. All shares
    are denominated per MWh of the reference's yearly load. A run that is
    not optimal or fails its certificate raises ``SolveError``.
    """
    try:
        ref = spec.country(reference_country)
    except KeyError:
        raise HarmonizeError(f"reference country {reference_country} not in spec") from None
    sub = isolate_country(spec, reference_country)
    lp, _ = assemble(sub)
    result = solve_certified(lp, f"isolated reference run for {reference_country}", solve_options)

    capacities = lp.capacities(result.primal)
    offshore_mw = 0.0
    for tech in spec.technologies:
        key = ("cap_power", reference_country, tech.id)
        if tech.offshore and key in capacities:
            offshore_mw += capacities[key]

    tech_shares: dict[str, CapacityShares] = {}
    for tech in spec.technologies:
        if tech.expandable:
            continue
        e = spec.exogenous_capacity(reference_country, tech.id)
        tech_shares[tech.id] = CapacityShares(
            power_discharge=e.power_discharge / ref.yearly_load_total,
            power_charge=e.power_charge / ref.yearly_load_total,
            energy=e.energy / ref.yearly_load_total,
        )

    return ReferenceShares(
        reference_country=reference_country,
        offshore_share=offshore_mw / ref.yearly_load_total,
        technology_shares=tech_shares,
        provenance={
            "objective": result.objective,
            "solver": SOLVER,
            "horizon": spec.time_series.horizon,
        },
    )


def apply_factor_state(
    spec: PowerSystemSpec,
    state: FactorState,
    shares: ReferenceShares | None = None,
) -> PowerSystemSpec:
    """Counterfactual spec for one factor state.

    Idempotent: applying the same state twice equals applying it once.
    The reference country's own profiles are fixed points of every
    harmonization step.
    """
    if state.harmonizes and shares is None:
        raise HarmonizeError(f"state {state.name} requires reference shares")

    native = {FACTOR_NAMES[n] for n in state.factors}
    ts = spec.time_series
    cf = dict(ts.capacity_factors)
    load = dict(ts.load)
    inflow = dict(ts.reservoir_inflow)
    exogenous = list(spec.exogenous_capacities)
    overrides = spec.offshore_overrides
    codes = [c.code for c in spec.countries]

    if shares is not None:
        ref = shares.reference_country
        if ref not in codes:
            raise HarmonizeError(f"reference country {ref} not in spec")

    if "wind" not in native:
        wind_techs = spec.techs_in_group("wind")
        if not wind_techs:
            raise HarmonizeError("wind harmonization requires wind-group technologies")
        _reference_profiles(cf, wind_techs, ref, codes)
        overrides = tuple(
            (code, shares.offshore_share * spec.country(code).yearly_load_total)
            for code in sorted(codes)
        )
    if "solar" not in native:
        _reference_profiles(cf, spec.techs_in_group("solar"), ref, codes)

    if "load" not in native:
        ref_series = np.asarray(load[ref], dtype=float)
        ref_total = float(ref_series.sum())
        if ref_total <= 0:
            raise HarmonizeError("reference load series sums to zero")
        shape = ref_series / ref_total
        for code in codes:
            if code == ref:
                continue  # exact fixed point for the reference
            own_total = float(np.asarray(load[code]).sum())
            load[code] = shape * own_total

    if "hydro" not in native:
        exogenous = _reference_capacities(spec, "hydro", exogenous, shares)
        inflow = _reference_inflow(spec, exogenous, ref, inflow)
    if "bioenergy" not in native:
        exogenous = _reference_capacities(spec, "bioenergy", exogenous, shares)

    return replace(
        spec,
        time_series=replace(ts, capacity_factors=cf, load=load, reservoir_inflow=inflow),
        exogenous_capacities=tuple(exogenous),
        interconnection_enabled="interconnection" in native,
        offshore_overrides=overrides,
    )


def _reference_profiles(cf: dict, techs, ref: str, codes) -> None:
    """Give every country the reference country's profile of each of ``techs``."""
    for tech in techs:
        ref_series = cf[(ref, tech.id)]
        for code in codes:
            cf[(code, tech.id)] = ref_series


def _reference_capacities(
    spec: PowerSystemSpec,
    group: str,
    exogenous: list[ExogenousCapacity],
    shares: ReferenceShares,
) -> list[ExogenousCapacity]:
    """``exogenous`` with the legacy capacities of ``group`` per load of the reference's."""
    tech_ids = sorted(t.id for t in spec.techs_in_group(group) if not t.expandable)
    added: list[ExogenousCapacity] = []
    for code in sorted(c.code for c in spec.countries):
        yearly = spec.country(code).yearly_load_total
        for tid in tech_ids:
            s = shares.technology_shares.get(tid)
            if s is None:
                raise HarmonizeError(f"missing reference share for technology {tid}")
            if s.power_discharge == 0 and s.power_charge == 0 and s.energy == 0:
                continue
            added.append(
                ExogenousCapacity(
                    country=code,
                    technology=tid,
                    power_discharge=s.power_discharge * yearly,
                    power_charge=s.power_charge * yearly,
                    energy=s.energy * yearly,
                )
            )
    return [e for e in exogenous if e.technology not in tech_ids] + added


def _reference_inflow(
    spec: PowerSystemSpec,
    exogenous: list[ExogenousCapacity],
    ref: str,
    inflow: dict,
) -> dict:
    """The reference's inflow, scaled by each country's hydro reservoir power.

    A country without reservoir power keeps no inflow series.
    """
    reservoirs = {
        t.id for t in spec.techs_in_group("hydro") if t.kind == "reservoir" and not t.expandable
    }
    power = {c.code: 0.0 for c in spec.countries}
    for e in exogenous:
        if e.technology in reservoirs:
            power[e.country] += e.power_discharge
    ref_series = inflow.get(ref)
    scaled = dict(inflow)
    for code in sorted(power):
        if power[code] <= 0:
            scaled.pop(code, None)
        elif ref_series is None or power[ref] <= 0:
            raise HarmonizeError("hydro harmonization needs a reference inflow series")
        else:
            scaled[code] = np.asarray(ref_series) * (power[code] / power[ref])
    return scaled
