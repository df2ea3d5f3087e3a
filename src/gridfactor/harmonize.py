"""Factor states and counterfactual harmonization.

Six binary factors define the scenario design: interconnection
(not-allowed / allowed) plus wind, solar, load, hydro, and bioenergy
(harmonized / not harmonized). Harmonizing a factor removes its
cross-country variation by imposing the reference country's profiles
or per-load capacity shares on every country.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .lp import assemble
from .model import (
    ExogenousCapacity,
    GridFactorError,
    PowerSystemSpec,
    TimeSeriesSet,
)
from .solve import SolveOptions, SolveResult, solve

FACTOR_NUMBERS = {
    "interconnection": 1,
    "wind": 2,
    "solar": 3,
    "load": 4,
    "hydro": 5,
    "bioenergy": 6,
}
FACTOR_NAMES = {v: k for k, v in FACTOR_NUMBERS.items()}

_STATE_RE = re.compile(r"^f_(0|[1-6]+)$")


class HarmonizeError(GridFactorError):
    pass


@dataclass(frozen=True, order=True)
class FactorState:
    """One corner of the 2^6 design; True = state B (native / allowed)."""

    interconnection: bool = False
    wind: bool = False
    solar: bool = False
    load: bool = False
    hydro: bool = False
    bioenergy: bool = False

    @property
    def active_factors(self) -> tuple[int, ...]:
        return tuple(
            num for name, num in FACTOR_NUMBERS.items() if getattr(self, name)
        )

    @property
    def name(self) -> str:
        digits = "".join(str(n) for n in sorted(self.active_factors))
        return f"f_{digits or '0'}"

    @property
    def harmonizes(self) -> bool:
        """Whether any of wind, solar, load, hydro or bioenergy is harmonized."""
        return not (self.wind and self.solar and self.load and self.hydro and self.bioenergy)

    @property
    def mask(self) -> int:
        return sum(1 << (n - 1) for n in self.active_factors)

    @classmethod
    def from_factors(cls, factors: set[int] | frozenset[int]) -> "FactorState":
        bad = set(factors) - set(FACTOR_NAMES)
        if bad:
            raise HarmonizeError(f"unknown factor numbers {sorted(bad)}")
        return cls(**{FACTOR_NAMES[n]: (n in factors) for n in FACTOR_NAMES})

    @classmethod
    def parse(cls, text: str) -> "FactorState":
        m = _STATE_RE.match(text.strip())
        if not m:
            raise HarmonizeError(f"malformed factor state {text!r}")
        digits = m.group(1)
        if digits == "0":
            return cls()
        nums = [int(d) for d in digits]
        if sorted(nums) != nums or len(set(nums)) != len(nums):
            raise HarmonizeError(
                f"factor state {text!r} must list ascending unique digits"
            )
        return cls.from_factors(set(nums))


def enumerate_states(n_factors: int = 6) -> list[FactorState]:
    """All 2^n states over factors 1..n, f_0 first, full set last.

    Ordered by subset size, then lexicographically by digits, so runs
    and ledgers list states in one canonical order.
    """
    if n_factors < 1 or n_factors > 6:
        raise HarmonizeError("n_factors must be between 1 and 6")
    subsets: list[tuple[int, ...]] = []
    for size in range(n_factors + 1):
        subsets.extend(itertools.combinations(range(1, n_factors + 1), size))
    return [FactorState.from_factors(set(s)) for s in subsets]


def enumerate_subset_states(factor_numbers: tuple[int, ...]) -> list[FactorState]:
    """2^k states varying only the given factors; the rest stay native (B)."""
    fixed = set(FACTOR_NAMES) - set(factor_numbers)
    ordered = sorted(factor_numbers)
    states = []
    for size in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, size):
            states.append(FactorState.from_factors(set(combo) | fixed))
    return states


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
    country = spec.country(code)
    ts = spec.time_series
    return PowerSystemSpec(
        countries=(country,),
        technologies=spec.technologies,
        time_series=TimeSeriesSet(
            horizon=ts.horizon,
            capacity_factors={
                k: v for k, v in ts.capacity_factors.items() if k[0] == code
            },
            load={code: ts.load[code]},
            reservoir_inflow={
                k: v for k, v in ts.reservoir_inflow.items() if k == code
            },
        ),
        interconnectors=(),
        exogenous_capacities=tuple(
            e for e in spec.exogenous_capacities if e.country == code
        ),
        interconnection_enabled=False,
        annuity_rate=spec.annuity_rate,
        offshore_overrides=tuple(
            (c, mw) for c, mw in spec.offshore_overrides if c == code
        ),
    )


def derive_reference_shares(
    spec: PowerSystemSpec,
    reference_country: str,
    solve_options: SolveOptions | None = None,
    reuse: dict[str, SolveResult] | None = None,
) -> ReferenceShares:
    """Shares from running the reference country in isolation.

    Offshore wind uses the isolated run's optimal capacity; exogenous
    (non-expandable) technologies use their fixed capacities. All shares
    are denominated per MWh of the reference's yearly load. ``reuse`` is
    passed on to ``solve``.
    """
    try:
        ref = spec.country(reference_country)
    except KeyError:
        raise HarmonizeError(f"reference country {reference_country} not in spec") from None
    sub = isolate_country(spec, reference_country)
    lp, _ = assemble(sub)
    result = solve(lp, solve_options, reuse)
    if result.status != "optimal":
        raise HarmonizeError(
            f"isolated reference run for {reference_country} is {result.status}"
        )

    offshore_mw = 0.0
    for tech in spec.technologies:
        if tech.offshore:
            for j in lp.find_columns("cap_power", country=reference_country, tech=tech.id):
                offshore_mw += float(result.primal[j])

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
            "solver": result.method,
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

    ts = spec.time_series
    cf = {k: v for k, v in ts.capacity_factors.items()}
    load = {k: v for k, v in ts.load.items()}
    inflow = {k: v for k, v in ts.reservoir_inflow.items()}
    exogenous = list(spec.exogenous_capacities)
    overrides = spec.offshore_overrides
    codes = [c.code for c in spec.countries]

    if shares is not None:
        ref = shares.reference_country
        if ref not in codes:
            raise HarmonizeError(f"reference country {ref} not in spec")

    if not state.wind:
        wind_techs = spec.techs_in_group("wind")
        if not wind_techs:
            raise HarmonizeError("wind harmonization requires wind-group technologies")
        for tech in wind_techs:
            ref_series = cf[(shares.reference_country, tech.id)]
            for code in codes:
                cf[(code, tech.id)] = ref_series
        overrides = tuple(
            (code, shares.offshore_share * spec.country(code).yearly_load_total)
            for code in sorted(codes)
        )
    if not state.solar:
        for tech in spec.techs_in_group("solar"):
            ref_series = cf[(shares.reference_country, tech.id)]
            for code in codes:
                cf[(code, tech.id)] = ref_series

    if not state.load:
        ref_series = np.asarray(load[shares.reference_country], dtype=float)
        ref_total = float(ref_series.sum())
        if ref_total <= 0:
            raise HarmonizeError("reference load series sums to zero")
        shape = ref_series / ref_total
        for code in codes:
            if code == shares.reference_country:
                continue  # exact fixed point for the reference
            own_total = float(np.asarray(load[code]).sum())
            load[code] = shape * own_total

    hydro_techs = spec.techs_in_group("hydro")
    bio_techs = spec.techs_in_group("bioenergy")
    if not state.hydro:
        exogenous, inflow = _harmonize_portfolio(
            spec, hydro_techs, exogenous, shares, rescale_inflow=True, inflow=inflow
        )
    if not state.bioenergy:
        exogenous, _ = _harmonize_portfolio(
            spec, bio_techs, exogenous, shares, rescale_inflow=False, inflow=inflow
        )

    new_ts = TimeSeriesSet(
        horizon=ts.horizon,
        capacity_factors=cf,
        load=load,
        reservoir_inflow=inflow,
    )
    return replace(
        spec,
        time_series=new_ts,
        exogenous_capacities=tuple(exogenous),
        interconnection_enabled=state.interconnection,
        offshore_overrides=overrides,
    )


def _harmonize_portfolio(
    spec: PowerSystemSpec,
    techs,
    exogenous: list[ExogenousCapacity],
    shares: ReferenceShares,
    rescale_inflow: bool,
    inflow: dict,
) -> tuple[list[ExogenousCapacity], dict]:
    tech_ids = {t.id for t in techs if not t.expandable}
    kept = [e for e in exogenous if e.technology not in tech_ids]
    added: list[ExogenousCapacity] = []
    codes = sorted(c.code for c in spec.countries)
    for code in codes:
        yearly = spec.country(code).yearly_load_total
        for tid in sorted(tech_ids):
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

    new_inflow = dict(inflow)
    if rescale_inflow:
        reservoir_ids = {t.id for t in techs if t.kind == "reservoir"}
        ref_code = shares.reference_country
        ref_power = sum(
            e.power_discharge
            for e in added
            if e.country == ref_code and e.technology in reservoir_ids
        )
        ref_series = inflow.get(ref_code)
        for code in codes:
            own_power = sum(
                e.power_discharge
                for e in added
                if e.country == code and e.technology in reservoir_ids
            )
            if own_power > 0 and (ref_series is None or ref_power <= 0):
                raise HarmonizeError(
                    "hydro harmonization needs a reference inflow series"
                )
            if own_power > 0:
                new_inflow[code] = np.asarray(ref_series) * (own_power / ref_power)
            else:
                new_inflow.pop(code, None)
    return kept + added, new_inflow
