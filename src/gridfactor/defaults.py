"""Built-in default parameter tables.

Technology cost and efficiency assumptions, exogenous legacy capacities
per country, and net transfer capacities for the twelve-country central
European setup. Power values are stored in MW and energy in MWh;
overnight costs keep their EUR/kW and EUR/kWh denominations.
"""

from __future__ import annotations

from .model import Country, ExogenousCapacity, Interconnector, Technology

COUNTRY_CODES = ("AT", "BE", "CH", "CZ", "DE", "DK", "ES", "FR", "IT", "NL", "PL", "PT")

# Countries with sea access in the modeled region; offshore wind is only
# installable there unless a harmonized offshore share overrides it.
OFFSHORE_ELIGIBLE = frozenset({"BE", "DE", "DK", "ES", "FR", "IT", "NL", "PL", "PT"})


def default_technologies() -> tuple[Technology, ...]:
    return (
        Technology(
            id="bioenergy",
            kind="dispatchable",
            efficiency_out=0.487,
            overnight_cost_power=1951.0,
            lifetime=30,
            expandable=False,
            factor_group="bioenergy",
        ),
        Technology(
            id="run_of_river",
            kind="run-of-river",
            efficiency_out=0.9,
            overnight_cost_power=600.0,
            lifetime=25,
            expandable=False,
            factor_group="hydro",
        ),
        Technology(
            id="solar_pv",
            kind="variable-renewable",
            overnight_cost_power=3000.0,
            lifetime=50,
            factor_group="solar",
        ),
        Technology(
            id="wind_offshore",
            kind="variable-renewable",
            overnight_cost_power=2506.0,
            lifetime=25,
            offshore=True,
            factor_group="wind",
        ),
        Technology(
            id="wind_onshore",
            kind="variable-renewable",
            overnight_cost_power=1182.0,
            lifetime=25,
            factor_group="wind",
        ),
        Technology(
            id="lithium_ion",
            kind="storage",
            marginal_cost=0.5,
            efficiency_in=0.92,
            efficiency_out=0.92,
            self_discharge_retention=1.0,
            overnight_cost_energy=200.0,
            overnight_cost_charge=150.0,
            overnight_cost_discharge=150.0,
            lifetime=13,
            duration_class="short",
        ),
        Technology(
            id="power_to_gas",
            kind="storage",
            marginal_cost=0.5,
            efficiency_in=0.5,
            efficiency_out=0.5,
            self_discharge_retention=1.0,
            overnight_cost_energy=1.0,
            overnight_cost_charge=3000.0,
            overnight_cost_discharge=3000.0,
            lifetime=20,
            duration_class="long",
        ),
        Technology(
            id="pumped_hydro_closed",
            kind="storage",
            marginal_cost=0.5,
            efficiency_in=0.8,
            efficiency_out=0.8,
            self_discharge_retention=1.0,
            overnight_cost_energy=80.0,
            overnight_cost_charge=1100.0,
            overnight_cost_discharge=1100.0,
            lifetime=60,
            expandable=False,
            factor_group="hydro",
        ),
        Technology(
            id="pumped_hydro_open",
            kind="storage",
            marginal_cost=0.5,
            efficiency_in=0.8,
            efficiency_out=0.8,
            self_discharge_retention=1.0,
            overnight_cost_energy=80.0,
            overnight_cost_charge=1100.0,
            overnight_cost_discharge=1100.0,
            lifetime=60,
            expandable=False,
            factor_group="hydro",
        ),
        Technology(
            id="reservoir",
            kind="reservoir",
            marginal_cost=0.1,
            efficiency_out=0.95,
            self_discharge_retention=1.0,
            overnight_cost_energy=10.0,
            overnight_cost_discharge=200.0,
            lifetime=50,
            expandable=False,
            factor_group="hydro",
        ),
    )


# Per-country exogenous capacities. Power in GW, energy in GWh as
# tabulated; converted to MW / MWh when building ExogenousCapacity rows.
_EXOGENOUS_GW = {
    "bioenergy": {
        "power": (0.50, 0.62, 0.0, 0.40, 7.75, 1.72, 0.51, 1.93, 1.54, 0.46, 0.85, 0.61),
    },
    "run_of_river": {
        "power": (5.56, 0.17, 0.64, 0.33, 3.99, 0.01, 1.16, 10.96, 10.65, 0.04, 0.44, 2.86),
    },
    "pumped_hydro_closed": {
        "power": (0.0, 1.31, 3.99, 0.69, 6.06, 0.0, 3.33, 1.96, 4.01, 0.0, 1.32, 0.0),
        "charge": (0.0, 1.15, 3.94, 0.65, 6.07, 0.0, 3.14, 1.95, 4.07, 0.0, 1.49, 0.0),
        "energy": (0.0, 5.30, 670.0, 3.70, 355.0, 0.0, 95.40, 10.0, 22.40, 0.0, 6.34, 0.0),
    },
    "pumped_hydro_open": {
        "power": (3.46, 0.0, 0.0, 0.47, 1.64, 0.0, 2.68, 1.85, 3.57, 0.0, 0.18, 2.95),
        "charge": (2.56, 0.0, 0.0, 0.44, 1.36, 0.0, 2.42, 1.85, 2.34, 0.0, 0.17, 2.70),
        "energy": (1722.0, 0.0, 0.0, 2.0, 417.0, 0.0, 6185.0, 90.0, 382.0, 0.0, 2.0, 1966.0),
    },
    "reservoir": {
        "power": (2.43, 0.0, 8.15, 0.70, 1.30, 0.0, 10.97, 8.48, 9.96, 0.0, 0.18, 3.49),
        "energy": (762.0, 0.0, 8155.0, 3.0, 258.0, 0.0, 11840.0, 10000.0, 5649.0, 0.0, 1.0, 1187.0),
    },
}

# Net transfer capacities in MW, one symmetric value per link.
NTC_MW = {
    ("AT", "CH"): 1700.0,
    ("AT", "CZ"): 1100.0,
    ("AT", "DE"): 7500.0,
    ("AT", "IT"): 1470.0,
    ("BE", "DE"): 1000.0,
    ("BE", "FR"): 5050.0,
    ("BE", "NL"): 4900.0,
    ("CH", "DE"): 5300.0,
    ("CH", "FR"): 4000.0,
    ("CH", "IT"): 4850.0,
    ("CZ", "DE"): 2300.0,
    ("CZ", "PL"): 700.0,
    ("DE", "DK"): 4000.0,
    ("DE", "FR"): 4800.0,
    ("DE", "NL"): 5000.0,
    ("DE", "PL"): 3750.0,
    ("DK", "PL"): 500.0,
    ("ES", "FR"): 9000.0,
    ("ES", "PT"): 4350.0,
    ("FR", "IT"): 3255.0,
}


def default_exogenous_capacities(
    countries: tuple[str, ...] = COUNTRY_CODES,
) -> tuple[ExogenousCapacity, ...]:
    out = []
    for tech_id, table in _EXOGENOUS_GW.items():
        for idx, code in enumerate(COUNTRY_CODES):
            if code not in countries:
                continue
            power = table["power"][idx] * 1000.0
            charge = table.get("charge", table["power"])[idx] * 1000.0
            energy = table.get("energy", (0.0,) * 12)[idx] * 1000.0
            if power == 0.0 and charge == 0.0 and energy == 0.0:
                continue
            out.append(
                ExogenousCapacity(
                    country=code,
                    technology=tech_id,
                    power_discharge=power,
                    power_charge=charge if tech_id.startswith("pumped") else 0.0,
                    energy=energy,
                )
            )
    return tuple(out)


def default_interconnectors(
    countries: tuple[str, ...] = COUNTRY_CODES,
) -> tuple[Interconnector, ...]:
    return tuple(
        Interconnector(from_country=a, to_country=b, ntc=ntc)
        for (a, b), ntc in NTC_MW.items()
        if a in countries and b in countries
    )


def default_countries(yearly_load_totals: dict[str, float]) -> tuple[Country, ...]:
    """Country rows for the default region; load totals are caller-supplied."""
    return tuple(
        Country(
            code=code,
            yearly_load_total=yearly_load_totals[code],
            offshore_eligible=code in OFFSHORE_ELIGIBLE,
        )
        for code in COUNTRY_CODES
        if code in yearly_load_totals
    )
