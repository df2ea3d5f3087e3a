"""System manifest (JSON) and time-series (CSV) serialization.

A system lives in a directory: ``manifest.json`` holds scalars and
entity tables and references one CSV per series family. CSV layout is
``hour,<country>...`` with 0-indexed hours and plain decimal floats.
Round-trips are exact: floats are emitted via shortest-repr.
"""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .model import (
    Country,
    ExogenousCapacity,
    GridFactorError,
    Interconnector,
    PowerSystemSpec,
    Technology,
    TimeSeriesSet,
)

SCHEMA = "gridfactor-system/1"


class ManifestError(GridFactorError):
    """Raised for malformed manifests or series files."""


_COUNTRY_KEYS = {"code", "yearly_load_total", "offshore_eligible"}
_TECH_KEYS = {
    "id",
    "kind",
    "marginal_cost",
    "overnight_cost_power",
    "overnight_cost_energy",
    "overnight_cost_charge",
    "overnight_cost_discharge",
    "fixed_cost",
    "lifetime",
    "efficiency_in",
    "efficiency_out",
    "self_discharge_retention",
    "expandable",
    "offshore",
    "factor_group",
    "duration_class",
}
_LINE_KEYS = {"from_country", "to_country", "ntc"}
_EXO_KEYS = {"country", "technology", "power_discharge", "power_charge", "energy"}
_TOP_KEYS = {
    "schema",
    "horizon",
    "annuity_rate",
    "interconnection_enabled",
    "countries",
    "technologies",
    "interconnectors",
    "exogenous_capacities",
    "offshore_overrides",
    "series",
}
_TOP_REQUIRED = {
    "horizon",
    "annuity_rate",
    "interconnection_enabled",
    "countries",
    "technologies",
    "series",
}
_SERIES_KEYS = {"load", "reservoir_inflow", "capacity_factors"}


def _required(cls) -> set[str]:
    """Fields of a dataclass that have no default."""
    return {
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    }


def _check_keys(
    obj: Mapping[str, Any], allowed: set[str], required: set[str], where: str
) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ManifestError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ManifestError(f"missing keys in {where}: {sorted(missing)}")


def write_series_csv(path: Path, series: Mapping[str, np.ndarray], horizon: int) -> None:
    columns = sorted(series)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hour", *columns])
        for h in range(horizon):
            writer.writerow([h] + [repr(float(series[c][h])) for c in columns])


def read_series_csv(path: Path, horizon: int) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "hour":
            raise ManifestError(f"{path}: first column must be 'hour'")
        columns = header[1:]
        data: list[list[float]] = []
        for row_idx, row in enumerate(reader):
            if int(row[0]) != row_idx:
                raise ManifestError(f"{path}: hours must be 0-indexed and contiguous")
            data.append([float(v) for v in row[1:]])
    if len(data) != horizon:
        raise ManifestError(f"{path}: expected {horizon} rows, found {len(data)}")
    arr = np.asarray(data)
    return {c: arr[:, j].copy() for j, c in enumerate(columns)}


def write_system(spec: PowerSystemSpec, directory: str | Path) -> Path:
    """Write ``spec`` to ``directory`` and return the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ts = spec.time_series

    series_entry: dict[str, Any] = {"load": "load.csv", "capacity_factors": {}}
    write_series_csv(directory / "load.csv", ts.load, ts.horizon)
    if ts.reservoir_inflow:
        series_entry["reservoir_inflow"] = "reservoir_inflow.csv"
        write_series_csv(directory / "reservoir_inflow.csv", ts.reservoir_inflow, ts.horizon)
    tech_ids = sorted({tech for (_, tech) in ts.capacity_factors})
    for tech in tech_ids:
        per_country = {
            code: arr for (code, t), arr in ts.capacity_factors.items() if t == tech
        }
        fname = f"cf_{tech}.csv"
        series_entry["capacity_factors"][tech] = fname
        write_series_csv(directory / fname, per_country, ts.horizon)

    doc = {
        "schema": SCHEMA,
        "horizon": ts.horizon,
        "annuity_rate": spec.annuity_rate,
        "interconnection_enabled": spec.interconnection_enabled,
        "countries": [
            {
                "code": c.code,
                "yearly_load_total": c.yearly_load_total,
                "offshore_eligible": c.offshore_eligible,
            }
            for c in spec.countries
        ],
        "technologies": [
            {k: getattr(t, k) for k in sorted(_TECH_KEYS)} for t in spec.technologies
        ],
        "interconnectors": [
            {"from_country": l.from_country, "to_country": l.to_country, "ntc": l.ntc}
            for l in spec.interconnectors
        ],
        "exogenous_capacities": [
            {k: getattr(e, k) for k in sorted(_EXO_KEYS)}
            for e in spec.exogenous_capacities
        ],
        "offshore_overrides": [[code, mw] for code, mw in spec.offshore_overrides],
        "series": series_entry,
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return manifest_path


def read_system(manifest_path: str | Path) -> PowerSystemSpec:
    """Read a system from its manifest; unknown keys are rejected."""
    manifest_path = Path(manifest_path)
    directory = manifest_path.parent
    try:
        doc = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{manifest_path}: manifest must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ManifestError(f"{manifest_path}: unsupported schema {doc.get('schema')!r}")
    _check_keys(doc, _TOP_KEYS, _TOP_REQUIRED, "manifest")

    horizon = int(doc["horizon"])
    countries = []
    for entry in doc["countries"]:
        _check_keys(entry, _COUNTRY_KEYS, _required(Country), "country entry")
        countries.append(Country(**entry))
    technologies = []
    for entry in doc["technologies"]:
        _check_keys(entry, _TECH_KEYS, _required(Technology), "technology entry")
        technologies.append(Technology(**entry))
    lines = []
    for entry in doc.get("interconnectors", []):
        _check_keys(entry, _LINE_KEYS, _required(Interconnector), "interconnector entry")
        lines.append(Interconnector(**entry))
    exogenous = []
    for entry in doc.get("exogenous_capacities", []):
        _check_keys(entry, _EXO_KEYS, _required(ExogenousCapacity), "exogenous capacity entry")
        exogenous.append(ExogenousCapacity(**entry))

    series = doc["series"]
    _check_keys(series, _SERIES_KEYS, {"load"}, "series entry")
    load = read_series_csv(directory / series["load"], horizon)
    inflow: dict[str, np.ndarray] = {}
    if "reservoir_inflow" in series:
        inflow = read_series_csv(directory / series["reservoir_inflow"], horizon)
    cf: dict[tuple[str, str], np.ndarray] = {}
    for tech, fname in series.get("capacity_factors", {}).items():
        for code, arr in read_series_csv(directory / fname, horizon).items():
            cf[(code, tech)] = arr

    return PowerSystemSpec(
        countries=tuple(countries),
        technologies=tuple(technologies),
        time_series=TimeSeriesSet(
            horizon=horizon, capacity_factors=cf, load=load, reservoir_inflow=inflow
        ),
        interconnectors=tuple(lines),
        exogenous_capacities=tuple(exogenous),
        interconnection_enabled=bool(doc["interconnection_enabled"]),
        annuity_rate=float(doc["annuity_rate"]),
        offshore_overrides=tuple(
            (code, float(mw)) for code, mw in doc.get("offshore_overrides", [])
        ),
    )
