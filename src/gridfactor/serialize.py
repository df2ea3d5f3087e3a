"""System manifest (JSON) and time-series (CSV) serialization.

A system lives in a directory: ``manifest.json`` holds scalars and
entity tables and references one CSV per series family. Each entity
table is a list of one model dataclass's fields (``Country``,
``Technology``, ``Interconnector``, ``ExogenousCapacity``), so the
dataclasses are the only statement of its keys. CSV layout is
``hour,<country>...`` with 0-indexed hours and plain decimal floats;
``nan`` and ``inf`` are refused.
Round-trips are exact: floats are emitted via shortest-repr.

This module owns the ``series`` layout and the manifest digest, which
hashes the manifest and every series file it names.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import MISSING, asdict, fields
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

# entity table (a ``PowerSystemSpec`` field) -> its dataclass and its name in messages
_TABLES = {
    "countries": (Country, "country entry"),
    "technologies": (Technology, "technology entry"),
    "interconnectors": (Interconnector, "interconnector entry"),
    "exogenous_capacities": (ExogenousCapacity, "exogenous capacity entry"),
}
# the spec's fields, with its time series stored as ``horizon`` plus ``series``
_TOP_KEYS = {f.name for f in fields(PowerSystemSpec)} - {"time_series"} | {
    "schema",
    "horizon",
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


class ManifestError(GridFactorError):
    """Raised for malformed manifests or series files."""


def _check_keys(
    obj: Mapping[str, Any], allowed: set[str], required: set[str], where: str
) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ManifestError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ManifestError(f"missing keys in {where}: {sorted(missing)}")


# JSON values accepted for a dataclass field annotation, and their name in messages;
# ``bool`` is an ``int`` subclass, so a number field rejects it explicitly
_JSON_TYPES = {
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "float": ((int, float), "a number"),
    "int": ((int,), "an integer"),
    "bool": ((bool,), "a boolean"),
}


def _check_type(value: Any, annotation: str, where: str) -> None:
    kinds, name = _JSON_TYPES[annotation]
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ManifestError(f"{where} must be {name}, got {value!r}")


def _entities(entries, cls, where: str) -> tuple:
    """``cls`` instances from manifest entries keyed and typed by its fields."""
    annotations = {f.name: f.type for f in fields(cls)}
    required = {
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    }
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ManifestError(f"{where} {i} must be an object, got {entry!r}")
        _check_keys(entry, set(annotations), required, where)
        for key, value in entry.items():
            _check_type(value, annotations[key], f"{where} {i}: {key}")
        out.append(cls(**entry))
    return tuple(out)


def system_doc(spec: PowerSystemSpec) -> dict[str, Any]:
    """Scalars and entity tables of ``spec``: its manifest without schema or series."""
    return {
        "horizon": spec.time_series.horizon,
        "annuity_rate": spec.annuity_rate,
        "interconnection_enabled": spec.interconnection_enabled,
        **{table: [asdict(e) for e in getattr(spec, table)] for table in _TABLES},
        "offshore_overrides": [[code, mw] for code, mw in spec.offshore_overrides],
    }


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
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ManifestError(f"{where}: {len(row)} fields, header has {len(header)}")
            try:
                hour = int(row[0])
            except ValueError:
                raise ManifestError(f"{where}: hour {row[0]!r} is not an integer") from None
            if hour != row_idx:
                raise ManifestError(f"{path}: hours must be 0-indexed and contiguous")
            try:
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise ManifestError(f"{where}: {exc}") from None
            bad = [text for text, v in zip(row[1:], values) if not math.isfinite(v)]
            if bad:
                raise ManifestError(f"{where}: value {bad[0]!r} is not finite")
            data.append(values)
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

    doc = {**system_doc(spec), "schema": SCHEMA, "series": series_entry}
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return manifest_path


def _series_files(manifest_path: Path, series: Mapping[str, Any]) -> list[Path]:
    """Paths of the series files a manifest names, in file-name order."""
    names = [series["load"], *series.get("capacity_factors", {}).values()]
    if "reservoir_inflow" in series:
        names.append(series["reservoir_inflow"])
    return [manifest_path.parent / name for name in sorted(names)]


def _read_manifest(manifest_path: Path) -> tuple[bytes, dict[str, Any]]:
    """Bytes and document of a manifest whose keys check and whose series files exist."""
    raw = manifest_path.read_bytes()
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        raise ManifestError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{manifest_path}: manifest must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ManifestError(f"{manifest_path}: unsupported schema {doc.get('schema')!r}")
    _check_keys(doc, _TOP_KEYS, _TOP_REQUIRED, "manifest")
    _check_keys(doc["series"], _SERIES_KEYS, {"load"}, "series entry")
    missing = [str(p) for p in _series_files(manifest_path, doc["series"]) if not p.is_file()]
    if missing:
        raise ManifestError(f"{manifest_path}: missing series files {missing}")
    return raw, doc


def manifest_digest(manifest_path: str | Path) -> str:
    """SHA-256 of a manifest's bytes, then its series files' bytes in file-name order."""
    manifest_path = Path(manifest_path)
    raw, doc = _read_manifest(manifest_path)
    h = hashlib.sha256(raw)
    for path in _series_files(manifest_path, doc["series"]):
        h.update(path.read_bytes())
    return h.hexdigest()


def read_system(manifest_path: str | Path) -> PowerSystemSpec:
    """Read a system from its manifest; unknown keys are rejected."""
    manifest_path = Path(manifest_path)
    directory = manifest_path.parent
    _, doc = _read_manifest(manifest_path)
    _check_type(doc["horizon"], "int", "horizon")
    _check_type(doc["annuity_rate"], "float", "annuity_rate")
    _check_type(doc["interconnection_enabled"], "bool", "interconnection_enabled")
    horizon = doc["horizon"]
    tables = {
        table: _entities(doc.get(table, []), cls, where)
        for table, (cls, where) in _TABLES.items()
    }

    series = doc["series"]
    load = read_series_csv(directory / series["load"], horizon)
    inflow: dict[str, np.ndarray] = {}
    if "reservoir_inflow" in series:
        inflow = read_series_csv(directory / series["reservoir_inflow"], horizon)
    cf: dict[tuple[str, str], np.ndarray] = {}
    for tech, fname in series.get("capacity_factors", {}).items():
        for code, arr in read_series_csv(directory / fname, horizon).items():
            cf[(code, tech)] = arr

    return PowerSystemSpec(
        **tables,
        time_series=TimeSeriesSet(
            horizon=horizon, capacity_factors=cf, load=load, reservoir_inflow=inflow
        ),
        interconnection_enabled=doc["interconnection_enabled"],
        annuity_rate=float(doc["annuity_rate"]),
        offshore_overrides=tuple(
            (code, float(mw)) for code, mw in doc.get("offshore_overrides", [])
        ),
    )
