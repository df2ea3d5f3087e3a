"""Residual-load analytics.

Residual load is hourly load minus the generation potential of the
variable renewable fleet. From it we derive peak residual hours,
positive residual events (consecutive spans whose cumulative residual
stays above zero), cross-country capacity factors in peak hours, and
the peak-coincidence comparison that motivates pooling storage power
across interconnected countries.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .model import GridFactorError, PowerSystemSpec
from .serialize import write_csv


class ResidualError(GridFactorError):
    pass


@dataclass(frozen=True)
class ResidualSeries:
    country: str
    values: np.ndarray  # MWh/h, load minus VRE potential

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size == 0:
            raise ResidualError("residual series must be a non-empty vector")


@dataclass(frozen=True)
class ResidualEvent:
    """Consecutive hours whose cumulative residual stays above zero."""

    country: str
    start: int
    end: int  # inclusive
    peak_cumulative: float  # MWh, maximum running sum within the event
    gross_positive: float  # MWh, sum of positive residuals within the event

    def __post_init__(self):
        if self.start > self.end:
            raise ResidualError("event start after end")
        if self.peak_cumulative <= 0:
            raise ResidualError("event peak cumulative must be positive")


def capacities_from_result(spec: PowerSystemSpec, lp, result) -> dict[tuple[str, str], float]:
    """Installed VRE power per (country, technology) from an optimal solve."""
    vre_ids = {t.id for t in spec.techs_of_kind("variable-renewable")}
    return {
        (code, tid): value
        for (family, code, tid), value in lp.capacities(result.primal).items()
        if family == "cap_power" and tid in vre_ids
    }


def residual_series(
    spec: PowerSystemSpec,
    capacities: Mapping[tuple[str, str], float],
) -> list[ResidualSeries]:
    """One residual series per country: load minus VRE generation potential."""
    vre = spec.techs_of_kind("variable-renewable")
    out = []
    for country in spec.countries:
        code = country.code
        r = np.asarray(spec.time_series.load[code], dtype=float).copy()
        for tech in vre:
            key = (code, tech.id)
            if key not in capacities:
                raise ResidualError(f"missing capacity entry for {code}/{tech.id}")
            cf = spec.time_series.capacity_factors.get(key)
            if cf is None:
                continue
            r -= np.asarray(cf, dtype=float) * capacities[key]
        out.append(ResidualSeries(country=code, values=r))
    return out


def peak_residual_hour(series: ResidualSeries) -> tuple[int, float]:
    """Hour of the largest residual; ties break to the earliest hour."""
    hour = int(np.argmax(series.values))
    return hour, float(series.values[hour])


def positive_events(series: ResidualSeries) -> list[ResidualEvent]:
    """Scan for events per the cumulative-stays-above-zero rule.

    An event opens at a strictly positive hour. The running sum then
    accumulates both signs; the event closes the hour before the
    cumulative sum would drop to zero or below, or at the series end.
    """
    values = series.values
    events: list[ResidualEvent] = []
    h = 0
    n = values.size
    while h < n:
        if values[h] <= 0:
            h += 1
            continue
        start = h
        cumulative = 0.0
        peak = 0.0
        gross = 0.0
        end = start
        while h < n and cumulative + values[h] > 0:
            cumulative += values[h]
            peak = max(peak, cumulative)
            if values[h] > 0:
                gross += values[h]
            end = h
            h += 1
        events.append(
            ResidualEvent(
                country=series.country,
                start=start,
                end=end,
                peak_cumulative=peak,
                gross_positive=gross,
            )
        )
    return events


def peak_hour_cross_section(
    spec: PowerSystemSpec,
    capacities: Mapping[tuple[str, str], float],
) -> list[dict]:
    """Other countries' VRE capacity factors and relative load at each peak hour.

    Relative load is the other country's load in the peak hour divided
    by its own maximum hourly load, so values always lie in [0, 1].
    """
    if len(spec.countries) < 2:
        raise ResidualError("cross sections need at least two countries")
    vre = spec.techs_of_kind("variable-renewable")
    series = residual_series(spec, capacities)
    rows = []
    for s in series:
        hour, value = peak_residual_hour(s)
        for other in spec.countries:
            if other.code == s.country:
                continue
            row = {
                "country": s.country,
                "peak_hour": hour,
                "peak_residual_mwh": value,
                "other_country": other.code,
            }
            for tech in vre:
                cf = spec.time_series.capacity_factors.get((other.code, tech.id))
                row[f"cf_{tech.id}"] = float(cf[hour]) if cf is not None else ""
            load = np.asarray(spec.time_series.load[other.code], dtype=float)
            row["relative_load"] = float(load[hour] / load.max())
            rows.append(row)
    return rows


def peak_coincidence(series: Sequence[ResidualSeries]) -> tuple[float, float]:
    """(sum of per-country peaks, system-wide peak of the summed residual)."""
    if not series:
        raise ResidualError("peak coincidence needs at least one series")
    sum_of_peaks = float(sum(s.values.max() for s in series))
    stacked = np.sum([s.values for s in series], axis=0)
    system_peak = float(stacked.max())
    return sum_of_peaks, system_peak


def write_events_csv(
    series: Sequence[ResidualSeries],
    path: str | Path,
    exclude: Sequence[str] = (),
) -> None:
    """Event table; ``exclude`` drops countries (large reservoirs, say)."""
    header = ["country", "start_hour", "end_hour", "peak_cumulative_mwh", "gross_positive_mwh"]
    # the sums are NumPy scalars; ``csv`` writes a Python float as its ``repr``
    rows = (
        (e.country, e.start, e.end, float(e.peak_cumulative), float(e.gross_positive))
        for s in series
        if s.country not in exclude
        for e in positive_events(s)
    )
    write_csv(path, header, rows)


def write_cross_section_csv(rows: list[dict], path: str | Path) -> None:
    """``peak_hour_cross_section`` rows under a header of the first row's keys."""
    if not rows:
        raise ResidualError("no cross-section rows to write")
    header = list(rows[0])
    write_csv(path, header, ([row[key] for key in header] for row in rows))
