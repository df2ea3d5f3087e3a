"""Inclusion-exclusion factor separation and shared-interactions totals.

Scenario metric values live in a complete 2^n table keyed by which
factors are in state B. Interaction terms come from the alternating
inclusion-exclusion sum over sub-states; multi-factor interactions that
involve interconnection are redistributed equally among the
participating non-interconnection factors ("shared interactions"). The
sole interconnection effect is reported as an explicit baseline term so
the decomposition always sums to the difference of interest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .harmonize import FACTOR_NAMES, INTERCONNECTION
from .model import GridFactorError
from .serialize import write_csv, write_json

# Shares are suppressed when INT is negligible against the isolated
# all-native scenario value.
DEGENERATE_INT_RTOL = 1e-6


class FactorizeError(GridFactorError):
    pass


@dataclass(frozen=True)
class MetricTable:
    """Complete map from factor subsets (state B members) to metric values."""

    metric: str
    factors: tuple[int, ...]
    values: Mapping[frozenset[int], float]

    def __post_init__(self):
        expected = 1 << len(self.factors)
        if len(self.values) != expected:
            raise FactorizeError(
                f"table for {self.metric!r} has {len(self.values)} entries, "
                f"expected {expected}"
            )
        for subset, value in self.values.items():
            if not subset <= set(self.factors):
                raise FactorizeError(f"subset {sorted(subset)} outside factors")
            if not np.isfinite(value):
                raise FactorizeError(f"non-finite value for subset {sorted(subset)}")

    def value(self, subset: frozenset[int] | set[int]) -> float:
        key = frozenset(subset)
        if key not in self.values:
            raise FactorizeError(f"missing state for subset {sorted(key)}")
        return self.values[key]


def all_interaction_terms(table: MetricTable) -> dict[frozenset[int], float]:
    """Every interaction term at once via an in-place Moebius transform."""
    factors = table.factors
    n = len(factors)
    arr = np.empty(1 << n)
    for mask in range(1 << n):
        arr[mask] = table.value(
            frozenset(factors[i] for i in range(n) if mask >> i & 1)
        )
    for bit in range(n):
        step = 1 << bit
        for mask in range(1 << n):
            if mask & step:
                arr[mask] -= arr[mask ^ step]
    return {
        frozenset(factors[i] for i in range(n) if mask >> i & 1): float(arr[mask])
        for mask in range(1, 1 << n)
    }


def difference_of_interest(table: MetricTable) -> float:
    """Metric change from enabling interconnection in the all-native scenario."""
    if INTERCONNECTION not in table.factors:
        raise FactorizeError("table does not vary the interconnection factor")
    full = frozenset(table.factors)
    return table.value(full) - table.value(full - {INTERCONNECTION})


@dataclass(frozen=True)
class FactorDecomposition:
    """Shared-interactions attribution of one metric's difference of interest."""

    metric: str
    factors: tuple[int, ...]
    terms: Mapping[frozenset[int], float]
    baseline: float  # sole interconnection effect
    totals: Mapping[int, float]  # factor number -> attributed total
    int_value: float
    shares: Mapping[int, float] | None  # None when INT is degenerate
    degenerate: bool

    def identity_residual(self) -> float:
        """|baseline + sum of totals - INT| relative to |INT|."""
        total = self.baseline + sum(self.totals.values())
        return abs(total - self.int_value) / (1.0 + abs(self.int_value))


def shared_interactions_totals(table: MetricTable) -> FactorDecomposition:
    """Distribute every interconnection interaction equally among its factors.

    The total for factor j collects every interaction term containing
    both interconnection and j, weighted by one over the number of
    non-interconnection factors involved; coefficients are summed in
    descending subset-size order for reproducibility.
    """
    terms = all_interaction_terms(table)
    int_value = difference_of_interest(table)
    others = tuple(f for f in table.factors if f != INTERCONNECTION)

    totals: dict[int, float] = {}
    for j in others:
        contributions = [
            (len(s) - 1, v / (len(s) - 1))
            for s, v in terms.items()
            if INTERCONNECTION in s and j in s
        ]
        contributions.sort(key=lambda kv: (-kv[0], kv[1]))
        totals[j] = float(sum(v for _, v in contributions))

    baseline = terms[frozenset({INTERCONNECTION})]
    isolated = table.value(frozenset(table.factors) - {INTERCONNECTION})
    degenerate = abs(int_value) < DEGENERATE_INT_RTOL * max(abs(isolated), 1e-30)
    shares = None if degenerate else {j: totals[j] / int_value for j in others}
    return FactorDecomposition(
        metric=table.metric,
        factors=table.factors,
        terms=terms,
        baseline=baseline,
        totals=totals,
        int_value=int_value,
        shares=shares,
        degenerate=degenerate,
    )


STORAGE_METRICS = (
    "short_duration_energy_mwh",
    "long_duration_energy_mwh",
    "short_duration_discharge_mw",
    "long_duration_discharge_mw",
)


def extract_storage_metrics(spec, lp, result):
    """Optimal storage capacities by duration class: ``(aggregate, by_country)``.

    Sums installed energy and discharging power of short- and
    long-duration storage technologies, over all countries and per country.
    """
    agg = {name: 0.0 for name in STORAGE_METRICS}
    by_country: dict[str, dict[str, float]] = {
        c.code: {name: 0.0 for name in STORAGE_METRICS} for c in spec.countries
    }
    class_by_tech = {
        t.id: t.duration_class for t in spec.technologies if t.duration_class
    }
    for (family, code, tid), value in lp.capacities(result.primal).items():
        cls = class_by_tech.get(tid)
        if family not in ("cap_energy", "cap_discharge") or cls is None:
            continue
        kind = "energy_mwh" if family == "cap_energy" else "discharge_mw"
        key = f"{cls}_duration_{kind}"
        agg[key] += value
        by_country[code][key] += value
    return agg, by_country


# the columns of ``decomposition.csv``, one row per ``decomposition_rows`` item
_COLUMNS = ("metric", "term", "subset", "value", "share")


def _digits(subset) -> str:
    """A factor subset as its ascending digits: ``{3, 1}`` -> ``"13"``."""
    return "".join(str(i) for i in sorted(subset))


def _ordered_terms(decomp: FactorDecomposition) -> list[tuple[frozenset[int], float]]:
    """``decomp``'s interaction terms by subset size, then by digits."""
    return sorted(decomp.terms.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


def decomposition_rows(decomp: FactorDecomposition) -> list[dict]:
    """Flat rows for CSV export: INT, baseline, totals, and raw terms."""

    def row(term: str, subset, value: float, share="") -> dict:
        return dict(zip(_COLUMNS, (decomp.metric, term, _digits(subset), value, share)))

    shares = decomp.shares or {}
    return [
        row("INT", (), decomp.int_value),
        row("baseline_interconnection", {INTERCONNECTION}, decomp.baseline),
        *(
            row(f"total_{FACTOR_NAMES[j]}", {INTERCONNECTION, j}, v, shares.get(j, ""))
            for j, v in sorted(decomp.totals.items())
        ),
        *(row("interaction", s, v) for s, v in _ordered_terms(decomp)),
    ]


def write_decompositions(decomps: list[FactorDecomposition], prefix: str | Path) -> None:
    """Write ``decomps`` to ``<prefix>.csv`` (``decomposition_rows``) and ``<prefix>.json``."""
    rows = (row.values() for d in decomps for row in decomposition_rows(d))
    write_csv(f"{prefix}.csv", _COLUMNS, rows)
    doc = [
        {
            "metric": d.metric,
            "factors": list(d.factors),
            "int": d.int_value,
            "baseline_interconnection": d.baseline,
            "totals": {FACTOR_NAMES[j]: v for j, v in sorted(d.totals.items())},
            "shares": None
            if d.shares is None
            else {FACTOR_NAMES[j]: v for j, v in sorted(d.shares.items())},
            "degenerate": d.degenerate,
            "terms": {_digits(s): v for s, v in _ordered_terms(d)},
        }
        for d in decomps
    ]
    write_json(f"{prefix}.json", doc)
