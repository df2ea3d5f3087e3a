"""Independent brute-force oracles used by the test suite.

Deliberately written without reference to the package internals so they
can disagree with the implementation under test. The row-by-row LP
builder shares only the result containers (``LinearProgram``,
``BuildReport``) and the model's annuity formula with the package; the
factorization oracles read tables through ``MetricTable.value`` only.
The reference simplex, which HiGHS's results are checked against, hands
back the package's ``SolveResult`` through ``simplex_lp``; the MPS
reader reads what ``write_mps`` writes back into a ``LinearProgram``.
``independent_blocks`` finds an LP's blocks with scipy's graph library,
which the package does not load.
"""

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from gridfactor.factorize import FactorizeError, MetricTable
from gridfactor.lp import INF, BuildError, BuildReport, LinearProgram
from gridfactor.model import HOURS_PER_YEAR, PowerSystemSpec, Technology, annuity
from gridfactor.mps import MpsError
from gridfactor.solve import SolveResult

FEAS_TOL = 1e-7
# a coefficient below this is noise that no assembled LP stores
TINY_COEFF = 1e-12


def brute_force_lp_minimum(c, A, relations, b, lb, ub):
    """Global minimum of a box-bounded LP by vertex enumeration.

    Requires all bounds finite. Returns None when no feasible vertex
    exists (for box-bounded LPs that means infeasible).
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    m, n = A.shape
    eq_rows = [i for i in range(m) if relations[i] == "="]
    ineq_rows = [i for i in range(m) if relations[i] != "="]

    le_mask = np.asarray([r == "<" for r in relations])
    ge_mask = np.asarray([r == ">" for r in relations])
    eq_mask = np.asarray([r == "=" for r in relations])

    best = None
    for extra in range(len(ineq_rows) + 1):
        for act in itertools.combinations(ineq_rows, extra):
            rows = eq_rows + list(act)
            k = len(rows)
            if k > n:
                continue
            for free in itertools.combinations(range(n), k):
                others = [j for j in range(n) if j not in free]
                if others:
                    combos = np.array(
                        list(itertools.product(*[(lb[j], ub[j]) for j in others]))
                    ).T  # (n-k, batch)
                else:
                    combos = np.zeros((0, 1))
                batch = combos.shape[1]
                X = np.empty((n, batch))
                X[others, :] = combos
                if k:
                    M = A[np.ix_(rows, list(free))]
                    rhs = b[rows][:, None] - A[np.ix_(rows, others)] @ combos
                    try:
                        X[list(free), :] = np.linalg.solve(M, rhs)
                    except np.linalg.LinAlgError:
                        continue
                ok = np.all(X >= lb[:, None] - FEAS_TOL, axis=0)
                ok &= np.all(X <= ub[:, None] + FEAS_TOL, axis=0)
                AX = A @ X
                if le_mask.any():
                    ok &= np.all(AX[le_mask] <= b[le_mask][:, None] + FEAS_TOL, axis=0)
                if ge_mask.any():
                    ok &= np.all(AX[ge_mask] >= b[ge_mask][:, None] - FEAS_TOL, axis=0)
                if eq_mask.any():
                    ok &= np.all(
                        np.abs(AX[eq_mask] - b[eq_mask][:, None]) <= FEAS_TOL, axis=0
                    )
                if ok.any():
                    v = float((c @ X)[ok].min())
                    best = v if best is None else min(best, v)
    return best


def random_box_lp(rng, max_cols=12, max_rows=3):
    """A random dense LP with finite bounds; occasionally infeasible."""
    n = int(rng.integers(2, max_cols + 1))
    m = int(rng.integers(1, max_rows + 1))
    A = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) > 0.3)
    c = rng.normal(size=n)
    lb = -rng.random(size=n) * 5.0
    ub = rng.random(size=n) * 5.0 + 0.5
    relations = rng.choice(["<", ">", "="], size=m, p=[0.45, 0.4, 0.15]).tolist()
    b = rng.normal(size=m) * 2.0
    return c, A, relations, b, lb, ub


def brute_positive_events(values):
    """Independent event scanner: (start, end, peak cumulative, gross positive)."""
    values = list(values)
    events = []
    i = 0
    while i < len(values):
        if values[i] <= 0:
            i += 1
            continue
        start = i
        running = 0.0
        peak = 0.0
        gross = 0.0
        end = start
        j = i
        while j < len(values):
            if running + values[j] <= 0:
                break
            running += values[j]
            peak = max(peak, running)
            gross += max(values[j], 0.0)
            end = j
            j += 1
        events.append((start, end, peak, gross))
        i = end + 1
    return events


# --------------------------------------------------------------------------
# Factorization by direct inclusion-exclusion sums, one subset at a time.


def interaction_term(table: MetricTable, subset) -> float:
    """Alternating inclusion-exclusion sum over all sub-states of ``subset``."""
    subset = frozenset(subset)
    if not subset <= set(table.factors):
        raise FactorizeError(f"subset {sorted(subset)} outside table factors")
    members = sorted(subset)
    k = len(members)
    total = 0.0
    for mask in range(1 << k):
        sub = frozenset(members[i] for i in range(k) if mask >> i & 1)
        sign = -1.0 if (k - len(sub)) % 2 else 1.0
        total += sign * table.value(sub)
    return total


def factor_total(table: MetricTable, j: int) -> float:
    """Symmetric equal-share total for one factor: sum of f-hat_S / |S| over S containing j.

    In a two-factor table this reduces to the closed form
    ((f_1 - f_0) + (f_12 - f_2)) / 2 for factor 1.
    """
    if j not in table.factors:
        raise FactorizeError(f"factor {j} not in table")
    rest = [f for f in table.factors if f != j]
    contributions = []
    for size in range(len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            subset = frozenset({j, *combo})
            contributions.append((len(subset), interaction_term(table, subset) / len(subset)))
    contributions.sort(key=lambda kv: (-kv[0], kv[1]))
    return float(sum(v for _, v in contributions))


# --------------------------------------------------------------------------
# Row-by-row LP assembly: the reference for gridfactor.lp.assemble.


@dataclass(frozen=True)
class Row:
    """One constraint row: sparse coefficients, relation, right-hand side."""

    name: str
    coeffs: tuple[tuple[int, float], ...]  # (column index, value)
    relation: str  # one of "<", "=", ">"
    rhs: float
    meta: tuple


class VariableSpace:
    """Deterministic column registry for one spec."""

    def __init__(self, spec: PowerSystemSpec):
        self.spec = spec
        self.names: list[str] = []
        self.meta: list[tuple] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.index: dict[tuple, int] = {}
        self._build()

    def _add(self, name: str, meta: tuple, lb: float, ub: float) -> None:
        self.index[meta] = len(self.names)
        self.names.append(name)
        self.meta.append(meta)
        self.lb.append(lb)
        self.ub.append(ub)

    def idx(self, *meta) -> int:
        return self.index[meta]

    def present(self, code: str, tech: Technology) -> bool:
        """Whether a technology exists in a country's portfolio.

        Expandable technologies are always present; non-expandable ones
        only where an exogenous capacity entry carries nonzero values.
        """
        if tech.expandable:
            return True
        e = self.spec.exogenous_capacity(code, tech.id)
        return e.power_discharge > 0 or e.power_charge > 0 or e.energy > 0

    def _power_bounds(self, code: str, tech: Technology) -> tuple[float, float]:
        spec = self.spec
        if not tech.expandable:
            v = spec.exogenous_capacity(code, tech.id).power_discharge
            return v, v
        if tech.offshore:
            override = spec.offshore_override(code)
            if override is not None:
                return override, override
            if not spec.country(code).offshore_eligible:
                return 0.0, 0.0
        return 0.0, INF

    def _build(self) -> None:
        spec = self.spec
        horizon = spec.time_series.horizon
        codes = sorted(c.code for c in spec.countries)
        techs = sorted(spec.technologies, key=lambda t: t.id)

        for code in codes:
            for tech in techs:
                if not self.present(code, tech):
                    continue
                tid = tech.id
                if tech.kind in ("dispatchable", "variable-renewable", "run-of-river"):
                    for h in range(horizon):
                        self._add(f"G[{code},{tid},{h}]", ("gen", code, tid, h), 0.0, INF)
                    plo, pup = self._power_bounds(code, tech)
                    self._add(f"N[{code},{tid}]", ("cap_power", code, tid, None), plo, pup)
                elif tech.kind == "storage":
                    for h in range(horizon):
                        self._add(f"STOin[{code},{tid},{h}]", ("sto_in", code, tid, h), 0.0, INF)
                    for h in range(horizon):
                        self._add(f"STOout[{code},{tid},{h}]", ("sto_out", code, tid, h), 0.0, INF)
                    for h in range(horizon):
                        self._add(f"LVL[{code},{tid},{h}]", ("sto_level", code, tid, h), 0.0, INF)
                    if tech.expandable:
                        bounds = {"cap_charge": (0.0, INF), "cap_discharge": (0.0, INF), "cap_energy": (0.0, INF)}
                    else:
                        e = spec.exogenous_capacity(code, tid)
                        bounds = {
                            "cap_charge": (e.power_charge, e.power_charge),
                            "cap_discharge": (e.power_discharge, e.power_discharge),
                            "cap_energy": (e.energy, e.energy),
                        }
                    self._add(f"NPIN[{code},{tid}]", ("cap_charge", code, tid, None), *bounds["cap_charge"])
                    self._add(f"NPOUT[{code},{tid}]", ("cap_discharge", code, tid, None), *bounds["cap_discharge"])
                    self._add(f"NE[{code},{tid}]", ("cap_energy", code, tid, None), *bounds["cap_energy"])
                elif tech.kind == "reservoir":
                    if code not in spec.time_series.reservoir_inflow:
                        raise BuildError(
                            f"missing inflow series for reservoir {tid} in {code}"
                        )
                    for h in range(horizon):
                        self._add(f"RSVout[{code},{tid},{h}]", ("rsv_out", code, tid, h), 0.0, INF)
                    for h in range(horizon):
                        self._add(f"SPILL[{code},{tid},{h}]", ("rsv_spill", code, tid, h), 0.0, INF)
                    for h in range(horizon):
                        self._add(f"RLVL[{code},{tid},{h}]", ("rsv_level", code, tid, h), 0.0, INF)
                    e = spec.exogenous_capacity(code, tid)
                    plo, pup = (0.0, INF) if tech.expandable else (e.power_discharge, e.power_discharge)
                    elo, eup = (0.0, INF) if tech.expandable else (e.energy, e.energy)
                    self._add(f"NPOUT[{code},{tid}]", ("cap_discharge", code, tid, None), plo, pup)
                    self._add(f"NE[{code},{tid}]", ("cap_energy", code, tid, None), elo, eup)
                else:  # pragma: no cover - kinds validated upstream
                    raise BuildError(f"unsupported technology kind {tech.kind!r}")

        if spec.interconnection_enabled:
            for line in sorted(spec.interconnectors, key=lambda l: (l.from_country, l.to_country)):
                tag = f"{line.from_country}-{line.to_country}"
                for h in range(horizon):
                    self._add(f"F[{tag},{h}]", ("flow", tag, h), -line.ntc, line.ntc)


def build_objective(spec: PowerSystemSpec, space: VariableSpace | None = None) -> np.ndarray:
    """Objective coefficients: marginal costs plus annualized investment.

    Investment annuities and fixed costs apply to expandable capacity
    only (legacy capacity is sunk) and are scaled by horizon/8760 so
    sub-year instances stay economically consistent. Overnight costs are
    per kW / kWh while capacities are MW / MWh, hence the factor 1000.
    """
    space = space or VariableSpace(spec)
    c = np.zeros(len(space.names))
    horizon = spec.time_series.horizon
    year_scale = horizon / HOURS_PER_YEAR
    rate = spec.annuity_rate

    techs = {t.id: t for t in spec.technologies}
    for meta, j in space.index.items():
        family = meta[0]
        if family == "flow":
            continue
        code, tid = meta[1], meta[2]
        tech = techs[tid]
        if family in ("gen", "rsv_out"):
            c[j] = tech.marginal_cost
        elif family in ("sto_in", "sto_out"):
            c[j] = tech.marginal_cost
        elif not tech.expandable:
            continue
        elif family == "cap_power":
            cost = tech.overnight_cost_power
            if cost <= 0:
                raise BuildError(f"expandable technology {tid}: missing overnight_cost_power")
            c[j] = (annuity(cost, tech.lifetime, rate) + tech.fixed_cost) * 1000.0 * year_scale
        elif family == "cap_charge":
            if tech.overnight_cost_charge <= 0:
                raise BuildError(f"expandable storage {tid}: missing overnight_cost_charge")
            c[j] = annuity(tech.overnight_cost_charge, tech.lifetime, rate) * 1000.0 * year_scale
        elif family == "cap_discharge":
            if tech.overnight_cost_discharge <= 0:
                raise BuildError(f"expandable storage {tid}: missing overnight_cost_discharge")
            c[j] = (
                annuity(tech.overnight_cost_discharge, tech.lifetime, rate) + tech.fixed_cost
            ) * 1000.0 * year_scale
        elif family == "cap_energy":
            if tech.overnight_cost_energy <= 0:
                raise BuildError(f"expandable storage {tid}: missing overnight_cost_energy")
            c[j] = annuity(tech.overnight_cost_energy, tech.lifetime, rate) * 1000.0 * year_scale
    return c


def build_energy_balance(spec: PowerSystemSpec, space: VariableSpace | None = None) -> list[Row]:
    """One equality per (country, hour): demand + charging = supply + net flows.

    Flow incidence: +1 in the line's from-country row, -1 in its
    to-country row; flow columns are absent entirely when
    interconnection is disabled.
    """
    space = space or VariableSpace(spec)
    horizon = spec.time_series.horizon
    codes = sorted(c.code for c in spec.countries)
    techs = sorted(spec.technologies, key=lambda t: t.id)

    incidence: dict[str, list[tuple[str, float]]] = {code: [] for code in codes}
    if spec.interconnection_enabled:
        for line in spec.interconnectors:
            tag = f"{line.from_country}-{line.to_country}"
            incidence[line.from_country].append((tag, 1.0))
            incidence[line.to_country].append((tag, -1.0))

    rows: list[Row] = []
    for code in codes:
        load = spec.time_series.load[code]
        present = [t for t in techs if space.present(code, t)]
        for h in range(horizon):
            coeffs: list[tuple[int, float]] = []
            for tech in present:
                if tech.kind in ("dispatchable", "variable-renewable", "run-of-river"):
                    coeffs.append((space.idx("gen", code, tech.id, h), 1.0))
                elif tech.kind == "storage":
                    coeffs.append((space.idx("sto_out", code, tech.id, h), 1.0))
                    coeffs.append((space.idx("sto_in", code, tech.id, h), -1.0))
                elif tech.kind == "reservoir":
                    coeffs.append((space.idx("rsv_out", code, tech.id, h), 1.0))
            for tag, sign in incidence[code]:
                coeffs.append((space.idx("flow", tag, h), sign))
            rows.append(
                Row(
                    name=f"bal[{code},{h}]",
                    coeffs=tuple(coeffs),
                    relation="=",
                    rhs=float(load[h]),
                    meta=("balance", code, h),
                )
            )
    return rows


def build_capacity_and_storage_constraints(
    spec: PowerSystemSpec, space: VariableSpace | None = None
) -> list[Row]:
    """Capacity coupling, storage and reservoir balances.

    Storage levels follow ``L_h = retention * L_{h-1} + eta_in * in_h -
    out_h / eta_out`` with cyclic closure (hour 0 wraps to the last
    hour). Curtailment is the implicit slack of ``G <= cf * N``.
    Run-of-river availability is the inflow profile (capacity-factor
    series if provided, else 1) times the technology's efficiency. A
    fixed capacity writes the upper bounds of ``space``'s hourly columns
    instead of capacity rows (``_capacity_rows``).
    """
    space = space or VariableSpace(spec)
    ts = spec.time_series
    horizon = ts.horizon
    rows: list[Row] = []

    for code in sorted(c.code for c in spec.countries):
        for tech in sorted(spec.technologies, key=lambda t: t.id):
            if not space.present(code, tech):
                continue
            tid = tech.id
            if tech.kind in ("dispatchable", "variable-renewable", "run-of-river"):
                n_j = space.idx("cap_power", code, tid, None)
                for h in range(horizon):
                    if tech.kind == "dispatchable":
                        avail = 1.0
                    elif tech.kind == "variable-renewable":
                        avail = float(ts.capacity_factors[(code, tid)][h])
                    else:
                        profile = ts.capacity_factors.get((code, tid))
                        avail = tech.efficiency_out * (
                            float(profile[h]) if profile is not None else 1.0
                        )
                    rows.extend(
                        _capacity_rows(
                            space,
                            f"gcap[{code},{tid},{h}]",
                            ("gen_cap", code, tid, h),
                            space.idx("gen", code, tid, h),
                            n_j,
                            avail,
                        )
                    )
            elif tech.kind == "storage":
                rows.extend(_storage_rows(space, code, tech, horizon))
            elif tech.kind == "reservoir":
                rows.extend(_reservoir_rows(spec, space, code, tech, horizon))
    return rows


def _capacity_rows(
    space: VariableSpace, name: str, meta: tuple, j: int, cap_j: int, avail: float = 1.0
) -> list[Row]:
    """``x_j <= avail * N`` for capacity column ``N``: one row.

    Where ``N`` is fixed at ``v`` (lower bound equal to upper), no row:
    the bound ``x_j <= avail * v`` goes into ``space.ub[j]`` instead.
    """
    v = space.lb[cap_j]
    if v == space.ub[cap_j]:
        space.ub[j] = avail * v
        return []
    return [Row(name=name, coeffs=((j, 1.0), (cap_j, -avail)), relation="<", rhs=0.0, meta=meta)]


def _storage_rows(space: VariableSpace, code: str, tech: Technology, horizon: int) -> Iterator[Row]:
    tid = tech.id
    ne = space.idx("cap_energy", code, tid, None)
    npin = space.idx("cap_charge", code, tid, None)
    npout = space.idx("cap_discharge", code, tid, None)
    for h in range(horizon):
        prev = (h - 1) % horizon
        yield Row(
            name=f"slvl[{code},{tid},{h}]",
            coeffs=(
                (space.idx("sto_level", code, tid, h), 1.0),
                (space.idx("sto_level", code, tid, prev), -tech.self_discharge_retention),
                (space.idx("sto_in", code, tid, h), -tech.efficiency_in),
                (space.idx("sto_out", code, tid, h), 1.0 / tech.efficiency_out),
            ),
            relation="=",
            rhs=0.0,
            meta=("sto_balance", code, tid, h),
        )
    for h in range(horizon):
        yield from _capacity_rows(
            space,
            f"secap[{code},{tid},{h}]",
            ("sto_level_cap", code, tid, h),
            space.idx("sto_level", code, tid, h),
            ne,
        )
    for h in range(horizon):
        yield from _capacity_rows(
            space,
            f"sincap[{code},{tid},{h}]",
            ("sto_charge_cap", code, tid, h),
            space.idx("sto_in", code, tid, h),
            npin,
        )
    for h in range(horizon):
        yield from _capacity_rows(
            space,
            f"soutcap[{code},{tid},{h}]",
            ("sto_discharge_cap", code, tid, h),
            space.idx("sto_out", code, tid, h),
            npout,
        )


def _reservoir_rows(
    spec: PowerSystemSpec, space: VariableSpace, code: str, tech: Technology, horizon: int
) -> Iterator[Row]:
    tid = tech.id
    inflow = spec.time_series.reservoir_inflow[code]
    ne = space.idx("cap_energy", code, tid, None)
    npout = space.idx("cap_discharge", code, tid, None)
    for h in range(horizon):
        prev = (h - 1) % horizon
        yield Row(
            name=f"rlvl[{code},{tid},{h}]",
            coeffs=(
                (space.idx("rsv_level", code, tid, h), 1.0),
                (space.idx("rsv_level", code, tid, prev), -tech.self_discharge_retention),
                (space.idx("rsv_out", code, tid, h), 1.0 / tech.efficiency_out),
                (space.idx("rsv_spill", code, tid, h), 1.0),
            ),
            relation="=",
            rhs=float(inflow[h]),
            meta=("rsv_balance", code, tid, h),
        )
    for h in range(horizon):
        yield from _capacity_rows(
            space,
            f"recap[{code},{tid},{h}]",
            ("rsv_level_cap", code, tid, h),
            space.idx("rsv_level", code, tid, h),
            ne,
        )
    for h in range(horizon):
        yield from _capacity_rows(
            space,
            f"routcap[{code},{tid},{h}]",
            ("rsv_discharge_cap", code, tid, h),
            space.idx("rsv_out", code, tid, h),
            npout,
        )


@dataclass(frozen=True)
class Labels:
    """Names and metadata of every column and row, in order."""

    col_names: tuple[str, ...]
    col_meta: tuple[tuple, ...]
    row_names: tuple[str, ...]
    row_meta: tuple[tuple, ...]


def row_assemble(spec: PowerSystemSpec) -> tuple[LinearProgram, BuildReport, Labels]:
    """The row-by-row LP builder that ``gridfactor.lp.assemble`` replaced.

    One Python ``Row`` per constraint and one registry lookup per
    coefficient: slow, but each coefficient is written down once, next
    to its row, so it serves as a reference for the array assembly.
    The labels it writes down beside each column and row are returned
    next to the LP, whose block map is empty. A capacity row whose
    capacity column is fixed becomes a bound on its hourly column
    (``_capacity_rows``).
    """
    space = VariableSpace(spec)
    c = build_objective(spec, space)
    rows = build_energy_balance(spec, space)
    rows += build_capacity_and_storage_constraints(spec, space)

    data, ri, ci = [], [], []
    for i, row in enumerate(rows):
        # one column's coefficients in a row add up; a sum that is noise is not stored
        summed: dict[int, float] = {}
        for j, v in row.coeffs:
            summed[j] = summed.get(j, 0.0) + v
        for j, v in summed.items():
            if abs(v) >= TINY_COEFF:
                ri.append(i)
                ci.append(j)
                data.append(v)
    A = sp.csr_matrix(
        (data, (ri, ci)), shape=(len(rows), len(space.names)), dtype=float
    )
    lp = LinearProgram(
        A=A,
        c=c,
        lb=np.asarray(space.lb),
        ub=np.asarray(space.ub),
        relations=np.asarray([r.relation for r in rows]),
        rhs=np.asarray([r.rhs for r in rows]),
    )
    labels = Labels(
        col_names=tuple(space.names),
        col_meta=tuple(space.meta),
        row_names=tuple(r.name for r in rows),
        row_meta=tuple(r.meta for r in rows),
    )

    col_fams: dict[str, int] = {}
    for meta in space.meta:
        col_fams[meta[0]] = col_fams.get(meta[0], 0) + 1
    row_fams: dict[str, int] = {}
    for row in rows:
        row_fams[row.meta[0]] = row_fams.get(row.meta[0], 0) + 1
    report = BuildReport(
        horizon=spec.time_series.horizon,
        interconnection_enabled=spec.interconnection_enabled,
        columns_by_family=col_fams,
        rows_by_family=row_fams,
    )
    return lp, report, labels


# --------------------------------------------------------------------------
# Column lookups by scanning every column's metadata, as ``row_assemble``
# labels it: the references for lookups through ``LinearProgram.blocks``.


def scan_storage_metrics(spec: PowerSystemSpec, col_meta, primal):
    """Storage energy and discharge capacity sums by duration class: (total, per country)."""
    names = (
        "short_duration_energy_mwh",
        "long_duration_energy_mwh",
        "short_duration_discharge_mw",
        "long_duration_discharge_mw",
    )
    agg = {name: 0.0 for name in names}
    by_country = {c.code: {name: 0.0 for name in names} for c in spec.countries}
    class_by_tech = {t.id: t.duration_class for t in spec.technologies if t.duration_class}
    for j, meta in enumerate(col_meta):
        family = meta[0]
        if family not in ("cap_energy", "cap_discharge"):
            continue
        code, tid = meta[1], meta[2]
        cls = class_by_tech.get(tid)
        if cls is None:
            continue
        kind = "energy_mwh" if family == "cap_energy" else "discharge_mw"
        key = f"{cls}_duration_{kind}"
        value = float(primal[j])
        agg[key] += value
        by_country[code][key] += value
    return agg, by_country


def scan_capacities(spec: PowerSystemSpec, col_meta, primal) -> dict:
    """Installed variable-renewable power per (country, technology)."""
    caps = {}
    vre_ids = {t.id for t in spec.technologies if t.kind == "variable-renewable"}
    for j, meta in enumerate(col_meta):
        if meta[0] == "cap_power" and meta[2] in vre_ids:
            caps[(meta[1], meta[2])] = float(primal[j])
    return caps


# --------------------------------------------------------------------------
# Solution CSV through ``csv.writer``, one row per column: the byte
# reference for ``lp.write_solution_csv``.


def csv_write_solution(path, labels: Labels | None, primal) -> None:
    """One row per column of ``labels``, as ``row_assemble`` labels them.

    ``labels`` is None for an LP without column labels, such as one read
    from MPS: the header is written, then ``ValueError`` raised.
    """
    names, metas = (labels.col_names, labels.col_meta) if labels else ((), ())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["column", "family", "country", "technology", "hour", "value"])
        values = np.asarray(primal, dtype=float).tolist()
        for name, meta, value in zip(names, metas, values, strict=True):
            fields = ["" if f is None else f for f in (meta + (None,))[:4]]
            writer.writerow([name, *fields, repr(value)])


# --------------------------------------------------------------------------
# Reference simplex: a dense bounded-variable revised simplex, two-phase
# with artificial variables; Dantzig pricing with a Bland's-rule fallback
# after a degeneracy streak, lowest-column-index tie-breaks throughout, so
# repeated solves of the same LP are identical. Desk-scale LPs only.

AT_LB, AT_UB, FREE, BASIC = 0, 1, 2, 3

_DEGENERACY_STREAK_LIMIT = 50


@dataclass
class SimplexOutcome:
    status: str  # optimal | infeasible | unbounded | iteration-limit
    x: np.ndarray  # values of the structural columns
    y: np.ndarray  # row duals, dZ/db convention
    objective: float
    iterations: int


def simplex_solve(
    A: np.ndarray,
    relations: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    iteration_limit: int = 50_000,
    tol: float = 1e-9,
) -> SimplexOutcome:
    """Minimize c'x subject to A x (<=, =, >=) b and lb <= x <= ub."""
    m, n = A.shape
    slack_rows = [i for i in range(m) if relations[i] != "="]
    n_slack = len(slack_rows)

    # Equality form: structural columns, one slack per inequality row,
    # one artificial per row.
    total = n + n_slack + m
    Af = np.zeros((m, total))
    Af[:, :n] = A
    lo = np.concatenate([lb, np.zeros(n_slack), np.zeros(m)])
    hi = np.concatenate([ub, np.full(n_slack, np.inf), np.full(m, np.inf)])
    for k, i in enumerate(slack_rows):
        Af[i, n + k] = 1.0 if relations[i] == "<" else -1.0

    # Nonbasic start at the finite bound nearest zero.
    x = np.zeros(total)
    status = np.full(total, FREE, dtype=int)
    for j in range(n + n_slack):
        if np.isfinite(lo[j]):
            x[j], status[j] = lo[j], AT_LB
        elif np.isfinite(hi[j]):
            x[j], status[j] = hi[j], AT_UB

    resid = b - Af[:, : n + n_slack] @ x[: n + n_slack]
    art0 = n + n_slack
    for i in range(m):
        j = art0 + i
        Af[i, j] = 1.0 if resid[i] >= 0 else -1.0
        x[j] = abs(resid[i])
        status[j] = BASIC
    basis = list(range(art0, art0 + m))

    phase1_cost = np.zeros(total)
    phase1_cost[art0:] = 1.0
    state = _State(Af, b, lo, hi, x, status, basis, tol)

    iters1, st = _iterate(state, phase1_cost, iteration_limit)
    if st == "iteration-limit":
        return SimplexOutcome("iteration-limit", x[:n].copy(), np.zeros(m), float("nan"), iters1)
    state.recompute_basics()
    scale = 1.0 + float(np.abs(b).sum())
    if phase1_cost @ state.x > 1e-7 * scale:
        return SimplexOutcome("infeasible", x[:n].copy(), np.zeros(m), float("nan"), iters1)

    # Pin artificials to zero for phase 2.
    state.hi[art0:] = 0.0
    for j in range(art0, art0 + m):
        if state.status[j] != BASIC:
            state.status[j] = AT_LB
            state.x[j] = 0.0

    phase2_cost = np.concatenate([c, np.zeros(n_slack + m)])
    iters2, st = _iterate(state, phase2_cost, iteration_limit - iters1)
    iterations = iters1 + iters2
    state.recompute_basics()
    xs = state.x[:n].copy()
    if st == "unbounded":
        return SimplexOutcome("unbounded", xs, np.zeros(m), float("-inf"), iterations)
    if st == "iteration-limit":
        return SimplexOutcome("iteration-limit", xs, np.zeros(m), float(c @ xs), iterations)
    y = state.duals(phase2_cost)
    return SimplexOutcome("optimal", xs, y, float(c @ xs), iterations)


class _State:
    def __init__(self, A, b, lo, hi, x, status, basis, tol):
        self.A = A
        self.b = b
        self.lo = lo
        self.hi = hi
        self.x = x
        self.status = status
        self.basis = basis
        self.tol = tol
        self._factor = None

    def refactor(self):
        B = self.A[:, self.basis]
        self._factor = la.lu_factor(B)

    def btran(self, v):
        return la.lu_solve(self._factor, v, trans=1)

    def ftran(self, v):
        return la.lu_solve(self._factor, v)

    def duals(self, cost):
        self.refactor()
        return self.btran(cost[self.basis])

    def recompute_basics(self):
        """Re-solve basic values against the exact RHS to shed drift."""
        nonbasic = np.ones(self.A.shape[1], dtype=bool)
        nonbasic[self.basis] = False
        rhs = self.b - self.A[:, nonbasic] @ self.x[nonbasic]
        self.refactor()
        self.x[self.basis] = self.ftran(rhs)


def _iterate(state: _State, cost: np.ndarray, max_iters: int) -> tuple[int, str]:
    A, lo, hi, x, status = state.A, state.lo, state.hi, state.x, state.status
    tol = state.tol
    m = A.shape[0]
    degen_streak = 0
    iters = 0

    while True:
        if iters >= max_iters:
            return iters, "iteration-limit"
        state.refactor()
        y = state.btran(cost[state.basis])
        d = cost - y @ A  # reduced costs

        use_bland = degen_streak > _DEGENERACY_STREAK_LIMIT
        entering, direction = _select_entering(d, status, tol, use_bland)
        if entering is None:
            return iters, "optimal"

        w = state.ftran(A[:, entering])
        # Basic variable i changes at rate -direction * w[i] per unit step.
        best_limit = np.inf
        leaving_pos = -1
        hits_lower = True
        for pos in range(m):
            jb = state.basis[pos]
            rate = direction * w[pos]
            if rate > tol:
                limit = (x[jb] - lo[jb]) / rate
                hit_low = True
            elif rate < -tol:
                limit = (x[jb] - hi[jb]) / rate
                hit_low = False
            else:
                continue
            limit = max(limit, 0.0)
            if limit < best_limit - tol or (
                limit < best_limit + tol
                and (leaving_pos < 0 or jb < state.basis[leaving_pos])
            ):
                best_limit = limit
                leaving_pos = pos
                hits_lower = hit_low

        own_range = hi[entering] - lo[entering]
        bound_flip = np.isfinite(own_range) and own_range < best_limit - tol
        if bound_flip:
            step = own_range
        elif leaving_pos < 0:
            return iters, "unbounded"
        else:
            step = best_limit

        x[entering] += direction * step
        for pos in range(m):
            x[state.basis[pos]] -= direction * step * w[pos]

        if bound_flip:
            status[entering] = AT_UB if status[entering] == AT_LB else AT_LB
        else:
            jb = state.basis[leaving_pos]
            if lo[jb] == hi[jb] or hits_lower:
                status[jb] = AT_LB
                x[jb] = lo[jb]
            else:
                status[jb] = AT_UB
                x[jb] = hi[jb]
            state.basis[leaving_pos] = entering
            status[entering] = BASIC

        degen_streak = degen_streak + 1 if step <= tol else 0
        iters += 1


def _select_entering(
    d: np.ndarray, status: np.ndarray, tol: float, bland: bool
) -> tuple[int | None, float]:
    eligible_lb = (status == AT_LB) & (d < -tol)
    eligible_ub = (status == AT_UB) & (d > tol)
    eligible_fr = (status == FREE) & (np.abs(d) > tol)
    eligible = eligible_lb | eligible_ub | eligible_fr
    idx = np.nonzero(eligible)[0]
    if idx.size == 0:
        return None, 0.0
    if bland:
        j = int(idx[0])
    else:
        j = int(idx[np.argmax(np.abs(d[idx]))])
    direction = 1.0 if d[j] < 0 else -1.0
    return j, direction


def simplex_lp(lp: LinearProgram, iteration_limit: int = 100_000) -> SolveResult:
    """``lp`` solved by the reference simplex, as a ``SolveResult``."""
    outcome = simplex_solve(
        lp.A.toarray(),
        lp.relations,
        lp.rhs,
        lp.c,
        lp.lb,
        lp.ub,
        iteration_limit=iteration_limit,
    )
    return SolveResult(
        status=outcome.status,
        objective=outcome.objective,
        primal=outcome.x,
        dual=outcome.y,
        iterations=outcome.iterations,
    )


def independent_blocks(lp: LinearProgram) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column indices of each independent block, by ``connected_components``.

    The blocks are the weakly connected components of the directed graph
    with an edge from row i to column j for each stored entry of ``A``,
    ordered by their lowest node (rows first, then columns). A row without
    entries, or a column in no row, joins the first block. Empty when the
    LP is one block.
    """
    A = lp.A
    m, n = A.shape
    # rows are nodes 0..m-1, columns nodes m..m+n-1 with no edges of their own
    indptr = np.concatenate([A.indptr, np.full(n, A.indptr[-1], dtype=A.indptr.dtype)])
    graph = sp.csr_matrix((A.data, A.indices + m, indptr), shape=(m + n, m + n))
    count, labels = connected_components(graph, directed=True, connection="weak")
    whole = (np.bincount(labels[:m], minlength=count) > 0) & (
        np.bincount(labels[m:], minlength=count) > 0
    )
    blocks = np.flatnonzero(whole)
    if blocks.size < 2:
        return []
    labels = np.where(whole[labels], labels, blocks[0])
    return [(np.flatnonzero(labels[:m] == b), np.flatnonzero(labels[m:] == b)) for b in blocks]


# --------------------------------------------------------------------------
# MPS reader, the inverse of ``gridfactor.mps.write_mps``. Fields are split
# on whitespace, so it reads fixed and free MPS whose names hold no blanks.
# An LP read back has an empty block map and so no column labels.

_KIND_TO_RELATION = {"L": "<", "G": ">", "E": "="}


def read_mps(source: str | Path) -> LinearProgram:
    """Parse an MPS file (as written by :func:`write_mps` or compatible)."""
    text = Path(source).read_text() if isinstance(source, Path) else source
    if isinstance(source, str) and "\n" not in source:
        text = Path(source).read_text()

    section = None
    obj_row: str | None = None
    row_kinds: dict[str, str] = {}
    row_order: list[str] = []
    row_index: dict[str, int] = {}
    col_order: list[str] = []
    col_index: dict[str, int] = {}
    entries: list[tuple[int, int, float]] = []
    obj_coeffs: dict[int, float] = {}
    rhs: dict[str, float] = {}
    bounds: dict[int, list[float]] = {}

    def col_id(colname: str) -> int:
        if colname not in col_index:
            col_index[colname] = len(col_order)
            col_order.append(colname)
            bounds[col_index[colname]] = [0.0, np.inf]
        return col_index[colname]

    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if not raw[0].isspace():
            parts = raw.split()
            section = parts[0].upper()
            if section == "ENDATA":
                break
            continue
        parts = raw.split()
        if section == "ROWS":
            kind, rowname = parts[0].upper(), parts[1]
            if kind == "N":
                if obj_row is None:
                    obj_row = rowname
                continue
            if kind not in _KIND_TO_RELATION:
                raise MpsError(f"unsupported row kind {kind!r}")
            row_kinds[rowname] = kind
            row_index[rowname] = len(row_order)
            row_order.append(rowname)
        elif section == "COLUMNS":
            colname = parts[0]
            j = col_id(colname)
            for rowname, value in zip(parts[1::2], parts[2::2]):
                if rowname == obj_row:
                    obj_coeffs[j] = float(value)
                elif rowname in row_index:
                    entries.append((row_index[rowname], j, float(value)))
                else:
                    raise MpsError(f"unknown row {rowname!r}")
        elif section == "RHS":
            for rowname, value in zip(parts[1::2], parts[2::2]):
                if rowname != obj_row:
                    rhs[rowname] = float(value)
        elif section == "RANGES":
            raise MpsError("RANGES sections are not supported")
        elif section == "BOUNDS":
            kind = parts[0].upper()
            j = col_id(parts[2])
            value = float(parts[3]) if len(parts) > 3 else 0.0
            if kind == "UP":
                bounds[j][1] = value
            elif kind == "LO":
                bounds[j][0] = value
            elif kind == "FX":
                bounds[j] = [value, value]
            elif kind == "FR":
                bounds[j] = [-np.inf, np.inf]
            elif kind == "MI":
                bounds[j][0] = -np.inf
            elif kind == "PL":
                bounds[j][1] = np.inf
            else:
                raise MpsError(f"unsupported bound kind {kind!r}")

    n_rows, n_cols = len(row_order), len(col_order)
    data = [v for (_, _, v) in entries]
    ri = [i for (i, _, _) in entries]
    ci = [j for (_, j, _) in entries]
    A = sp.csr_matrix((data, (ri, ci)), shape=(n_rows, n_cols), dtype=float)
    c = np.zeros(n_cols)
    for j, v in obj_coeffs.items():
        c[j] = v
    lb = np.array([bounds[j][0] for j in range(n_cols)])
    ub = np.array([bounds[j][1] for j in range(n_cols)])
    return LinearProgram(
        A=A,
        c=c,
        lb=lb,
        ub=ub,
        relations=np.asarray([_KIND_TO_RELATION[row_kinds[r]] for r in row_order]),
        rhs=np.asarray([rhs.get(r, 0.0) for r in row_order]),
    )
