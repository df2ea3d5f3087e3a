"""Translate a PowerSystemSpec into a standard-form linear program.

Variables (all per country ``n``, technology ``g``, hour ``h`` unless
noted): generation ``G``, storage charge/discharge/level, reservoir
outflow/spill/level, installed capacities ``N`` (power, charge,
discharge, energy), and one signed flow per interconnector-hour bounded
by +/- NTC. Column and row ordering is deterministic (sorted by entity
id, then hour) so repeated builds are bit-identical.

Every hourly family of one (country, technology) occupies a contiguous
column slice and every constraint family of one country or (country,
technology) a contiguous row block, so the matrix is emitted as
coordinate arrays per block rather than row by row. The maps of column
slices and row blocks are the LP's only layout: column names and
metadata are derived from the column map on demand, and rows carry no
names.

A capacity that the spec fixes (legacy capacity, an offshore override,
offshore wind where it may not be built) writes no capacity rows: its
hourly columns get the upper bound ``avail * v`` instead, which a
started HiGHS solve, skipping presolve, would otherwise pivot through
as rows. The matrix stores no explicit zero and no entry below 1e-12.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .model import (
    HOURS_PER_YEAR,
    KIND_CAPACITIES,
    GridFactorError,
    PowerSystemSpec,
    Technology,
    annuity,
)

# scipy.sparse is imported in ``assemble``, so that ``import gridfactor``
# and the commands that build no LP load no scipy module
if TYPE_CHECKING:
    import scipy.sparse as sp

INF = float("inf")
# a matrix entry below this is noise, not a coefficient: ``assemble`` stores
# none (explicit zeros from zero capacity factors, products near 1e-16)
_TINY_COEFF = 1e-12


class BuildError(GridFactorError):
    """Raised when a spec cannot be translated into an LP."""


# Column-name prefix of each family: ``G[AA,wind,0]``, ``N[AA,wind]``, ``F[AA-AB,0]``.
_PREFIX = {
    "gen": "G",
    "cap_power": "N",
    "sto_in": "STOin",
    "sto_out": "STOout",
    "sto_level": "LVL",
    "cap_charge": "NPIN",
    "cap_discharge": "NPOUT",
    "cap_energy": "NE",
    "rsv_out": "RSVout",
    "rsv_spill": "SPILL",
    "rsv_level": "RLVL",
    "flow": "F",
}

# The hourly column families of each technology kind, in column order,
# each with its sign in the country's balance row (0: not in it); its
# capacity families follow them (``model.KIND_CAPACITIES``).
_GENERATOR = (("gen", 1.0),)
_HOURLY = {
    "dispatchable": _GENERATOR,
    "variable-renewable": _GENERATOR,
    "run-of-river": _GENERATOR,
    "storage": (("sto_in", -1.0), ("sto_out", 1.0), ("sto_level", 0.0)),
    "reservoir": (("rsv_out", 1.0), ("rsv_spill", 0.0), ("rsv_level", 0.0)),
}


@dataclass(eq=False)
class LinearProgram:
    """Minimization LP: ``A x (relations) rhs``, ``lb <= x <= ub``, cost ``c``.

    ``blocks`` maps ``(family, country, tech)`` or ``("flow", line)`` to its
    column slice, in column order, and ``row_blocks`` maps
    ``("balance", country)`` or ``(family, country, tech)`` to its row
    slice, in row order. They are the LP's only layout: column names and
    metadata are derived from ``blocks``. Both are empty for an LP not
    built by ``assemble``, which therefore has no column labels.
    """

    A: sp.csr_matrix
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    relations: np.ndarray
    rhs: np.ndarray
    blocks: dict[tuple, slice] = field(default_factory=dict)
    row_blocks: dict[tuple, slice] = field(default_factory=dict)

    @property
    def n_cols(self) -> int:
        return self.A.shape[1]

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def col_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for key, block in self.blocks.items():
            head = _name_head(key)
            if key[0].startswith("cap_"):
                names.append(f"{head}]")
            else:
                names.extend(f"{head},{h}]" for h in range(block.stop - block.start))
        return tuple(names)


def _name_head(key: tuple) -> str:
    """A block's column names up to the hour: ``G[AA,wind`` of ``G[AA,wind,0]``."""
    return f"{_PREFIX[key[0]]}[{','.join(key[1:])}"


def write_solution_csv(path, lp: LinearProgram, primal) -> None:
    """One CSV row per column: name, metadata fields and value.

    Metadata fills ``family, country, technology, hour`` in order, so a
    flow's line sits under ``country`` and its hour under ``technology``.
    The bytes are those of ``csv.writer``. The values' ``repr`` and the
    hours' strings are taken once; each hourly block's lines are
    formatted from its fixed parts in one list and written at once.
    A ``csv.writer`` version (as ``serialize.write_csv``) writes the same
    bytes in 3-5 times the time: seed-7 f_123456, medians of 15 calls on
    2 vCPU, 2x168 2.3-3.3 ms against 9.9-12.0 ms (about 0.5 s of CPU
    time more over a 64-state sweep), 3x720 23-26 ms against 107-111 ms.
    Formatting each value in the loop, and writing a generator's join,
    took 3.0 against 2.3 ms at 2x168 and 18 against 13 ms at 3x720.
    """
    reprs = list(map(repr, np.asarray(primal, dtype=float).tolist()))
    sizes = [block.stop - block.start for block in lp.blocks.values()]
    hours = [str(h) for h in range(max(sizes, default=0))]
    with open(path, "w", newline="") as fh:
        fh.write("column,family,country,technology,hour,value\r\n")
        if sum(sizes) != len(reprs):
            raise ValueError(f"{len(reprs)} values for {sum(sizes)} labelled columns")
        for key, block in lp.blocks.items():
            head = _name_head(key)
            if key[0].startswith("cap_"):
                fh.write(f"{_csv_fields([f'{head}]', *key, ''])},{reprs[block.start]}\r\n")
                continue
            # the name holds a comma, so csv quotes it and doubles its quotes
            name = '"' + head.replace('"', '""') + ","
            fields = f']",{_csv_fields(key)},'
            tail = ",," if key[0] == "flow" else ","
            lines = [
                f"{name}{h}{fields}{h}{tail}{v}\r\n"
                for h, v in zip(hours, reprs[block.start : block.stop])
            ]
            fh.write("".join(lines))


def _csv_fields(fields) -> str:
    """``fields`` joined as one ``csv.writer`` row, without its line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


@dataclass(frozen=True)
class BuildReport:
    """Variable/constraint counts by family for one assembled LP."""

    horizon: int
    interconnection_enabled: bool
    columns_by_family: dict[str, int]
    rows_by_family: dict[str, int]


def portfolio(spec: PowerSystemSpec) -> list[tuple[str, Technology]]:
    """The (country, technology) pairs that get columns, in column order.

    For given countries, technologies, lines and horizon, the portfolio
    and the interconnection switch fix the LP's columns and rows.
    """
    codes = sorted(c.code for c in spec.countries)
    techs = sorted(spec.technologies, key=lambda t: t.id)
    return [(code, tech) for code in codes for tech in techs if spec.in_portfolio(code, tech)]


def _capacity(
    spec: PowerSystemSpec, code: str, tech: Technology, family: str, exogenous: str, overnight: str
) -> tuple[float, float, float]:
    """Bounds and objective coefficient of one capacity column.

    Legacy capacity is fixed at its ``exogenous`` field and costs nothing,
    being sunk. Expandable capacity costs its annualized investment plus
    fixed cost, per kW or kWh while capacities are MW or MWh (hence the
    factor 1000), scaled by horizon/8760 so sub-year instances stay
    economically consistent. Expandable offshore power is fixed at the
    country's override, if any, and at zero where it may not be built.
    """
    if not tech.expandable:
        v = getattr(spec.exogenous_capacity(code, tech.id), exogenous)
        return v, v, 0.0
    fixed, what = {
        "cap_power": (tech.fixed_cost, "technology"),
        "cap_charge": (0.0, "storage"),
        "cap_discharge": (tech.fixed_cost, "storage"),
        "cap_energy": (0.0, "storage"),
    }[family]
    investment = getattr(tech, overnight)
    if investment <= 0:
        raise BuildError(f"expandable {what} {tech.id}: missing {overnight}")
    year_scale = spec.time_series.horizon / HOURS_PER_YEAR
    cost = (annuity(investment, tech.lifetime, spec.annuity_rate) + fixed) * 1000.0 * year_scale
    if tech.offshore:
        override = spec.offshore_override(code)
        if override is not None:
            return override, override, cost
        if not spec.country(code).offshore_eligible:
            return 0.0, 0.0, cost
    return 0.0, INF, cost


def _family_counts(blocks: dict[tuple, slice]) -> dict[str, int]:
    """Columns or rows per family, families in order of first appearance."""
    counts: dict[str, int] = {}
    for key, block in blocks.items():
        counts[key[0]] = counts.get(key[0], 0) + block.stop - block.start
    return counts


class _Columns:
    """Column layout: an hourly family is one slice, a capacity one column."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.n = 0
        self.blocks: dict[tuple, slice] = {}  # (family, country, tech) or ("flow", line)
        # (lb, ub, cost) per block key; ``ub`` may hold one bound per column
        self.values: dict[tuple, tuple] = {}
        self.present: list[tuple[str, Technology]] = []  # (country, tech) in column order

    def add(self, key: tuple, n: int, lo: float = 0.0, up: float = INF, cost: float = 0.0):
        """Reserve the next ``n`` columns for block ``key``, each with these bounds and cost."""
        self.blocks[key] = slice(self.n, self.n + n)
        self.n += n
        self.values[key] = (lo, up, cost)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per column: lower bound, upper bound, cost."""
        lb, ub, c = np.empty(self.n), np.empty(self.n), np.empty(self.n)
        for key, block in self.blocks.items():
            lb[block], ub[block], c[block] = self.values[key]
        return lb, ub, c

    def hours(self, key: tuple) -> np.ndarray:
        """Column indices of an hourly slice, hour 0 first."""
        block = self.blocks[key]
        return np.arange(block.start, block.stop)


class _Rows:
    """Row blocks of ``horizon`` rows each, plus their coordinate triples."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.n = 0
        self.blocks: dict[tuple, slice] = {}  # ("balance", country) or (family, country, tech)
        self.relations: list[np.ndarray] = []
        self.rhs: list[np.ndarray] = []
        self.ri: list[np.ndarray] = []
        self.ci: list[np.ndarray] = []
        self.data: list[np.ndarray] = []

    def block(self, key: tuple, relation: str, terms, rhs=0.0) -> None:
        """One row per hour; ``terms`` are (column, coefficient) pairs over hours.

        ``key`` names the block, its family first. A column, coefficient
        or ``rhs`` may be a scalar (the same for every hour) or a
        length-``horizon`` array.
        """
        first = self.n
        self.n += self.horizon
        self.blocks[key] = slice(first, self.n)
        cols = np.empty((len(terms), self.horizon), dtype=np.int64)
        coeffs = np.empty((len(terms), self.horizon))
        for t, (col, coeff) in enumerate(terms):
            cols[t], coeffs[t] = col, coeff
        self.ri.append(np.tile(np.arange(first, self.n), len(terms)))
        self.ci.append(cols.ravel())
        self.data.append(coeffs.ravel())
        values = np.empty(self.horizon)
        values[:] = rhs
        self.rhs.append(values)
        self.relations.append(np.full(self.horizon, relation))


def _layout(spec: PowerSystemSpec) -> _Columns:
    """The columns with their bounds and objective coefficients.

    An hourly column in a balance row costs the technology's marginal cost.
    """
    cols = _Columns(spec.time_series.horizon)
    cols.present = portfolio(spec)
    for code, tech in cols.present:
        if tech.kind not in _HOURLY:  # pragma: no cover - kinds validated upstream
            raise BuildError(f"unsupported technology kind {tech.kind!r}")
        if tech.kind == "reservoir" and code not in spec.time_series.reservoir_inflow:
            raise BuildError(f"missing inflow series for reservoir {tech.id} in {code}")
        for family, sign in _HOURLY[tech.kind]:
            cost = tech.marginal_cost if sign else 0.0
            cols.add((family, code, tech.id), cols.horizon, cost=cost)
        for family, *fields in KIND_CAPACITIES[tech.kind]:
            cols.add((family, code, tech.id), 1, *_capacity(spec, code, tech, family, *fields))

    if spec.interconnection_enabled:
        for line in sorted(spec.interconnectors, key=lambda l: (l.from_country, l.to_country)):
            tag = f"{line.from_country}-{line.to_country}"
            cols.add(("flow", tag), cols.horizon, -line.ntc, line.ntc)
    return cols


def _balance_rows(spec: PowerSystemSpec, cols: _Columns, rows: _Rows, codes) -> None:
    """One equality per (country, hour): demand + charging = supply + net flows.

    Flow incidence: +1 in the line's from-country row, -1 in its
    to-country row; flow columns are absent entirely when
    interconnection is disabled.
    """
    terms: dict[str, list] = {code: [] for code in codes}
    for code, tech in cols.present:
        for family, sign in _HOURLY[tech.kind]:
            if sign:
                terms[code].append((cols.hours((family, code, tech.id)), sign))
    if spec.interconnection_enabled:
        for line in spec.interconnectors:
            flows = cols.hours(("flow", f"{line.from_country}-{line.to_country}"))
            terms[line.from_country].append((flows, 1.0))
            terms[line.to_country].append((flows, -1.0))
    for code in codes:
        rows.block(("balance", code), "=", terms[code], spec.time_series.load[code])


def _technology_rows(spec: PowerSystemSpec, cols: _Columns, rows: _Rows) -> None:
    """Capacity coupling, storage and reservoir balances.

    Curtailment is the implicit slack of ``G <= cf * N``. Run-of-river
    availability is the inflow profile (capacity-factor series if
    provided, else 1) times the technology's efficiency.
    """
    ts = spec.time_series
    for code, tech in cols.present:
        key = (code, tech.id)
        if tech.kind == "storage":
            flows = [
                ("sto_in", -tech.efficiency_in, "cap_charge"),
                ("sto_out", 1.0 / tech.efficiency_out, "cap_discharge"),
            ]
            _level_rows(cols, rows, "sto", key, tech, flows, 0.0)
        elif tech.kind == "reservoir":
            flows = [
                ("rsv_out", 1.0 / tech.efficiency_out, "cap_discharge"),
                ("rsv_spill", 1.0, None),
            ]
            _level_rows(cols, rows, "rsv", key, tech, flows, ts.reservoir_inflow[code])
        else:
            if tech.kind == "dispatchable":
                avail = 1.0
            elif tech.kind == "variable-renewable":
                avail = np.asarray(ts.capacity_factors[key], dtype=float)
            else:
                profile = ts.capacity_factors.get(key)
                avail = tech.efficiency_out * (
                    np.asarray(profile, dtype=float) if profile is not None else 1.0
                )
            _capacity_row(cols, rows, key, "gen_cap", "gen", "cap_power", avail)


def _level_rows(cols: _Columns, rows: _Rows, prefix: str, key: tuple, tech, flows, inflow):
    """Rows of a level: storage and reservoirs share its balance and bounds.

    The level ``<prefix>_level`` follows ``L_h = retention * L_{h-1} +
    inflow_h - sum(a * F_h)``, with cyclic closure (hour 0 wraps to the
    last hour), in row block ``<prefix>_balance``. ``flows`` holds
    ``(F, a, capacity)`` per flow family ``F``. Row block
    ``<prefix>_level_cap`` bounds the level by ``cap_energy``, then
    ``<prefix>_<x>_cap`` bounds each flow whose capacity is ``cap_<x>``.
    """
    level = cols.hours((f"{prefix}_level", *key))
    rows.block(
        (f"{prefix}_balance", *key),
        "=",
        [(level, 1.0), (np.roll(level, 1), -tech.self_discharge_retention)]
        + [(cols.hours((flow, *key)), a) for flow, a, _ in flows],
        inflow,
    )
    _capacity_row(cols, rows, key, f"{prefix}_level_cap", f"{prefix}_level", "cap_energy")
    for flow, _, capacity in flows:
        if capacity is not None:
            _capacity_row(cols, rows, key, f"{prefix}_{capacity[4:]}_cap", flow, capacity)


def _capacity_row(cols: _Columns, rows: _Rows, key: tuple, family, hourly, capacity, avail=1.0):
    """``hourly <= avail * capacity``, column families of ``key``.

    An expandable capacity gets row block ``(family, *key)``. A capacity
    that ``_capacity`` fixes at ``v`` gets no rows: the hourly columns'
    upper bounds become ``avail * v`` instead, the bound such a row
    states, which HiGHS's presolve would find but a started solve, which
    skips presolve, would pivot through.
    """
    lo, up, _ = cols.values[(capacity, *key)]
    if lo == up:
        hourly_lo, _, cost = cols.values[(hourly, *key)]
        cols.values[(hourly, *key)] = (hourly_lo, avail * up, cost)
        return
    cap = cols.blocks[(capacity, *key)].start
    rows.block((family, *key), "<", [(cols.hours((hourly, *key)), 1.0), (cap, -avail)])


def assemble(spec: PowerSystemSpec) -> tuple[LinearProgram, BuildReport]:
    """Build the full LP plus a count report; deterministic for a given spec."""
    import scipy.sparse as sp

    codes = sorted(c.code for c in spec.countries)
    cols = _layout(spec)
    rows = _Rows(cols.horizon)
    _balance_rows(spec, cols, rows, codes)
    _technology_rows(spec, cols, rows)

    A = sp.csr_matrix(
        (np.concatenate(rows.data), (np.concatenate(rows.ri), np.concatenate(rows.ci))),
        shape=(rows.n, cols.n),
        dtype=float,
    )
    # after duplicates are summed, so a coefficient that sums to zero goes too
    A.data[np.abs(A.data) < _TINY_COEFF] = 0.0
    A.eliminate_zeros()
    lb, ub, c = cols.arrays()
    lp = LinearProgram(
        A=A,
        c=c,
        lb=lb,
        ub=ub,
        relations=np.concatenate(rows.relations),
        rhs=np.concatenate(rows.rhs),
        blocks=cols.blocks,
        row_blocks=rows.blocks,
    )
    report = BuildReport(
        horizon=cols.horizon,
        interconnection_enabled=spec.interconnection_enabled,
        columns_by_family=_family_counts(lp.blocks),
        rows_by_family=_family_counts(lp.row_blocks),
    )
    return lp, report


def lp_digest(lp: LinearProgram) -> str:
    """SHA-256 of the LP's numbers: shape, CSR arrays, costs, bounds, rows.

    The block maps are left out; two LPs with equal digests are the same
    optimization problem in the same column and row order.
    """
    h = hashlib.sha256()
    A = lp.A
    h.update(np.asarray(A.shape, dtype="<i8").tobytes())
    for ints in (A.indptr, A.indices):
        h.update(np.ascontiguousarray(ints, dtype="<i8").tobytes())
    for floats in (A.data, lp.c, lp.lb, lp.ub, lp.rhs):
        h.update(np.ascontiguousarray(floats, dtype="<f8").tobytes())
    # one byte per relation, its code point: the bytes of a cast to "S1", without
    # numpy's per-element string conversion
    code_points = np.ascontiguousarray(lp.relations, dtype="U1").view(np.uint32)
    h.update(code_points.astype(np.uint8).tobytes())
    return h.hexdigest()
