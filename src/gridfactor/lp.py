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
GENERATING = ("dispatchable", "variable-renewable", "run-of-river")


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
    name: str = "GRIDFACT"

    @property
    def n_cols(self) -> int:
        return self.A.shape[1]

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def col_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in _column_labels(self.blocks))

    @property
    def col_meta(self) -> tuple[tuple, ...]:
        """Per column ``(family, country, tech, hour)`` or ``("flow", line, hour)``.

        A capacity column's hour is None.
        """
        return tuple(meta for _, meta in _column_labels(self.blocks))

    def find_columns(self, family: str, country=None, tech=None, line=None) -> list[int]:
        """Column indices of ``family``'s blocks, in column order.

        ``line`` narrows flows; ``country`` and ``tech`` narrow the other
        families. A field left as None matches anything.
        """
        wanted = (line,) if family == "flow" else (country, tech)
        out: list[int] = []
        for (fam, *where), block in self.blocks.items():
            if fam == family and all(w is None or w == v for w, v in zip(wanted, where)):
                out.extend(range(block.start, block.stop))
        return out


def _name_head(key: tuple) -> str:
    """A block's column names up to the hour: ``G[AA,wind`` of ``G[AA,wind,0]``."""
    return f"{_PREFIX[key[0]]}[{','.join(key[1:])}"


def _column_labels(blocks: dict[tuple, slice]):
    """Yield ``(name, metadata)`` of every column, in column order."""
    for key, block in blocks.items():
        head = _name_head(key)
        if key[0].startswith("cap_"):
            yield f"{head}]", (*key, None)
        else:
            for h in range(block.stop - block.start):
                yield f"{head},{h}]", (*key, h)


def write_solution_csv(path, lp: LinearProgram, primal) -> None:
    """One CSV row per column: name, metadata fields and value.

    Metadata fills ``family, country, technology, hour`` in order, so a
    flow's line sits under ``country`` and its hour under ``technology``.
    The bytes are those of ``csv.writer``; each hourly block's lines are
    formatted from its fixed parts and written before the next block's.
    """
    values = np.asarray(primal, dtype=float).tolist()
    with open(path, "w", newline="") as fh:
        fh.write("column,family,country,technology,hour,value\r\n")
        labelled = sum(block.stop - block.start for block in lp.blocks.values())
        if labelled != len(values):
            raise ValueError(f"{len(values)} values for {labelled} labelled columns")
        for key, block in lp.blocks.items():
            head = _name_head(key)
            if key[0].startswith("cap_"):
                fh.write(f"{_csv_fields([f'{head}]', *key, ''])},{values[block.start]!r}\r\n")
                continue
            # the name holds a comma, so csv quotes it and doubles its quotes
            name = '"' + head.replace('"', '""') + ","
            fields = f']",{_csv_fields(key)},'
            tail = ",," if key[0] == "flow" else ","
            fh.write(
                "".join(
                    f"{name}{h}{fields}{h}{tail}{v!r}\r\n"
                    for h, v in enumerate(values[block.start : block.stop])
                )
            )


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

    @property
    def n_columns(self) -> int:
        return sum(self.columns_by_family.values())

    @property
    def n_rows(self) -> int:
        return sum(self.rows_by_family.values())


def _present(spec: PowerSystemSpec, code: str, tech: Technology) -> bool:
    """Whether a technology exists in a country's portfolio.

    Expandable technologies are always present; non-expandable ones
    only where an exogenous capacity entry carries nonzero values.
    """
    if tech.expandable:
        return True
    e = spec.exogenous_capacity(code, tech.id)
    return e.power_discharge > 0 or e.power_charge > 0 or e.energy > 0


def portfolio(spec: PowerSystemSpec) -> list[tuple[str, Technology]]:
    """The (country, technology) pairs that get columns, in column order.

    For given countries, technologies, lines and horizon, the portfolio
    and the interconnection switch fix the LP's columns and rows.
    """
    codes = sorted(c.code for c in spec.countries)
    techs = sorted(spec.technologies, key=lambda t: t.id)
    return [(code, tech) for code in codes for tech in techs if _present(spec, code, tech)]


def _bounds(tech: Technology, exogenous: float) -> tuple[float, float]:
    """Free for expandable technologies, else fixed at the exogenous capacity."""
    return (0.0, INF) if tech.expandable else (exogenous, exogenous)


def _power_bounds(spec: PowerSystemSpec, code: str, tech: Technology) -> tuple[float, float]:
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


class _Registry:
    """Per-family counts of columns or rows, in order."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.n = 0
        self.counts: dict[str, int] = {}

    def _add(self, family: str, n: int) -> int:
        """Reserve the next ``n`` indices for ``family``; return the first."""
        first = self.n
        self.n += n
        self.counts[family] = self.counts.get(family, 0) + n
        return first


class _Columns(_Registry):
    """Column layout: an hourly family is one slice, a capacity one column."""

    def __init__(self, horizon: int):
        super().__init__(horizon)
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.blocks: dict[tuple, slice] = {}  # (family, country, tech) or ("flow", line)
        self.present: list[tuple[str, Technology]] = []  # (country, tech) in column order

    def hourly(self, key: tuple, lo: float = 0.0, up: float = INF) -> None:
        self._block(key, self.horizon, lo, up)

    def capacity(self, key: tuple, lo: float, up: float) -> None:
        self._block(key, 1, lo, up)

    def _block(self, key: tuple, n: int, lo: float, up: float) -> None:
        first = self._add(key[0], n)
        self.blocks[key] = slice(first, self.n)
        self.lb += [lo] * n
        self.ub += [up] * n

    def hours(self, key: tuple) -> np.ndarray:
        """Column indices of an hourly slice, hour 0 first."""
        block = self.blocks[key]
        return np.arange(block.start, block.stop)


class _Rows(_Registry):
    """Row blocks of ``horizon`` rows each, plus their coordinate triples."""

    def __init__(self, horizon: int):
        super().__init__(horizon)
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
        first = self._add(key[0], self.horizon)
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
    cols = _Columns(spec.time_series.horizon)
    cols.present = portfolio(spec)
    for code, tech in cols.present:
        tid = tech.id
        e = spec.exogenous_capacity(code, tid)
        charge, discharge, energy = (
            _bounds(tech, v) for v in (e.power_charge, e.power_discharge, e.energy)
        )
        if tech.kind in GENERATING:
            cols.hourly(("gen", code, tid))
            cols.capacity(("cap_power", code, tid), *_power_bounds(spec, code, tech))
        elif tech.kind == "storage":
            cols.hourly(("sto_in", code, tid))
            cols.hourly(("sto_out", code, tid))
            cols.hourly(("sto_level", code, tid))
            cols.capacity(("cap_charge", code, tid), *charge)
            cols.capacity(("cap_discharge", code, tid), *discharge)
            cols.capacity(("cap_energy", code, tid), *energy)
        elif tech.kind == "reservoir":
            if code not in spec.time_series.reservoir_inflow:
                raise BuildError(f"missing inflow series for reservoir {tid} in {code}")
            cols.hourly(("rsv_out", code, tid))
            cols.hourly(("rsv_spill", code, tid))
            cols.hourly(("rsv_level", code, tid))
            cols.capacity(("cap_discharge", code, tid), *discharge)
            cols.capacity(("cap_energy", code, tid), *energy)
        else:  # pragma: no cover - kinds validated upstream
            raise BuildError(f"unsupported technology kind {tech.kind!r}")

    if spec.interconnection_enabled:
        for line in sorted(spec.interconnectors, key=lambda l: (l.from_country, l.to_country)):
            tag = f"{line.from_country}-{line.to_country}"
            cols.hourly(("flow", tag), -line.ntc, line.ntc)
    return cols


def _capacity_cost(tech: Technology, family: str, rate: float) -> float:
    """Annualized investment (plus fixed cost) per kW or kWh of one capacity family."""
    cost, fixed, what = {
        "cap_power": (tech.overnight_cost_power, tech.fixed_cost, "technology"),
        "cap_charge": (tech.overnight_cost_charge, 0.0, "storage"),
        "cap_discharge": (tech.overnight_cost_discharge, tech.fixed_cost, "storage"),
        "cap_energy": (tech.overnight_cost_energy, 0.0, "storage"),
    }[family]
    if cost <= 0:
        raise BuildError(f"expandable {what} {tech.id}: missing overnight_cost_{family[4:]}")
    return annuity(cost, tech.lifetime, rate) + fixed


def build_objective(spec: PowerSystemSpec, cols: _Columns) -> np.ndarray:
    """Objective coefficients: marginal costs plus annualized investment.

    Investment annuities and fixed costs apply to expandable capacity
    only (legacy capacity is sunk) and are scaled by horizon/8760 so
    sub-year instances stay economically consistent. Overnight costs are
    per kW / kWh while capacities are MW / MWh, hence the factor 1000.
    """
    c = np.zeros(cols.n)
    year_scale = cols.horizon / HOURS_PER_YEAR
    for key, block in cols.blocks.items():
        family = key[0]
        if family == "flow":
            continue
        tech = spec.technology(key[2])
        if family in ("gen", "rsv_out", "sto_in", "sto_out"):
            c[block] = tech.marginal_cost
        elif family.startswith("cap_") and tech.expandable:
            c[block] = _capacity_cost(tech, family, spec.annuity_rate) * 1000.0 * year_scale
    return c


def _balance_rows(spec: PowerSystemSpec, cols: _Columns, rows: _Rows, codes) -> None:
    """One equality per (country, hour): demand + charging = supply + net flows.

    Flow incidence: +1 in the line's from-country row, -1 in its
    to-country row; flow columns are absent entirely when
    interconnection is disabled.
    """
    terms: dict[str, list] = {code: [] for code in codes}
    for code, tech in cols.present:
        tid = tech.id
        if tech.kind in GENERATING:
            terms[code].append((cols.hours(("gen", code, tid)), 1.0))
        elif tech.kind == "storage":
            terms[code].append((cols.hours(("sto_out", code, tid)), 1.0))
            terms[code].append((cols.hours(("sto_in", code, tid)), -1.0))
        elif tech.kind == "reservoir":
            terms[code].append((cols.hours(("rsv_out", code, tid)), 1.0))
    if spec.interconnection_enabled:
        for line in spec.interconnectors:
            flows = cols.hours(("flow", f"{line.from_country}-{line.to_country}"))
            terms[line.from_country].append((flows, 1.0))
            terms[line.to_country].append((flows, -1.0))
    for code in codes:
        rows.block(("balance", code), "=", terms[code], spec.time_series.load[code])


def _technology_rows(spec: PowerSystemSpec, cols: _Columns, rows: _Rows) -> None:
    """Capacity coupling, storage and reservoir balances.

    Storage levels follow ``L_h = retention * L_{h-1} + eta_in * in_h -
    out_h / eta_out`` with cyclic closure (hour 0 wraps to the last
    hour). Curtailment is the implicit slack of ``G <= cf * N``.
    Run-of-river availability is the inflow profile (capacity-factor
    series if provided, else 1) times the technology's efficiency.
    """
    ts = spec.time_series
    for code, tech in cols.present:
        tid = tech.id
        key = (code, tid)
        if tech.kind in GENERATING:
            if tech.kind == "dispatchable":
                avail = 1.0
            elif tech.kind == "variable-renewable":
                avail = np.asarray(ts.capacity_factors[key], dtype=float)
            else:
                profile = ts.capacity_factors.get(key)
                avail = tech.efficiency_out * (
                    np.asarray(profile, dtype=float) if profile is not None else 1.0
                )
            gen, cap = cols.hours(("gen", *key)), cols.blocks[("cap_power", *key)].start
            rows.block(("gen_cap", *key), "<", [(gen, 1.0), (cap, -avail)])
        elif tech.kind == "storage":
            level, inp, out = (cols.hours((f, *key)) for f in ("sto_level", "sto_in", "sto_out"))
            rows.block(
                ("sto_balance", *key),
                "=",
                [
                    (level, 1.0),
                    (np.roll(level, 1), -tech.self_discharge_retention),
                    (inp, -tech.efficiency_in),
                    (out, 1.0 / tech.efficiency_out),
                ],
            )
            for family, hourly, cap in (
                ("sto_level_cap", level, "cap_energy"),
                ("sto_charge_cap", inp, "cap_charge"),
                ("sto_discharge_cap", out, "cap_discharge"),
            ):
                cap_col = cols.blocks[(cap, *key)].start
                rows.block((family, *key), "<", [(hourly, 1.0), (cap_col, -1.0)])
        elif tech.kind == "reservoir":
            level, out, spill = (
                cols.hours((f, *key)) for f in ("rsv_level", "rsv_out", "rsv_spill")
            )
            rows.block(
                ("rsv_balance", *key),
                "=",
                [
                    (level, 1.0),
                    (np.roll(level, 1), -tech.self_discharge_retention),
                    (out, 1.0 / tech.efficiency_out),
                    (spill, 1.0),
                ],
                ts.reservoir_inflow[code],
            )
            for family, hourly, cap in (
                ("rsv_level_cap", level, "cap_energy"),
                ("rsv_discharge_cap", out, "cap_discharge"),
            ):
                cap_col = cols.blocks[(cap, *key)].start
                rows.block((family, *key), "<", [(hourly, 1.0), (cap_col, -1.0)])


def assemble(spec: PowerSystemSpec) -> tuple[LinearProgram, BuildReport]:
    """Build the full LP plus a count report; deterministic for a given spec."""
    import scipy.sparse as sp

    codes = sorted(c.code for c in spec.countries)
    cols = _layout(spec)
    c = build_objective(spec, cols)
    rows = _Rows(cols.horizon)
    _balance_rows(spec, cols, rows, codes)
    _technology_rows(spec, cols, rows)

    A = sp.csr_matrix(
        (np.concatenate(rows.data), (np.concatenate(rows.ri), np.concatenate(rows.ci))),
        shape=(rows.n, cols.n),
        dtype=float,
    )
    lp = LinearProgram(
        A=A,
        c=c,
        lb=np.asarray(cols.lb, dtype=float),
        ub=np.asarray(cols.ub, dtype=float),
        relations=np.concatenate(rows.relations),
        rhs=np.concatenate(rows.rhs),
        blocks=cols.blocks,
        row_blocks=rows.blocks,
    )
    report = BuildReport(
        horizon=cols.horizon,
        interconnection_enabled=spec.interconnection_enabled,
        columns_by_family=cols.counts,
        rows_by_family=rows.counts,
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
    h.update(np.asarray(lp.relations, dtype="S1").tobytes())
    return h.hexdigest()
