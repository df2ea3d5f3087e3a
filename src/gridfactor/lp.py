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

The matrix is a ``CsrMatrix``: CSR arrays whose build, products and
transpose run the C++ kernels of ``scipy.sparse._sparsetools``, the
ones scipy's own sparse matrices call, so every array and every float
is the one scipy's ``csr_matrix`` would give; its block cut keeps whole
rows by numpy gathers. That extension is loaded from its file
(``scipy_extension``), without ``scipy.sparse``: about 300 modules,
13 MB of Pss and 0.10 s in a solving process, against 0.16 MB and
0.8 ms for the extension alone. ``solve`` loads scipy's HiGHS binding
through the same loader. Both are private names of scipy 1.17, to which
``pyproject.toml`` pins it.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.machinery
import importlib.util
import io
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (
    HOURS_PER_YEAR,
    KIND_CAPACITIES,
    GridFactorError,
    PowerSystemSpec,
    Technology,
    annuity,
)

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


_EXTENSION_LOCK = threading.Lock()


def scipy_extension(name: str):
    """The scipy extension module ``name``, loaded once per process without its package.

    The module that ``sys.modules`` holds under ``name``, if any: so a
    process that imported the package first reuses scipy's module, and
    one that imports it later gets this one. ``None`` there raises
    ``ImportError``, as ``import`` does. Otherwise the extension is
    loaded from its file in scipy's package directory, which skips the
    package's ``__init__.py`` and all it imports, and registered under
    ``name``. The lock does for the first calls on ``solve``'s block
    thread pool what the import system's module lock does for
    ``import``: one of them loads the file, and the others get the
    module it registered.
    """
    with _EXTENSION_LOCK:
        if name in sys.modules:
            module = sys.modules[name]
            if module is None:
                raise ImportError(f"import of {name} halted; None in sys.modules")
            return module
        import scipy

        *packages, stem = name.split(".")
        directory = Path(scipy.__file__).parent.joinpath(*packages[1:])
        files = [directory / f"{stem}{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        found = [path for path in files if path.is_file()]
        if not found:
            raise ImportError(f"no {name} extension in {directory}")
        spec = importlib.util.spec_from_file_location(name, found[0])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
        return module


def sparsetools():
    """scipy's C++ sparse-matrix kernels, ``scipy.sparse._sparsetools``."""
    return scipy_extension("scipy.sparse._sparsetools")


@dataclass(eq=False)
class CsrMatrix:
    """A sparse matrix of ``shape`` in compressed sparse row (CSR) form.

    Row ``i`` stores ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending in a matrix that
    ``assemble`` builds. The products and the transpose run the kernels
    that scipy's ``csr_matrix`` runs (module docstring), on the same
    arrays, so they give its results bit for bit.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        """The number of stored entries."""
        return int(self.indptr[-1])

    def __matmul__(self, x) -> np.ndarray:
        """``A @ x`` for a vector ``x``, by ``csr_matvec``."""
        m, n = self.shape
        return self._matvec(sparsetools().csr_matvec, x, m, n)

    def rmatvec(self, y) -> np.ndarray:
        """``A.T @ y`` for a vector ``y``, by ``csc_matvec``: A's CSR arrays are A.T's CSC ones."""
        m, n = self.shape
        return self._matvec(sparsetools().csc_matvec, y, n, m)

    def _matvec(self, kernel, x, rows: int, cols: int) -> np.ndarray:
        """``kernel``'s product of a ``rows`` x ``cols`` matrix held in these arrays with ``x``."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape != (cols,):
            raise ValueError(f"a matrix of shape {self.shape} cannot take a vector of {x.shape}")
        out = np.zeros(rows)
        kernel(rows, cols, self.indptr, self.indices, self.data, x, out)
        return out

    def transpose(self) -> CsrMatrix:
        """``A.T``, by ``csr_tocsc``: A's CSC arrays are A.T's CSR ones."""
        m, n = self.shape
        indptr = np.empty(n + 1, dtype=self.indices.dtype)
        indices = np.empty(self.nnz, dtype=self.indices.dtype)
        data = np.empty(self.nnz)
        sparsetools().csr_tocsc(m, n, self.indptr, self.indices, self.data, indptr, indices, data)
        return CsrMatrix((n, m), indptr, indices, data)

    def block(self, rows: np.ndarray, cols: np.ndarray) -> CsrMatrix:
        """The submatrix of ``rows``, in their order, and ascending ``cols``.

        They are a connected component (``solve._independent_blocks``),
        so each row is kept whole, its columns renumbered by their place
        in ``cols``: scipy's ``A[rows][:, cols]``. A row with an entry
        outside ``cols`` raises ``ValueError``.
        """
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=self.indptr.dtype)
        np.cumsum(lengths, out=indptr[1:])
        # the stored positions of the rows' entries, row after row
        positions = np.arange(int(indptr[-1])) + np.repeat(starts - indptr[:-1], lengths)
        renumbered = np.full(self.shape[1], -1, dtype=self.indices.dtype)
        renumbered[cols] = np.arange(len(cols))
        indices = renumbered[self.indices[positions]]
        if (indices < 0).any():
            raise ValueError("rows have entries outside cols: not an independent block")
        return CsrMatrix((len(rows), len(cols)), indptr, indices, self.data[positions])


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

    A: CsrMatrix
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

    def capacities(self, primal) -> dict[tuple, float]:
        """Every capacity (``cap_*``) column's value in ``primal``, by block key, in block order."""
        blocks = self.blocks.items()
        return {key: float(primal[b.start]) for key, b in blocks if key[0].startswith("cap_")}

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
    spec: PowerSystemSpec, code: str, tech: Technology, exogenous: str, overnight: str
) -> tuple[float, float, float]:
    """Bounds and objective coefficient of one capacity column.

    Legacy capacity is fixed at its ``exogenous`` field and costs nothing,
    being sunk. Expandable capacity costs its annualized investment, plus
    fixed cost for output power, per kW or kWh while capacities are MW or
    MWh (hence the factor 1000), scaled by horizon/8760 so sub-year
    instances stay economically consistent. Expandable offshore power is
    fixed at the country's override, if any, and at zero where it may not
    be built.
    """
    if not tech.expandable:
        v = getattr(spec.exogenous_capacity(code, tech.id), exogenous)
        return v, v, 0.0
    # fixed O&M is EUR per kW of output a year: it prices the output power capacity
    fixed = tech.fixed_cost if exogenous == "power_discharge" else 0.0
    investment = getattr(tech, overnight)
    if investment <= 0:
        raise BuildError(f"expandable {tech.id}: missing {overnight}")
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
            cols.add((family, code, tech.id), 1, *_capacity(spec, code, tech, *fields))

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


def _csr_matrix(shape: tuple[int, int], ri, ci, data) -> CsrMatrix:
    """The CSR matrix of coordinate triples: duplicates summed, then tiny entries dropped.

    The steps of scipy's ``csr_matrix((data, (ri, ci)))`` on its kernels:
    ``coo_tocsr``, ``csr_sort_indices`` where a row is unsorted, and
    ``csr_sum_duplicates``, a no-op where no column repeats in a row.
    Entries below 1e-12 are zeroed after the sum, so a coefficient that
    sums to zero goes too, and ``csr_eliminate_zeros`` removes them. Index arrays are int32 where
    the shape and the triples fit, as scipy chooses them.
    """
    kernels = sparsetools()
    m, n = shape
    nnz = len(data)
    index = np.int32 if max(m, n, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.empty(m + 1, dtype=index)
    indices = np.empty(nnz, dtype=index)
    values = np.empty(nnz)
    ri, ci = ri.astype(index, copy=False), ci.astype(index, copy=False)
    kernels.coo_tocsr(m, n, nnz, ri, ci, np.asarray(data, dtype=float), indptr, indices, values)
    if not kernels.csr_has_sorted_indices(m, indptr, indices):
        kernels.csr_sort_indices(m, indptr, indices, values)
    kernels.csr_sum_duplicates(m, n, indptr, indices, values)
    values[np.abs(values) < _TINY_COEFF] = 0.0
    kernels.csr_eliminate_zeros(m, n, indptr, indices, values)
    nnz = int(indptr[-1])
    if nnz < len(values):
        indices, values = indices[:nnz].copy(), values[:nnz].copy()
    return CsrMatrix(shape, indptr, indices, values)


def assemble(spec: PowerSystemSpec) -> tuple[LinearProgram, BuildReport]:
    """Build the full LP plus a count report; deterministic for a given spec."""
    codes = sorted(c.code for c in spec.countries)
    cols = _layout(spec)
    rows = _Rows(cols.horizon)
    _balance_rows(spec, cols, rows, codes)
    _technology_rows(spec, cols, rows)

    A = _csr_matrix(
        (rows.n, cols.n),
        np.concatenate(rows.ri),
        np.concatenate(rows.ci),
        np.concatenate(rows.data),
    )
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
