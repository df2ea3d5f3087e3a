"""Fixed-format MPS export and import.

Field layout (1-indexed character columns): indicator 2-3, name fields
5-12 and 15-22, value fields 25-36 and 50-61, second name field 40-47.
Row/column identifiers are synthesized as ``R<index>`` / ``X<index>``
because fixed MPS limits names to eight characters. An LP read back has
an empty block map and so no column labels.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .lp import LinearProgram
from .model import GridFactorError

_OBJ = "COST"
_RELATION_TO_KIND = {"<": "L", ">": "G", "=": "E"}
_KIND_TO_RELATION = {v: k for k, v in _RELATION_TO_KIND.items()}


class MpsError(GridFactorError):
    pass


def mps_column_name(j: int) -> str:
    return f"X{j:07d}"


def mps_row_name(i: int) -> str:
    return f"R{i:07d}"


def _fmt(v: float) -> str:
    for precision in (12, 10, 8, 7, 6):
        s = f"{v:.{precision}G}"
        if len(s) <= 12:
            return s
    raise MpsError(f"value {v!r} does not fit a 12-character MPS field")


def _line(f1: str = "", f2: str = "", f3: str = "", f4: str = "", f5: str = "", f6: str = "") -> str:
    return f" {f1:<2} {f2:<8}  {f3:<8}  {f4:<12}   {f5:<8}  {f6:<12}".rstrip()


def write_mps(lp: LinearProgram, path: str | Path | None = None) -> str:
    """Serialize to fixed-format MPS; returns the text, optionally writes it."""
    lines = [f"NAME          {lp.name}", "ROWS", _line("N", _OBJ)]
    for i, rel in enumerate(lp.relations):
        lines.append(_line(_RELATION_TO_KIND[rel], mps_row_name(i)))

    lines.append("COLUMNS")
    csc = lp.A.tocsc()
    for j in range(lp.n_cols):
        col = mps_column_name(j)
        if lp.c[j] != 0.0:
            lines.append(_line("", col, _OBJ, _fmt(lp.c[j])))
        start, end = csc.indptr[j], csc.indptr[j + 1]
        for k in range(start, end):
            lines.append(_line("", col, mps_row_name(csc.indices[k]), _fmt(csc.data[k])))

    lines.append("RHS")
    for i, b in enumerate(lp.rhs):
        if b != 0.0:
            lines.append(_line("", "RHS", mps_row_name(i), _fmt(b)))

    lines.append("BOUNDS")
    for j in range(lp.n_cols):
        lo, up = lp.lb[j], lp.ub[j]
        col = mps_column_name(j)
        if lo == up:
            lines.append(_line("FX", "BND", col, _fmt(lo)))
            continue
        if lo == -np.inf:
            lines.append(_line("MI", "BND", col))
        elif lo != 0.0:
            lines.append(_line("LO", "BND", col, _fmt(lo)))
        if up != np.inf:
            lines.append(_line("UP", "BND", col, _fmt(up)))

    lines.append("ENDATA")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def read_mps(source: str | Path) -> LinearProgram:
    """Parse an MPS file (as written by :func:`write_mps` or compatible)."""
    text = Path(source).read_text() if isinstance(source, Path) else source
    if isinstance(source, str) and "\n" not in source:
        text = Path(source).read_text()

    name = "IMPORTED"
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
            if section == "NAME" and len(parts) > 1:
                name = parts[1]
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
        name=name,
    )
