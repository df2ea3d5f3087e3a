"""Fixed-format MPS export, for audit and for other solvers.

Field layout (1-indexed character columns): indicator 2-3, name fields
5-12 and 15-22, value fields 25-36 and 50-61, second name field 40-47.
Row/column identifiers are synthesized as ``R<index>`` / ``X<index>``
because fixed MPS limits names to eight characters, so the file keeps no
column labels.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .lp import LinearProgram
from .model import GridFactorError

_OBJ = "COST"
_RELATION_TO_KIND = {"<": "L", ">": "G", "=": "E"}


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

