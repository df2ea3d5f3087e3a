"""MPS export, for audit and for other solvers.

HiGHS writes the file from the model that ``solve.highs_model`` hands
it, so the export is the LP that HiGHS solves: columns ``c<index>``,
rows ``r<index>``, values to 15 significant digits, and none of the
explicit zeros and tiny coefficients that HiGHS drops on load. The file
keeps no column labels.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from .lp import LinearProgram
from .model import GridFactorError
from .solve import highs_model


class MpsError(GridFactorError):
    pass


def write_mps(lp: LinearProgram, path: str | Path | None = None) -> str:
    """Serialize to MPS with HiGHS's writer; returns the text, optionally writes it."""
    highs = highs_model(lp)
    with tempfile.TemporaryDirectory() as tmp:
        # HiGHS picks the format by extension: only ``.mps`` gives MPS
        written = Path(tmp) / "lp.mps"
        status = highs.writeModel(str(written))
        if status.name == "kError":
            raise MpsError("HiGHS could not write the LP as MPS")
        text = written.read_text()
    if path is not None:
        Path(path).write_text(text)
    return text
