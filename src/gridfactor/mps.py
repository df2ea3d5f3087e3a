"""MPS export, for audit and for other solvers.

HiGHS writes the file from the model that ``solve.highs_model`` hands
it, so the export is the LP that HiGHS solves: model ``GRIDFACT``,
columns ``c<index>``, rows ``r<index>``, values to 15 significant
digits. ``assemble`` stores no explicit zero or tiny coefficient, so
the file holds every stored entry of the LP; a capacity that the LP
fixes shows as its hourly columns' ``UP`` bounds, not as rows. The file
keeps no column labels.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from .lp import LinearProgram
from .model import GridFactorError
from .solve import highs_model

# the NAME line of every export
_MODEL_NAME = "GRIDFACT"


class MpsError(GridFactorError):
    pass


def write_mps(lp: LinearProgram, path: str | Path | None = None) -> str:
    """Serialize to MPS with HiGHS's writer; returns the text, optionally writes it."""
    highs = highs_model(lp)
    # the array load that ``highs_model`` uses takes no model name
    model = highs.getLp()
    model.model_name_ = _MODEL_NAME
    if highs.passModel(model).name == "kError":
        raise MpsError("HiGHS could not name the LP")
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
