"""The private scipy names the package uses, all in one place.

``pyproject.toml`` pins scipy to 1.17 because the package loads two of
its private extensions from their files: the HiGHS binding
``scipy.optimize._highspy._core`` and the sparse kernels of
``scipy.sparse._sparsetools``. A scipy past the pin that renames or drops
one of the names used here fails this file first, with the name.
"""

import ast
import re
from pathlib import Path

import pytest

import gridfactor
from gridfactor.lp import scipy_extension

PACKAGE = Path(gridfactor.__file__).parent
# every attribute of the package so named is one of scipy's sparse kernels
_KERNEL = re.compile(r"^(csr|csc|coo|cs)_\w+$")


def _attributes(source: str, owner: str | None = None) -> set[str]:
    """Attribute names in ``source``; with ``owner``, only those read off that name."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and (owner is None or isinstance(node.value, ast.Name) and node.value.id == owner)
    }


def test_sparsetools_has_every_kernel_the_package_calls():
    sources = "\n".join(path.read_text() for path in sorted(PACKAGE.glob("*.py")))
    kernels = {name for name in _attributes(sources) if _KERNEL.match(name)}
    assert {"coo_tocsr", "csr_matvec", "csc_matvec", "cs_graph_components"} <= kernels
    module = scipy_extension("scipy.sparse._sparsetools")
    assert sorted(name for name in kernels if not hasattr(module, name)) == []


def test_binding_has_every_name_solve_reads():
    names = _attributes((PACKAGE / "solve.py").read_text(), owner="highs_core")
    assert {"_Highs", "HighsStatus", "MatrixFormat"} <= names
    module = scipy_extension("scipy.optimize._highspy._core")
    assert sorted(name for name in names if not hasattr(module, name)) == []


@pytest.mark.parametrize("position,kind", [(11, "int32"), (12, "int32"), (13, "float64")])
def test_binding_has_the_array_pass_model(position, kind):
    """``highs_model`` passes 15 arguments; CSR ``indptr``, ``indices`` and ``data`` are 11-13."""
    doc = scipy_extension("scipy.optimize._highspy._core")._Highs.passModel.__doc__
    # one line per overload: "<n>. passModel(self: ..., arg0: ..., ...) -> ..."
    overloads = [line for line in doc.splitlines() if re.match(r"\d+\. passModel\(", line)]
    (array_form,) = [line for line in overloads if "arg14:" in line and "arg15:" not in line]
    assert re.search(rf"arg{position}: [^,]*ArrayLike, numpy\.{kind}\]", array_form)
