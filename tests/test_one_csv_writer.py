"""One CSV writer.

Every table gridfactor writes goes through ``serialize.write_csv``, as
every JSON file goes through ``serialize.write_json``. The one other
caller of a ``csv`` writer is ``lp._csv_fields``, which renders the
fields of the solution CSV that ``lp.write_solution_csv`` writes by hand
for speed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gridfactor"

ALLOWED = {("serialize.py", "write_csv"), ("lp.py", "_csv_fields")}
WRITERS = {"writer", "DictWriter"}


def writer_calls() -> list[tuple[str, str]]:
    """``(file, enclosing top-level function)`` of each ``csv`` writer use in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "csv":
                    if WRITERS & {alias.name for alias in node.names}:
                        found.append((path.name, where))
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in WRITERS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "csv"
                ):
                    found.append((path.name, where))
    return found


def test_tables_go_through_write_csv():
    assert [call for call in writer_calls() if call not in ALLOWED] == []


def test_both_writers_still_exist():
    """An allowed place that no longer calls a ``csv`` writer leaves ``ALLOWED``."""
    assert set(writer_calls()) == ALLOWED
