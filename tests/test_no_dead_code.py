"""No code that nothing calls.

Every top-level function, class method, property and module-level name
(a constant, say) of ``src/gridfactor`` is either named in
``gridfactor.__all__`` or referenced somewhere in ``src/gridfactor`` or
``perfbench/`` outside its own definition or statement. Tests do not
count as callers. A function is referenced by a name, an attribute, a
keyword argument or a string constant (perfbench's tracer names the
functions it wraps as strings); a method or property by any of these but
a bare name, which cannot reach it.

References are matched by name alone, so a member whose name is also some
other attribute's is never flagged: ``PowerSystemSpec.technology`` passed
on ``ExogenousCapacity.technology`` and ``BuildReport.n_rows`` on
``LinearProgram.n_rows`` while only tests called them. Dunder methods are
called by Python and are skipped, as are click commands, which
``main.command`` registers.

Every name that a module of ``src/gridfactor`` or ``tests/`` imports is
used in that module. ``__init__.py`` files are skipped: their imports are
the package's re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import gridfactor

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridfactor"

# kept without a caller until the europe12 preset (ROADMAP item 5) lands
EXEMPT = {
    "default_countries": "the 12-country europe12 preset (ROADMAP item 5) will use it",
    "default_exogenous_capacities": "the 12-country europe12 preset will use it",
    "default_interconnectors": "the 12-country europe12 preset will use it",
}


def _references(tree: ast.AST) -> tuple[Counter, Counter]:
    """The bare names in ``tree``, and its attributes, keywords and string constants."""
    names, others = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            others[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            others[node.arg] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            others[node.value] += 1
    return names, others


def _is_click_command(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr == "command"
        and isinstance(d.func.value, ast.Name)
        and d.func.value.id == "main"
        for d in node.decorator_list
    )


def _definitions(tree: ast.Module):
    """``(qualified name, name, node, is a member)`` of each definition.

    The definitions are top-level functions, methods, properties and
    module-level names; a name's node is the statement that assigns it.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member.name, member, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.id, node, False


def uncalled(exempt) -> list[str]:
    """The package's definitions that nothing references, but those in ``exempt``."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    names, others = Counter(), Counter()
    for tree in trees.values():
        found = _references(tree)
        names.update(found[0])
        others.update(found[1])
    flagged = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, name, node, member in _definitions(trees[path]):
            if (
                name.startswith("__")
                or name in gridfactor.__all__
                or qualname in exempt
                or isinstance(node, ast.FunctionDef) and _is_click_command(node)
            ):
                continue
            own_names, own_others = _references(node)
            count = others[name] - own_others[name]
            if not member:
                count += names[name] - own_names[name]
            if count == 0:
                flagged.append(qualname)
    return flagged


def test_every_definition_has_a_caller():
    assert uncalled(EXEMPT) == []


def test_every_exemption_is_still_needed():
    """An exempt name that gains a caller, or is deleted, leaves ``EXEMPT``."""
    assert sorted(uncalled({})) == sorted(EXEMPT)


def unused_imports(paths) -> list[str]:
    """``file: name`` for each name that a file imports and never uses as a name."""
    flagged = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # ``import a.b`` binds ``a``
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            rel = path.relative_to(ROOT)
            flagged += [f"{rel}: {name}" for name in bound if name not in used]
    return flagged


def test_every_import_is_used():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert unused_imports(p for p in files if p.name != "__init__.py") == []
