"""Import structure of the package, read from the source with ``ast``.

Modules import each other at load time only, and ``geometry`` (offset
sidedness, displacement, projection) sits below the modules that use it.
"""

import ast
from pathlib import Path

import axoscheme

PACKAGE = Path(axoscheme.__file__).parent


def parsed_modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def package_imports(tree) -> set[str]:
    """Names of the package modules a module imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("axoscheme"):
                continue
            base = base.removeprefix("axoscheme").lstrip(".")
            if base:
                out.add(base.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("axoscheme."))
    return out


def test_imports_inside_functions():
    """The one deferred import is ``model.check_reach``'s, the rule passes of
    ``integrity_check``: ``constraints`` imports ``model`` at load time."""
    found = set()
    for name, tree in parsed_modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add((name, fn.name, node.lineno))
    assert [(name, fn) for name, fn, _ in sorted(found)] == [("model.py", "check_reach")]


def test_geometry_imports_no_module_above_it():
    trees = dict(parsed_modules())
    assert not package_imports(trees["geometry.py"]) & {"constraints", "edit", "layout"}


def test_package_imports_are_read():
    trees = dict(parsed_modules())
    assert package_imports(trees["layout.py"]) >= {"constraints", "edit", "geometry", "model"}
    assert "constraints" in package_imports(trees["model.py"])


def test_only_the_offset_view_builds_offset_sides():
    """``geometry.OffsetView`` is the one reader of a scheme's offsets and
    break lines: no other code names ``OffsetSide``, so none builds one."""
    found = []
    for name, tree in parsed_modules():
        inside = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and (name, cls.name) == ("geometry.py", "OffsetView"):
                inside = {id(node) for node in ast.walk(cls)}
        for node in ast.walk(tree):
            named = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if named == "OffsetSide" and id(node) not in inside:
                found.append((name, node.lineno))
    assert found == []
