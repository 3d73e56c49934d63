"""Layout guards: production holds only what the package reaches.

A name in a ``src/microruin`` module's ``__all__`` must be read somewhere in
``src/`` outside its own definition, or be exported by the package; code
only the tests call belongs in the tests.  The same holds for every
module-level function and every method and property of a ``src`` class
(dunders aside), whether exported or not: each must be read somewhere in
``src/`` outside its own body.  The checks are by name, so a name read for
another purpose (``np.mean`` reads ``mean``) counts.  No ``src`` module reads
a ``_``-prefixed module-level function, class or constant of another one,
so each private name has one binding; importing the private module
``_kernels`` itself is allowed.  No production module imports from the
tests.  Every config field is read by the code it configures, not only
checked by ``model.validate``: a field nothing reads would be silently
ignored.
"""

import ast
import importlib
import pathlib
from dataclasses import fields

import microruin
from microruin import model

TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted(pathlib.Path(microruin.__file__).parent.glob("*.py"))}


def _reads_outside_own_definition(tree) -> set[str]:
    """Names read by Name or Attribute nodes outside the top-level statement
    that defines them (docstrings are not nodes of either kind)."""
    found = set()
    for stmt in tree.body:
        own = {getattr(stmt, "name", None)} | {
            t.id for t in getattr(stmt, "targets", []) if isinstance(t, ast.Name)}
        found |= {node.id if isinstance(node, ast.Name) else node.attr
                  for node in ast.walk(stmt)
                  if isinstance(node, ast.Attribute)
                  or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))} - own
    return found


def test_every_exported_name_is_reached_from_src():
    read = set().union(*(_reads_outside_own_definition(t) for t in TREES.values()))
    unreached = [f"{stem}.{name}" for stem in TREES if stem != "__init__"
                 for name in getattr(importlib.import_module(f"microruin.{stem}"),
                                     "__all__", [])
                 if name not in read and name not in microruin.__all__]
    assert unreached == [], f"move to tests/oracles.py or delete: {unreached}"


# reached from outside src: the benchmark builds its sampling plan with it
CALLED_FROM_OUTSIDE = {"montecarlo.plan_from_config"}


def _definitions(tree):
    """(dotted name, node) of every module-level function and of every
    non-dunder method or property of a module-level class."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            yield from ((f"{stmt.name}.{item.name}", item) for item in stmt.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_every_function_and_method_is_reached_from_src():
    reads = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
    unreached = []
    for stem, tree in TREES.items():
        for dotted, definition in _definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if (f"{stem}.{dotted}" not in CALLED_FROM_OUTSIDE
                    and all(id(node) in inside for node in reads.get(definition.name, []))):
                unreached.append(f"{stem}.{dotted}")
    assert unreached == [], f"move to tests/oracles.py or delete: {unreached}"


def _private_definitions(tree) -> set[str]:
    """The _-prefixed (not dunder) module-level functions, classes and
    constants of one module."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _src_module(node: ast.ImportFrom):
    """The src module an import names: its stem, None for the package itself,
    or "" for an import from outside the package."""
    if node.level == 1:
        return node.module
    if node.level == 0 and (node.module or "").split(".")[0] == "microruin":
        return node.module.partition(".")[2] or None
    return ""


def test_no_module_reads_another_modules_privates():
    private = {stem: _private_definitions(tree) for stem, tree in TREES.items()}
    reached = []
    for stem, tree in TREES.items():
        modules = {}  # local name -> the src module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _src_module(node)
                for alias in node.names:
                    if source is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name in private.get(source, ()):
                        reached.append(f"{stem}: from .{source} import {alias.name}")
        reached += [f"{stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.attr in private.get(modules.get(node.value.id), ())]
    assert reached == [], f"make these public in their module, or keep them there: {reached}"


def test_src_never_imports_the_tests():
    imported = [alias.name if isinstance(node, ast.Import) else node.module or ""
                for tree in TREES.values() for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert [name for name in imported if name.split(".")[0] == "tests"] == []


def test_every_config_field_is_read_outside_validation():
    read = {node.attr
            for stem, tree in TREES.items() for stmt in tree.body
            if not (stem == "model" and getattr(stmt, "name", "").startswith(
                ("validate", "_check_")))
            for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    cfg = model.default_config()
    unread = [f"{section.name}.{f.name}" for section in fields(cfg)
              for f in fields(getattr(cfg, section.name)) if f.name not in read]
    assert unread == [], f"read these fields where they apply, or delete them: {unread}"
