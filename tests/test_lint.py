"""Four source rules checked with the standard library alone: every line of
the package fits in 100 columns, every name a module imports at top level is
used in that module (__init__.py included, since the package root re-exports
nothing), every private name a module defines at top level is referenced
somewhere in the package, and no module imports multiprocessing, concurrent
or threading, at any level: every command runs in one process and one
thread."""

import ast
from pathlib import Path

import pytest

import spcohom

MAX_COLUMNS = 100
MODULES = sorted(Path(spcohom.__file__).parent.glob("*.py"))


def _imported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_line_fits_in_100_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [k for k, line in enumerate(lines, start=1) if len(line) > MAX_COLUMNS]
    assert long == [], f"{path.name}: lines over {MAX_COLUMNS} columns: {long}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name}: imported and never used: {unused}"


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_top_level_name_is_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    unreferenced = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in referenced
    ]
    assert unreferenced == [], f"defined and never referenced: {unreferenced}"


CONCURRENCY = {"multiprocessing", "concurrent", "threading"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_process_or_thread_pool(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    pools = [name for name in found if name.partition(".")[0] in CONCURRENCY]
    assert pools == [], f"{path.name}: imports {pools}"


def test_the_lint_sees_every_module():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "roots.py", "weyl.py"}
