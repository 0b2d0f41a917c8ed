"""Nine source rules checked with the standard library alone: every line of
the package fits in 100 columns, every name a module imports at top level is
used in that module (__init__.py included, since the package root re-exports
nothing), every private name a module defines at top level is referenced
somewhere in the package, every top-level function or class and every
non-dunder method of the package is referenced somewhere in src/, tests/ or
perfbench/, no module imports multiprocessing, concurrent or threading, at
any level: every command runs in one process and one thread, and no module
but correspondence.py references weyl._iter_rows outside weyl.py: the group
is walked in one place, the scan's element loop, and inside weyl.py only
_row, _row_tables and _diff_offsets read the root index (_index_tables): an
inversion set is read off the rows, so no second hand-written inversion map
comes back unnoticed, and inside ideals.py only the row table
(_staircase_rows) and the bit-by-bit parse (_profile_from_mask) read the
root index, and no other module references the row table: which bits a
staircase row sets is known in one place, and the parse stays independent
of it, and every check_cap call names its cap by a string literal that is
a key of roots.CAPS, and only roots.check_cap raises RankCapError: a cap's
value and name are written once, and there is one message builder."""

import ast
from pathlib import Path

import pytest

import spcohom
from spcohom.roots import CAPS

MAX_COLUMNS = 100
MODULES = sorted(Path(spcohom.__file__).parent.glob("*.py"))
# src/, tests/ and perfbench/: every place a definition of the package can be used
SOURCES = sorted(
    path
    for root in ("src", "tests", "perfbench")
    for path in (Path(spcohom.__file__).parents[2] / root).rglob("*.py")
)


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


def _functions_classes_and_methods(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )


def test_every_function_class_and_method_is_referenced():
    # a definition whose last caller was deleted fails here, e.g. a method
    # that only a removed check called
    referenced = {
        name
        for path in SOURCES
        for name in _references(ast.parse(path.read_text(encoding="utf-8")))
    }
    unreferenced = [
        f"{path.name}:{qualname}"
        for path in MODULES
        for qualname in _functions_classes_and_methods(ast.parse(path.read_text(encoding="utf-8")))
        if qualname.rpartition(".")[2] not in referenced
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


def test_only_the_scan_walks_the_group():
    walkers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "_iter_rows" in {*_references(tree), *_imported_names(tree)}:
            walkers.add(path.name)
    assert walkers - {"weyl.py"} == {"correspondence.py"}


def _root_index_readers(module: str) -> set[str]:
    """The top-level definitions of module that reference _index_tables."""
    tree = ast.parse((Path(spcohom.__file__).parent / module).read_text(encoding="utf-8"))
    return {
        getattr(node, "name", type(node).__name__)
        for node in tree.body
        if not isinstance(node, ast.ImportFrom) and "_index_tables" in set(_references(node))
    }


def test_only_the_row_functions_read_the_root_index_in_weyl():
    assert _root_index_readers("weyl.py") == {"_row", "_row_tables", "_diff_offsets"}


def test_only_the_row_table_knows_a_staircase_rows_bits():
    assert _root_index_readers("ideals.py") == {"_staircase_rows", "_profile_from_mask"}
    readers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "_staircase_rows" in {*_references(tree), *_imported_names(tree)}:
            readers.add(path.name)
    assert readers == {"ideals.py"}


def _calls_and_raises(node: ast.AST, where: str):
    """(where, node) for each call and raise statement under node, where being
    the name of the innermost enclosing function."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        if isinstance(child, (ast.Call, ast.Raise)):
            yield where, child
        yield from _calls_and_raises(child, inner)


def test_every_cap_is_named_by_a_key_of_the_table_and_refused_in_one_place():
    names, raisers = [], []
    for path in MODULES:
        for where, node in _calls_and_raises(ast.parse(path.read_text(encoding="utf-8")), ""):
            if isinstance(node, ast.Raise):
                if "RankCapError" in set(_references(node)):
                    raisers.append(f"{path.name}:{where}")
            elif getattr(node.func, "id", getattr(node.func, "attr", None)) == "check_cap":
                what = node.args[1] if len(node.args) == 2 else None
                names.append(what.value if isinstance(what, ast.Constant) else ast.dump(node))
    assert names and [what for what in names if what not in CAPS] == []
    assert raisers == ["roots.py:check_cap"]


def test_the_lint_sees_every_module():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "roots.py", "weyl.py"}
    assert {p.name for p in SOURCES} >= {"cli.py", "test_lint.py", "run.py"}
