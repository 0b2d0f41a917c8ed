"""Eleven source rules checked with the standard library alone: every line of
the package fits in 100 columns, every name a module imports at top level is
used in that module (__init__.py included, since the package root re-exports
nothing), every private name a module defines at top level is referenced
somewhere in the package, every top-level function or class and every
non-dunder method of the package is referenced somewhere in src/, tests/ or
perfbench/, no module imports multiprocessing, concurrent or threading, at
any level: every command runs in one process and one thread, and no module
but correspondence.py references weyl._iter_rows outside weyl.py: the group
is walked in one place, the scan's element loop, and the root index
(_index_tables) is read only by the row layout (roots._row_starts) and by
the three references, the independent constructions that rows are checked
against, while the layout is read only by the rules, the code that places
bits for a run (rows, staircases and the relabel grid): which bit is which
root is stated once, and every runtime check still compares two
constructions, and no rule references positive_roots and no definition but
RootSet references root_index: rules read the layout, never Root objects,
and no table hashes a Root, and every check_cap call names its cap by a
string literal that is a key of roots.CAPS, and only roots.check_cap raises
RankCapError: a cap's value and name are written once, and there is one
message builder, and no module but elements.py contains the string literal "["
(an f-string's pieces aside): SignedPerm.__str__ is the one writer of an
element, and parse_signed_perm reads back every element the package
prints, and weyl._row and weyl._perm_row keep the code pinned below, up to
their docstrings: each bit of the later (or earlier) value mask is shifted or
read on its own, so every row is its base row joined with one piece per value
in the mask, which is what lets weyl._bad_pieces certify all rows from n^2
pieces."""

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


def _readers(name: str) -> set[str]:
    """module:definition for each top-level definition of the package that
    references name."""
    readers = set()
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ImportFrom) and name in set(_references(node)):
                readers.add(f"{path.name}:{getattr(node, 'name', type(node).__name__)}")
    return readers


# the independent constructions that rows are checked against
_REFERENCES = {
    "weyl.py:_bad_pieces",
    "ideals.py:_profile_from_mask",
    "poincare.py:sym_inversion_histogram",
}
# the code that places bits for a run (_perm_inversion_mask through _perm_row)
_RULES = {
    "weyl.py:_row",
    "weyl.py:_perm_row",
    "weyl.py:_word_from_inversion_mask",
    "roots.py:_staircases",
    "roots.py:_mask_from_profile",
    "correspondence.py:_phi1_grid",
}


def test_rules_read_the_row_layout_and_references_read_the_root_index():
    assert _readers("_index_tables") == {"roots.py:_row_starts", *_REFERENCES}
    assert _readers("_row_starts") == _RULES


def test_rules_read_no_root_objects_and_no_table_hashes_them():
    # the layout alone says which bit a rule sets: a rule that enumerated the
    # Root objects would state the order a second time
    assert _readers("positive_roots") & _RULES == set()
    assert _readers("root_index") == {"roots.py:RootSet"}


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


def _string_constants(tree: ast.Module):
    """The values of the string literals in tree; the literal pieces of an
    f-string, which ast also holds as constants, are not literals."""
    pieces = {
        id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr) for part in node.values
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in pieces:
            yield node.value


def test_only_elements_writes_an_element():
    # SignedPerm.__str__ writes the [a,-b,...] form that parse_signed_perm
    # reads; a second writer could drift from the parser
    writers = {
        path.name
        for path in MODULES
        if "[" in _string_constants(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert writers == {"elements.py"}


# The code the piece argument rests on (weyl._bad_pieces): a change to it,
# docstrings aside, fails test_rows_keep_their_union_form
_UNION_FORM = """
def _perm_row(n: int, before: int, v: int) -> int:
    return before >> v << _row_starts(n)[0][v]


def _row(n: int, v: int, later: int) -> tuple[int, int]:
    diff_start, sum_start, long_bit = _row_starts(n)
    above = later >> v
    up, down = 0, 1 << long_bit[v] | above << diff_start[v] | above << sum_start[v]
    below = later & (1 << (v - 1)) - 1
    while below:
        low = below & -below
        below ^= low
        q = low.bit_length()
        up |= 1 << diff_start[q] + v - q - 1
        down |= 1 << sum_start[q] + v - q - 1
    return up, down
"""
WEYL = (Path(spcohom.__file__).parent / "weyl.py").read_text(encoding="utf-8")


def _function_dump(source: str, name: str) -> str:
    """ast.dump of the top-level function name in source, its docstring dropped."""
    (node,) = [n for n in ast.parse(source).body if getattr(n, "name", None) == name]
    if ast.get_docstring(node) is not None:
        node.body = node.body[1:]
    return ast.dump(node)


def _off_union_form(source: str) -> list[str]:
    return [
        name
        for name in ("_row", "_perm_row")
        if _function_dump(source, name) != _function_dump(_UNION_FORM, name)
    ]


def test_rows_keep_their_union_form():
    assert _off_union_form(WEYL) == [], (
        "a row function left the pinned union form: re-derive the piece argument in the "
        "docstring of weyl._bad_pieces (and of weyl._row) before updating the pin"
    )


def test_a_row_that_special_cases_one_later_set_leaves_the_union_form():
    # a row read at later = {1, 3} differs from the union of its pieces, which
    # no piece check would see; a docstring edit leaves the form alone
    special = WEYL.replace(
        "    above = later >> v\n", "    if later == 0b101:\n        return 0, 0\n    above = later >> v\n"
    )
    assert special != WEYL and _off_union_form(special) == ["_row"]
    reworded = WEYL.replace("(plus, minus): the inversions", "(plus, minus), the inversions")
    assert reworded != WEYL and _off_union_form(reworded) == []


def test_the_lint_sees_every_module():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "roots.py", "weyl.py"}
    assert {p.name for p in SOURCES} >= {"cli.py", "test_lint.py", "run.py"}
