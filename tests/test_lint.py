"""Fifteen source rules, checked with the standard library alone.

1. Every line of the package fits in 100 columns.
2. Every name a module imports at top level is used in that module,
   __init__.py included: the package root re-exports nothing.  A
   __future__ import counts too, so none is left: Python 3.11 evaluates
   every annotation the package writes.
3. Every private name a module defines at top level is referenced somewhere
   in the package.
4. Every top-level function or class, and every non-dunder method, is
   referenced somewhere in src/, tests/ or perfbench/.
5. No module imports multiprocessing, concurrent or threading, at any level:
   every command runs in one process and one thread.
6. No module but correspondence.py references weyl._iter_rows outside
   weyl.py: the group is walked in one place, the scan's element loop.
7. The root index (_index_tables) is read only by the row layout
   (roots._row_starts) and by the two references, the independent
   constructions that rows are checked against; the layout is read only by
   the rules, the code that places bits for a run (rows, the S_n encoder and
   decoder, staircases and the relabel grid).  Which bit is which root is
   stated once, and every runtime check still compares two constructions.
8. No rule references positive_roots, and no definition in the package
   references root_index: rules read the layout, never Root objects, and no
   table hashes a Root.
9. Every check_cap call names its cap by a string literal that is a key of
   roots.CAPS, and only roots.check_cap raises RankCapError: a cap's value
   and name are written once, and there is one message builder.
10. No module but elements.py contains the string literal "[" (an
    f-string's pieces aside): SignedPerm.__str__ is the one writer of an
    element, and parse_signed_perm reads back every element the package
    prints.
11. weyl._row keeps the code pinned below, docstrings aside: each bit of
    the later value mask is shifted or read on its own, so every row is its
    base row joined with one piece per value in the mask.  That is what lets
    weyl._bad_pieces certify all rows from n^2 pieces, for both length
    histograms, and ce._unharmonic_rows weigh them from the 2n^2 piece rows.
12. No module but ideals.py computes the coordinate field width,
    (3 * n).bit_length(), or shifts by a multiple of it: a root's
    coefficient vector has one packed format, ideals._packed_roots, and one
    decoder, ideals._coordinates, so a root sum, a bracket's root and a
    monomial's weight are all read the same way.
13. No module imports argparse, at any level: the command line is parsed
    from cli.COMMANDS and cli.FLAGS, and argparse would load gettext and
    locale into every run's start-up.
14. Every non-dunder method of a class in the package is referenced in src/
    or perfbench/, and a class defines no dunder outside _DUNDERS: a value
    type carries no method that only tests call.  Rule 4 still lets tests be
    a function's only reader.  A dunder is reached by syntax, not by name,
    so _DUNDERS lists the ones a command runs.
15. A relabel has one builder: only correspondence._relabel_gather reads
    the sums-plus-longs grid (_phi1_grid), and it compiles a value map
    straight to the gather that the scan and the pairs module apply.
"""

import ast
from pathlib import Path

import pytest

import spcohom
from spcohom.roots import CAPS

MAX_COLUMNS = 100
MODULES = sorted(Path(spcohom.__file__).parent.glob("*.py"))


def _python_files(*roots: str) -> list[Path]:
    return sorted(
        path for root in roots for path in (Path(spcohom.__file__).parents[2] / root).rglob("*.py")
    )


# every place a definition of the package can be used
SOURCES = _python_files("src", "tests", "perfbench")
# the code that a command or the benchmark runs
RUNTIME = _python_files("src", "perfbench")


def _imported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _methods(tree: ast.Module):
    """Class.method for each method of each top-level class in tree."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )


def _functions_classes_and_methods(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    yield from (q for q in _methods(tree) if not _is_dunder(q.rpartition(".")[2]))


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


# the dunders a command runs, each with its reason
_DUNDERS = {
    "__eq__",  # Frozen: equality by field, as in trace_element's closed_form_sym_agrees
    "__hash__",  # Frozen: defining __eq__ alone would make a value unhashable
    "__repr__",  # Frozen: also the str of a value type that defines no __str__
    "__setattr__",  # Frozen: a field cannot be assigned once __init__ has set it
    "__delattr__",  # Frozen: nor deleted
    "__init__",  # construction, which validates the arguments
    "__str__",  # a root, element or ideal written into a report or a message
    "__len__",  # len of a RootSet
    "__mul__",  # the product of two IntPolynomials
}


def _test_only_methods(modules: dict[str, str], runtime: list[str]) -> list[str]:
    """module:Class.method for each method of a class in modules (name to
    source) that no runtime source references by name, and each dunder
    outside _DUNDERS."""
    referenced = {name for source in runtime for name in _references(ast.parse(source))}
    return [
        f"{module}:{qualname}"
        for module, source in modules.items()
        for qualname in _methods(ast.parse(source))
        for name in [qualname.rpartition(".")[2]]
        if name not in (_DUNDERS if _is_dunder(name) else referenced)
    ]


def test_every_method_is_run_by_a_command_or_the_benchmark():
    # a group operation or set operator that only tests call belongs in
    # tests/oracles.py, as a function over the value's fields
    modules = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    runtime = [path.read_text(encoding="utf-8") for path in RUNTIME]
    assert _test_only_methods(modules, runtime) == []


def test_a_test_only_method_is_caught():
    value_type = (
        "class Perm(Frozen):\n"
        "    def inverse(self):\n        return self\n"
        "    def __call__(self, m):\n        return m\n"
        "    def __str__(self):\n        return ''\n"
    )
    runtime = value_type + "def _witness_str(w):\n    return str(w)\n"
    modules = {"elements.py": value_type}
    assert _test_only_methods(modules, [runtime]) == [
        "elements.py:Perm.inverse",
        "elements.py:Perm.__call__",
    ]
    caller = "def _round_trip(w):\n    return w.inverse()\n"
    assert _test_only_methods(modules, [runtime, caller]) == ["elements.py:Perm.__call__"]


CONCURRENCY = {"multiprocessing", "concurrent", "threading"}


def _absolute_imports(source: str) -> list[str]:
    """The top-level package of every absolute import in source, at any level."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return [name.partition(".")[0] for name in found]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_process_or_thread_pool(path):
    pools = [m for m in _absolute_imports(path.read_text(encoding="utf-8")) if m in CONCURRENCY]
    assert pools == [], f"{path.name}: imports {pools}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_argparse(path):
    assert "argparse" not in _absolute_imports(path.read_text(encoding="utf-8")), path.name


def test_an_argparse_import_is_caught_at_any_level():
    for source in (
        "import argparse\n",
        "from argparse import ArgumentParser\n",
        "def build_parser():\n    import argparse as ap\n    return ap.ArgumentParser()\n",
    ):
        assert "argparse" in _absolute_imports(source), source
    assert "argparse" not in _absolute_imports("from . import argparse_notes\nimport sys\n")


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
}
# the code that places bits for a run
_RULES = {
    "weyl.py:_row",
    "weyl.py:_perm_inversion_mask",
    "weyl.py:_word_from_inversion_mask",
    "roots.py:_staircases",
    "roots.py:_mask_from_profile",
    "correspondence.py:_phi1_grid",
}


def test_rules_read_the_row_layout_and_references_read_the_root_index():
    assert _readers("_index_tables") == {"roots.py:_row_starts", *_REFERENCES}
    assert _readers("_row_starts") == _RULES


def test_a_relabel_has_one_builder():
    assert _readers("_phi1_grid") == {"correspondence.py:_relabel_gather"}


def test_rules_read_no_root_objects_and_no_table_hashes_them():
    # the layout alone says which bit a rule sets: a rule that enumerated the
    # Root objects would state the order a second time
    assert _readers("positive_roots") & _RULES == set()
    assert _readers("root_index") == set()


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
    same = _function_dump(source, "_row") == _function_dump(_UNION_FORM, "_row")
    return [] if same else ["_row"]


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


def _packs_coordinates(source: str) -> list[int]:
    """The lines of source that compute the field width, (3 * n).bit_length(),
    or shift by an expression that reads a name bound to it."""
    tree = ast.parse(source)

    def is_width(node):
        # .bit_length() of a product with the factor 3
        if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "bit_length"):
            return False
        product = node.func.value
        return (
            isinstance(product, ast.BinOp)
            and isinstance(product.op, ast.Mult)
            and 3 in {getattr(side, "value", None) for side in (product.left, product.right)}
        )

    widths = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and is_width(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if is_width(node)
        or isinstance(node, ast.BinOp)
        and isinstance(node.op, (ast.LShift, ast.RShift))
        and widths & set(_references(node.right))
    )


def test_only_ideals_packs_a_coordinate():
    packers = {
        path.name for path in MODULES if _packs_coordinates(path.read_text(encoding="utf-8"))
    }
    assert packers == {"ideals.py"}


def test_a_second_packing_of_the_weights_is_caught():
    # a weight DP that computes the width and packs and reads the fields
    # itself is caught; one that reads _packed_roots and _coordinates passes
    own = """
def _weight_dp(n, vectors):
    width = (3 * n).bit_length()
    states = {sum((n - 1) << (k * width) for k in range(n)): 1}
    mu = (key >> k * width) & 7
"""
    assert _packs_coordinates(own) == [3, 4, 5]
    reader = "def _subset_weight(n, key):\n    return _coordinates(n, bias + packed[key[0]] << 1)\n"
    assert _packs_coordinates(reader) == []


def test_the_lint_sees_every_module():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "roots.py", "weyl.py"}
    assert {p.name for p in SOURCES} >= {"cli.py", "test_lint.py", "run.py"}
    assert {p.name for p in RUNTIME} >= {"cli.py", "run.py", "trace_pass.py"}
    assert "test_lint.py" not in {p.name for p in RUNTIME}
