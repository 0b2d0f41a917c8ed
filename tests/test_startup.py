"""Which modules a fresh `python -m spcohom.cli` run loads, and how much
code it compiles.

Each run is a child interpreter started with -X importtime, which reports
every module added to sys.modules; the modules a bare interpreter already
loads at start-up are not counted as loaded by the command.  A run compiles
the source of every package module it loads, cli.py included (it runs as
__main__), so the compiled size is the sum of their ast.walk nodes."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spcohom
from test_cli import _EVERY_CAP, one_above

SRC = os.path.dirname(os.path.dirname(os.path.abspath(spcohom.__file__)))


def _imported(args: list[str], code: int) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rpartition("|")[2].strip() for line in lines[1:]}  # [0] is the header


@functools.lru_cache(maxsize=None)
def _at_start_up() -> frozenset[str]:
    return frozenset(_imported(["-c", "pass"], 0))


def loaded(argv: list[str], code: int = 0) -> set[str]:
    """The modules `python -m spcohom.cli *argv`, exiting with code, loads
    beyond start-up."""
    return _imported(["-m", "spcohom.cli", *argv], code) - _at_start_up()


COMMAND_MODULES = {
    f"spcohom.{m}"
    for m in (
        "ce",
        "correspondence",
        "elements",
        "ideals",
        "liealg",
        "pairs",
        "poincare",
        "suite",
        "tables",
        "weyl",
    )
}
# what start-up, parsing and the cap checks load, before any command module
FRONT_END = {f"spcohom.{m}" for m in ("cli", "errors", "report", "roots")}


def _source(module: str) -> Path:
    parts = module.split(".")[1:] or ["__init__"]
    return Path(SRC, "spcohom", *parts).with_suffix(".py")


def _trees(mods: set[str]) -> list[ast.Module]:
    """The parsed source of each package module in mods, and of cli.py."""
    package = {m for m in mods if m.partition(".")[0] == "spcohom"} | {"spcohom.cli"}
    return [ast.parse(_source(m).read_text(encoding="utf-8")) for m in sorted(package)]


def test_command_modules_are_every_module_but_the_front_end():
    # a new module must say whether a refusal may load it
    package = {"spcohom." + p.stem for p in Path(SRC, "spcohom").glob("*.py")}
    assert COMMAND_MODULES == package - FRONT_END - {"spcohom.__init__"}


def test_help_loads_no_command_module():
    mods = loaded(["verify", "--rank", "7", "--help"])
    assert "spcohom.errors" in mods
    heavy = {f"spcohom.{m}" for m in ("ce", "correspondence", "ideals", "liealg", "poincare")}
    assert mods & heavy == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--rank", "7", "--help"],
        ["verify", "--rank", "7", "--workers", "1", "--seed", "0"],
        ["bijection", "--rank", "7", "--workers", "2", "--seed", "0"],
        ["verify", "--rank", "4", "--workers", "1", "--seed", "0"],
    ],
    ids=" ".join,
)
def test_no_run_loads_argparse_gettext_or_locale(argv):
    # the command line is parsed from cli.COMMANDS and cli.FLAGS: argparse
    # loads gettext, and its first message lookup loads locale.  No module
    # imports __future__: Python 3.11 evaluates every annotation it writes
    assert loaded(argv) & {"argparse", "gettext", "locale", "__future__"} == set()


def test_bijection_loads_only_the_scan():
    # no ideal criteria, Lie algebra, polynomials or cochains, and no element
    # or pair object: a passing scan reads rows, staircases and relabel tables
    mods = loaded(["bijection", "--rank", "3"])
    assert "spcohom.correspondence" in mods
    skipped = {"ce", "elements", "ideals", "liealg", "pairs", "poincare", "tables"}
    assert mods & {f"spcohom.{m}" for m in skipped} == set()


def test_bijection_compiles_at_most_8000_nodes():
    # every fresh run compiles what it loads: here the front end and the
    # scan's closure (roots, weyl, correspondence), none of which may hold
    # the element types, the pair API or another command's report
    trees = _trees(loaded(["bijection", "--rank", "3"]))
    assert sum(sum(1 for _ in ast.walk(tree)) for tree in trees) <= 8000


@pytest.mark.parametrize("n, budget", [(7, 12_500), (4, 16_000)])
def test_verify_compiles_at_most_its_budget(n, budget):
    # compiling is about half of each benchmark workload's in-process time:
    # rank 7 compiles the front end, the scan, the ideal criteria, the Lie
    # table and the polynomials; rank 4, under the cohomology cap, adds ce
    trees = _trees(loaded(["verify", "--rank", str(n)]))
    assert sum(sum(1 for _ in ast.walk(tree)) for tree in trees) <= budget


def test_verify_compiles_no_element_or_pair_type():
    mods = loaded(["verify", "--rank", "7"])
    assert mods & {"spcohom.elements", "spcohom.pairs", "spcohom.tables"} == set()
    defined = {getattr(node, "name", None) for tree in _trees(mods) for node in tree.body}
    assert defined & {"Perm", "SignedPerm", "CorrespondencePair", "trace_element"} == set()


@pytest.mark.parametrize("argv, cap, what", _EVERY_CAP, ids=[" ".join(c[0]) for c in _EVERY_CAP])
def test_a_refusal_at_any_cap_loads_no_command_module(argv, cap, what):
    mods = loaded(one_above(argv, cap), code=2)
    assert "spcohom.roots" in mods
    assert mods & COMMAND_MODULES == set()


@pytest.mark.parametrize("n, loads_ce", [(3, True), (7, False)])
def test_verify_loads_ce_only_at_or_under_the_cohomology_cap(n, loads_ce):
    assert ("spcohom.ce" in loaded(["verify", "--rank", str(n)])) == loads_ce


@pytest.mark.parametrize(
    "argv",
    [
        ["ideals", "--rank", "3"],
        ["weyl", "--rank", "3"],
        ["bijection", "--rank", "3"],
        ["bijection", "--rank", "3", "--witness", "[2,-1,3]"],
        ["structure", "--rank", "3"],
        ["betti", "--rank", "2", "--format", "csv"],
        ["classes", "--rank", "2"],
        ["poincare", "--rank", "3"],
        ["verify", "--rank", "3"],
    ],
    ids=" ".join,
)
def test_no_command_loads_dataclasses(argv):
    mods = loaded(argv)
    assert "spcohom.report" in mods
    assert "dataclasses" not in mods
