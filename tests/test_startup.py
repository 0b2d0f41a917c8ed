"""Which modules a fresh `python -m spcohom.cli` run loads.

Each run is a child interpreter started with -X importtime, which reports
every module added to sys.modules; the modules a bare interpreter already
loads at start-up are not counted as loaded by the command."""

import functools
import os
import subprocess
import sys

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
    f"spcohom.{m}" for m in ("ce", "correspondence", "ideals", "liealg", "poincare", "weyl")
}


def test_help_loads_no_command_module():
    mods = loaded(["verify", "--rank", "7", "--help"])
    assert "spcohom.errors" in mods
    heavy = {f"spcohom.{m}" for m in ("ce", "correspondence", "ideals", "liealg", "poincare")}
    assert mods & heavy == set()


def test_bijection_loads_no_cohomology_module():
    mods = loaded(["bijection", "--rank", "3"])
    assert "spcohom.correspondence" in mods
    assert mods & {"spcohom.ce", "spcohom.liealg", "spcohom.poincare"} == set()


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
