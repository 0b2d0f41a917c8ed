"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion is exact; the time limits are the stated budgets.  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.  The
rank-4 cohomology case is opt-in: set SPCOHOM_TEST_RANK4=1.
"""

import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

import spcohom
from spcohom.ce import Cochain, betti_numbers, differential, verify_cohomology_basis
from spcohom.correspondence import verify_bijection
from spcohom.ideals import (
    dimension_histogram,
    enumerate_increasing,
    is_abelian_ideal_combinatorial,
    is_increasing,
)
from spcohom.liealg import is_abelian_ideal_lie
from spcohom.poincare import (
    ideal_generating,
    sym_inversion_histogram,
    sym_poincare,
    verify_identities,
    weyl_poincare,
)
from spcohom.roots import RootSet, num_diffs

_bijection_reports = {}


def bijection_report(n):
    if n not in _bijection_reports:
        _bijection_reports[n] = verify_bijection(n)
    return _bijection_reports[n]


def announce(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok


def test_criterion_01_ideal_count():
    t0 = time.perf_counter()
    ok = all(len(list(enumerate_increasing(n))) == 2**n for n in range(1, 9))
    elapsed = time.perf_counter() - t0
    announce(1, ok and elapsed < 1.0, f"2^n abelian ideals for n=1..8 ({elapsed:.3f}s)")


def test_criterion_02_dimension_histogram():
    t0 = time.perf_counter()
    ok = all(dimension_histogram(n) == ideal_generating(n) for n in range(1, 9))
    ok = ok and list(dimension_histogram(3).coeffs) == [1, 1, 1, 2, 1, 1, 1]
    elapsed = time.perf_counter() - t0
    announce(2, ok and elapsed < 1.0, f"dimension histograms equal prod(1+t^i) for n=1..8 ({elapsed:.3f}s)")


def test_criterion_03_increasing_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    scanned = {}
    for n in range(1, 6):
        nd = num_diffs(n)
        total = 1 << n * (n + 1) // 2
        scanned[n] = total
        for local in range(total):
            s = RootSet(n, local << nd)
            if is_increasing(s) != is_abelian_ideal_combinatorial(s):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and scanned[5] == 32768 and elapsed < 5.0
    announce(3, ok, f"upward-closed == root-addition ideal on all subsets, n<=5 ({elapsed:.2f}s)")


def test_criterion_04_lie_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    rng = random.Random(0)
    for n in range(1, 5):
        nd = num_diffs(n)
        for local in range(1 << n * (n + 1) // 2):
            s = RootSet(n, local << nd)
            if is_abelian_ideal_lie(n, s) != is_abelian_ideal_combinatorial(s):
                mismatches += 1
        for _ in range(10_000):
            mask = rng.getrandbits(n * n)
            if nd and not mask & (1 << nd) - 1:
                mask |= 1 << rng.randrange(nd)
            s = RootSet(n, mask)
            if is_abelian_ideal_lie(n, s) != is_abelian_ideal_combinatorial(s):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    announce(4, ok, f"matrix-level ideal test agrees with the root-addition one, n<=4 ({elapsed:.2f}s)")


def test_criterion_05_bijection_suite():
    t0 = time.perf_counter()
    core = (
        "pair-injective",
        "pair-onto",
        "sym-component-inversions",
        "ideal-component-increasing",
        "support-identity",
        "degree-additivity",
    )
    ok = True
    for n in range(1, 8):
        report = bijection_report(n)
        rec = {r.check_id: r for r in report.records}
        ok = ok and all(rec[c].passed for c in core)
        ok = ok and report.data["elements"] == 2**n * math.factorial(n)
    ok = ok and _bijection_reports[7].data["elements"] == 645_120
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    announce(5, ok, f"full correspondence suite, exhaustive n<=7 ({elapsed:.1f}s)")


def test_criterion_06_poincare_identities():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 8):
        hist_coeffs = bijection_report(n).data["weyl_length_histogram"]
        from spcohom.poincare import IntPolynomial

        report = verify_identities(n, weyl_hist=IntPolynomial.from_coeffs(hist_coeffs))
        ok = ok and report.passed
        ok = ok and sym_inversion_histogram(n) == sym_poincare(n)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    announce(6, ok, f"histograms equal closed forms; exact division; convolution, n<=7 ({elapsed:.1f}s)")


def test_criterion_07_betti_numbers():
    t0 = time.perf_counter()
    ok = betti_numbers(1) == [1, 1]
    ok = ok and betti_numbers(2) == [1, 2, 2, 2, 1]
    ok = ok and betti_numbers(3) == list(weyl_poincare(3).coeffs)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    announce(7, ok, f"CE Betti numbers equal the length histogram, n<=3 ({elapsed:.2f}s)")


@pytest.mark.skipif(
    os.environ.get("SPCOHOM_TEST_RANK4") != "1",
    reason="rank-4 cohomology is opt-in (SPCOHOM_TEST_RANK4=1)",
)
def test_criterion_07b_betti_rank4():
    t0 = time.perf_counter()
    ok = betti_numbers(4, cap=4) == list(weyl_poincare(4).coeffs)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1800.0
    announce("7b", ok, f"rank-4 Betti numbers, opt-in ({elapsed:.1f}s)")


def test_criterion_08_cohomology_basis():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        report = verify_cohomology_basis(n)
        ok = ok and report.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    announce(8, ok, f"cocycle classes form a basis; pair cocycles match, n<=3 ({elapsed:.2f}s)")


def test_criterion_09_d_squared_zero():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 5):
        for b in range(n * n):
            ok = ok and differential(differential(Cochain.monomial(n, (b,)))).is_zero()
        rng = random.Random(n)
        n2 = n * n
        for _ in range(1000):
            degree = rng.randrange(1, n2 - 1) if n2 > 2 else 1
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                key = tuple(sorted(rng.sample(range(n2), degree)))
                terms[key] = rng.choice([c for c in range(-9, 10) if c])
            c = Cochain(n, degree, terms)
            ok = ok and differential(differential(c)).is_zero()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    announce(9, ok, f"d(d(x)) == 0 on generators and seeded random cochains, n<=4 ({elapsed:.2f}s)")


def test_criterion_10_determinism(tmp_path):
    # the child process imports the same spcohom as this test, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(spcohom.__file__)))
    path_env = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path_env}
    t0 = time.perf_counter()
    outputs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "spcohom.cli", "verify", "--rank", "3",
             "--seed", "42", "--out", str(path)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1] and json.loads(outputs[0])["rank"] == 3
    announce(10, ok, f"two seeded verify runs are byte-identical ({elapsed:.1f}s)")
