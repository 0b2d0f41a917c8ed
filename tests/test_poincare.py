import itertools
import math

import pytest

from spcohom import poincare, roots, weyl
from spcohom.cli import main
from spcohom.errors import ConsistencyError, RankCapError
from spcohom.poincare import (
    IntPolynomial,
    ideal_generating,
    sym_inversion_histogram,
    sym_poincare,
    verify_identities,
    weyl_length_histogram,
    weyl_poincare,
)
from spcohom.report import VerificationReport
from spcohom.weyl import _perm_inversion_mask


def test_polynomial_arithmetic():
    p = IntPolynomial.from_coeffs([1, 1])
    q = IntPolynomial.from_coeffs([1, 0, 1])
    assert (p * q).coeffs == (1, 1, 1, 1)
    assert IntPolynomial.from_coeffs([0, 0]).coeffs == (0,)


@pytest.mark.parametrize("n", [*range(1, 25), 48])
def test_bracket_product_equals_the_dense_product(n):
    # each closed form's factors as explicit tuples, multiplied densely
    factors = {
        "weyl": [(1,) * (2 * i) for i in range(1, n + 1)],
        "sym": [(1,) * i for i in range(1, n + 1)],
        "ideal": [(1,) + (0,) * (i - 1) + (1,) for i in range(1, n + 1)],
    }
    pairs = {
        "weyl": [(2 * i, 1) for i in range(1, n + 1)],
        "sym": [(i, 1) for i in range(1, n + 1)],
        "ideal": [(2, i) for i in range(1, n + 1)],
    }
    for name, tuples in factors.items():
        dense = IntPolynomial((1,))
        for factor in tuples:
            dense = dense * IntPolynomial(factor)
        assert poincare._bracket_product(pairs[name]) == dense, name


def test_closed_forms_never_multiply_densely(monkeypatch):
    calls = []
    real = IntPolynomial.__mul__

    def no_dense(self, other):
        raise AssertionError("a closed form was built by a dense product")

    monkeypatch.setattr(IntPolynomial, "__mul__", no_dense)
    wp, sp, ig = weyl_poincare(64), sym_poincare(64), ideal_generating(64)
    assert sum(wp.coeffs) == 2**64 * math.factorial(64)

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(IntPolynomial, "__mul__", counted)
    report = VerificationReport(rank=64)
    assert poincare.add_formula_records(report, wp, sp, ig) == wp
    assert len(calls) == 1 and report.passed


def test_weyl_poincare_examples():
    assert weyl_poincare(1).coeffs == (1, 1)
    assert weyl_poincare(2).coeffs == (1, 2, 2, 2, 1)
    assert sum(weyl_poincare(3).coeffs) == 48


def test_sym_poincare_examples():
    assert sym_poincare(1).coeffs == (1,)
    assert sym_poincare(2).coeffs == (1, 1)
    assert sym_poincare(3).coeffs == (1, 2, 2, 1)


def test_ideal_generating_examples():
    assert ideal_generating(2).coeffs == (1, 1, 1, 1)
    assert ideal_generating(3).coeffs == (1, 1, 1, 2, 1, 1, 1)
    for n in range(1, 9):
        assert sum(ideal_generating(n).coeffs) == 2**n


@pytest.mark.parametrize("n", range(1, 11))
def test_coefficient_sums(n):
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    assert sum(weyl_poincare(n).coeffs) == 2**n * fact
    assert sum(sym_poincare(n).coeffs) == fact


@pytest.mark.parametrize("n", range(1, 11))
def test_palindromic(n):
    assert weyl_poincare(n).is_palindromic()
    assert sym_poincare(n).is_palindromic()
    assert ideal_generating(n).is_palindromic()


@pytest.mark.parametrize("n", range(1, 11))
def test_exact_quotient(n):
    assert sym_poincare(n) * ideal_generating(n) == weyl_poincare(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerated_histograms_match_formulas(n):
    assert weyl_length_histogram(n) == weyl_poincare(n)
    assert sym_inversion_histogram(n) == sym_poincare(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_verify_identities_passes(n):
    report = verify_identities(n)
    assert report.passed


def test_overlapping_rows_are_an_internal_error(monkeypatch, capsys):
    # the DP's length count needs disjoint rows; it does not fall back to
    # the expanded masks.  The flipped row of each value v also takes the
    # base row of a value u != v whenever u is after it, so the piece (v, u)
    # is off its root pair
    real = weyl._row

    def corrupted(n, v, later):
        up, down = real(n, v, later)
        u = 1 if v > 1 else 2
        if later >> (u - 1) & 1:
            down |= sum(real(n, u, 0))
        return up, down

    monkeypatch.setattr(weyl, "_row", corrupted)
    with pytest.raises(ConsistencyError):
        weyl_length_histogram(3)
    for command in ("weyl", "betti"):
        assert main([command, "--rank", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err


def test_verify_identities_with_injected_histogram():
    hist = weyl_length_histogram(3)
    report = verify_identities(3, weyl_hist=hist, include_betti_record=False)
    poincare.add_betti_record(report, [1, 3, 5, 7, 8, 8, 7, 5, 3, 1])
    assert report.passed
    assert any(
        r.check_id == "betti-match" and "skipped" not in (r.detail or {})
        for r in report.records
    )


def test_verify_identities_detects_bad_betti():
    report = verify_identities(2, include_betti_record=False)
    poincare.add_betti_record(report, [1, 2, 3, 2, 1])
    assert not report.passed
    failed = [r.check_id for r in report.records if not r.passed]
    assert failed == ["betti-match"]


def test_sym_inversion_histogram_cap_refuses_before_any_row(monkeypatch):
    def no_rows(*args):
        raise AssertionError("an S_n row was read above the group cap")

    monkeypatch.setattr(poincare, "_size_dp", no_rows)
    monkeypatch.setattr(poincare, "_perm_row", no_rows)
    cap = roots.CAPS["group enumeration"]
    with pytest.raises(RankCapError):
        sym_inversion_histogram(cap + 1)
    with pytest.raises(RankCapError):
        verify_identities(cap + 1, weyl_hist=weyl_poincare(cap + 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_sym_inversion_histogram_equals_the_enumeration(n):
    counts = [0] * (n * (n - 1) // 2 + 1)
    for word in itertools.permutations(range(1, n + 1)):
        counts[_perm_inversion_mask(word, n).bit_count()] += 1
    assert sym_inversion_histogram(n) == IntPolynomial.from_coeffs(counts)


def test_sym_inversion_histogram_equals_the_product_form_at_rank_16(monkeypatch):
    # above the group cap, so the cap is raised for this one call
    monkeypatch.setitem(roots.CAPS, "group enumeration", 16)
    assert sym_inversion_histogram(16) == sym_poincare(16)


def test_a_dp_row_that_differs_from_the_root_index_exits_3(monkeypatch, capsys):
    # the letter 1 after the letter 2 loses its inversion e_1 - e_2; only
    # the S_n DP reads poincare's name for the row
    real = poincare._perm_row

    def dropped(n, before, v):
        return 0 if (before, v) == (0b10, 1) else real(n, before, v)

    monkeypatch.setattr(poincare, "_perm_row", dropped)
    with pytest.raises(ConsistencyError):
        sym_inversion_histogram(3)
    assert main(["verify", "--rank", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "differs from the root index" in captured.err and "Traceback" not in captured.err
