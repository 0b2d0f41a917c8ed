import itertools

import pytest

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
from spcohom.weyl import DEFAULT_GROUP_CAP


def test_polynomial_arithmetic():
    p = IntPolynomial.from_coeffs([1, 1])
    q = IntPolynomial.from_coeffs([1, 0, 1])
    assert (p * q).coeffs == (1, 1, 1, 1)
    assert IntPolynomial.from_coeffs([1, 1, 1, 1]).div_exact(p) == q
    assert IntPolynomial.from_coeffs([0, 0]).coeffs == (0,)
    assert IntPolynomial.geometric(3).coeffs == (1, 1, 1)


def test_division_faults_on_remainder():
    with pytest.raises(ConsistencyError):
        IntPolynomial.from_coeffs([1, 1, 1]).div_exact(IntPolynomial.from_coeffs([1, 1]))
    with pytest.raises(ConsistencyError):
        IntPolynomial.from_coeffs([1]).div_exact(IntPolynomial.from_coeffs([1, 1]))


def test_weyl_poincare_examples():
    assert weyl_poincare(1).coeffs == (1, 1)
    assert weyl_poincare(2).coeffs == (1, 2, 2, 2, 1)
    assert weyl_poincare(3).coefficient_sum() == 48


def test_sym_poincare_examples():
    assert sym_poincare(1).coeffs == (1,)
    assert sym_poincare(2).coeffs == (1, 1)
    assert sym_poincare(3).coeffs == (1, 2, 2, 1)


def test_ideal_generating_examples():
    assert ideal_generating(2).coeffs == (1, 1, 1, 1)
    assert ideal_generating(3).coeffs == (1, 1, 1, 2, 1, 1, 1)
    for n in range(1, 9):
        assert ideal_generating(n).coefficient_sum() == 2**n


@pytest.mark.parametrize("n", range(1, 11))
def test_coefficient_sums(n):
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    assert weyl_poincare(n).coefficient_sum() == 2**n * fact
    assert sym_poincare(n).coefficient_sum() == fact


@pytest.mark.parametrize("n", range(1, 11))
def test_palindromic(n):
    assert weyl_poincare(n).is_palindromic()
    assert sym_poincare(n).is_palindromic()
    assert ideal_generating(n).is_palindromic()


@pytest.mark.parametrize("n", range(1, 11))
def test_exact_quotient(n):
    assert weyl_poincare(n).div_exact(sym_poincare(n)) == ideal_generating(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerated_histograms_match_formulas(n):
    assert weyl_length_histogram(n) == weyl_poincare(n)
    assert sym_inversion_histogram(n) == sym_poincare(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_verify_identities_passes(n):
    report = verify_identities(n)
    assert report.passed


def test_verify_identities_with_injected_histogram():
    hist = weyl_length_histogram(3)
    report = verify_identities(3, weyl_hist=hist, betti=[1, 3, 5, 7, 8, 8, 7, 5, 3, 1])
    assert report.passed
    assert any(r.check_id == "betti-match" and not r.skipped for r in report.records)


def test_verify_identities_detects_bad_betti():
    report = verify_identities(2, betti=[1, 2, 3, 2, 1])
    assert not report.passed
    failed = [r.check_id for r in report.records if not r.passed]
    assert failed == ["betti-match"]


def test_sym_inversion_histogram_cap_refuses_before_any_permutation(monkeypatch):
    def no_permutations(*args):
        raise AssertionError("a permutation was built above the group cap")

    monkeypatch.setattr(itertools, "permutations", no_permutations)
    cap = DEFAULT_GROUP_CAP
    with pytest.raises(RankCapError):
        sym_inversion_histogram(cap + 1)
    with pytest.raises(RankCapError):
        verify_identities(cap + 1, weyl_hist=weyl_poincare(cap + 1))
