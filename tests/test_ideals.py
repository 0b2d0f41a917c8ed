import random

import pytest

from spcohom import ideals
from spcohom.ideals import (
    IncreasingSet,
    dimension_histogram,
    enumerate_increasing,
    is_abelian_ideal_combinatorial,
    is_increasing,
    order_certificate,
)
from spcohom.poincare import ideal_generating
from spcohom.roots import (
    RootSet,
    _addable,
    diff,
    long,
    num_diffs,
    positive_roots,
    precedes,
    root_index,
    sum_root,
)


def phi1_subset(n, local_mask):
    return RootSet(n, local_mask << num_diffs(n))


def literal_is_increasing(s):
    """The two-point definition, quadratic and oblivious to staircases."""
    n = s.rank
    phi1 = [r for r in positive_roots(n) if r.in_phi1]
    members = set(s.roots())
    return all(y in members for x in members for y in phi1 if precedes(x, y))


def test_enumerate_rank1():
    got = [i.members.to_strings() for i in enumerate_increasing(1)]
    assert got == [[], ["2e1"]]


def test_enumerate_rank2():
    got = [i.members.to_strings() for i in enumerate_increasing(2)]
    assert got == [[], ["2e1"], ["e1+e2", "2e1"], ["e1+e2", "2e1", "2e2"]]


@pytest.mark.parametrize("n", range(1, 11))
def test_enumerate_count_is_power_of_two(n):
    items = list(enumerate_increasing(n))
    assert len(items) == 1 << n
    assert len({i.members.mask for i in items}) == len(items)


@pytest.mark.parametrize("n", range(1, 6))
def test_profiles_consistent_with_members(n):
    for psi in enumerate_increasing(n):
        rebuilt = IncreasingSet.from_profile(n, psi.profile)
        assert rebuilt.members.mask == psi.members.mask
        assert psi.dimension == len(psi.members)
        # bounds nonincreasing over the nonempty prefix
        prev = n
        for i, b in enumerate(psi.profile, start=1):
            if b >= i:
                assert i <= b <= prev
                prev = b


def test_is_increasing_examples():
    assert is_increasing(RootSet.from_roots(2, [long(1)]))
    assert not is_increasing(RootSet.from_roots(2, [long(2)]))
    assert is_increasing(RootSet.empty(3))
    with pytest.raises(ValueError):
        is_increasing(RootSet.from_roots(2, [diff(1, 2)]))


@pytest.mark.parametrize("n", range(1, 5))
def test_is_increasing_matches_literal_definition(n):
    for local in range(1 << n * (n + 1) // 2):
        s = phi1_subset(n, local)
        assert is_increasing(s) == literal_is_increasing(s)


def test_from_members_rejects_non_increasing():
    with pytest.raises(ValueError):
        IncreasingSet.from_members(2, RootSet.from_roots(2, [long(2)]))


def test_abelian_ideal_examples():
    assert not is_abelian_ideal_combinatorial(RootSet.from_roots(2, [diff(1, 2)]))
    assert is_abelian_ideal_combinatorial(RootSet.from_roots(2, [long(1), sum_root(1, 2)]))
    for n in range(1, 7):
        full_phi1 = RootSet(n, ((1 << n * n) - 1) ^ ((1 << num_diffs(n)) - 1))
        assert is_abelian_ideal_combinatorial(full_phi1)


@pytest.mark.parametrize("n", range(1, 6))
def test_increasing_iff_abelian_ideal(n):
    for local in range(1 << n * (n + 1) // 2):
        s = phi1_subset(n, local)
        assert is_increasing(s) == is_abelian_ideal_combinatorial(s)


def test_increasing_iff_abelian_ideal_sampled_rank6():
    n = 6
    rng = random.Random(6)
    nphi1 = n * (n + 1) // 2
    masks = {rng.getrandbits(nphi1) for _ in range(20_000)}
    masks.update(psi.members.mask >> num_diffs(n) for psi in enumerate_increasing(n))
    for local in masks:
        s = phi1_subset(n, local)
        assert is_increasing(s) == is_abelian_ideal_combinatorial(s)


_PASSING = {"exclusion_violations": 0, "order_mismatches": 0, "ideals_rejected": 0}


@pytest.mark.parametrize("n", [*range(1, 9), 14])
def test_order_certificate_passes(n):
    assert order_certificate(n) == _PASSING


def _patched_addable(monkeypatch, n, a, drop=None, add=None):
    """Make ideals read _addable(n) with the pair drop removed from, or the
    pair add appended to, the row of root a."""
    rows = list(_addable(n))
    row = root_index(n)[a]
    rows[row] = tuple(p for p in rows[row] if p != drop) + ((add,) if add else ())
    assert rows[row] != _addable(n)[row]
    monkeypatch.setattr(ideals, "_addable", lambda rank: tuple(rows))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_order_certificate_fails_without_a_covering_pair(monkeypatch, n):
    # 2e_n + (e_{n-1} - e_n) = e_{n-1} + e_n is the only way up from 2e_n to
    # e_{n-1} + e_n, so the closure of a -> g loses that order relation
    idx = root_index(n)
    pair = idx[diff(n - 1, n)], idx[sum_root(n - 1, n)]
    _patched_addable(monkeypatch, n, long(n), drop=pair)
    faults = order_certificate(n)
    assert faults["order_mismatches"] > 0
    assert faults["exclusion_violations"] == faults["ideals_rejected"] == 0


@pytest.mark.parametrize("n", [3, 4, 6])
def test_order_certificate_passes_without_a_pair_implied_by_transitivity(monkeypatch, n):
    # 2e_n -> e_1 + e_n also runs through e_{n-1} + e_n, so the predicate
    # picks the same sums-only subsets and the certificate is exact about it
    idx = root_index(n)
    _patched_addable(monkeypatch, n, long(n), drop=(idx[diff(1, n)], idx[sum_root(1, n)]))
    assert order_certificate(n) == _PASSING
    if n <= 4:
        for local in range(1 << n * (n + 1) // 2):
            s = phi1_subset(n, local)
            assert is_increasing(s) == is_abelian_ideal_combinatorial(s)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_order_certificate_fails_when_a_sums_root_is_addable(monkeypatch, n):
    # adding 2e_n to 2e_1 "gives" 2e_1 itself, so the closure of a -> g is
    # unchanged and only the exclusion half sees the sums root b
    idx = root_index(n)
    _patched_addable(monkeypatch, n, long(1), add=(idx[long(n)], idx[long(1)]))
    faults = order_certificate(n)
    assert faults["exclusion_violations"] == 1
    assert faults["order_mismatches"] == 0


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("change", ["drop", "add"])
def test_order_certificate_fails_when_precedes_is_perturbed(monkeypatch, n, change):
    # drop 2e_n <= 2e_1 from the order, or add 2e_1 <= 2e_n to it
    top, bottom = long(1), long(n)
    if change == "drop":
        perturbed = lambda x, y: precedes(x, y) and (x, y) != (bottom, top)
    else:
        perturbed = lambda x, y: precedes(x, y) or (x, y) == (top, bottom)
    monkeypatch.setattr(ideals, "precedes", perturbed)
    faults = order_certificate(n)
    assert faults["order_mismatches"] == 1
    assert faults["exclusion_violations"] == faults["ideals_rejected"] == 0


def test_order_certificate_runs_the_predicate_on_every_enumerated_ideal(monkeypatch):
    # a predicate that rejects the full staircase, whatever the tables say
    n = 4
    full = max(psi.members.mask for psi in enumerate_increasing(n))
    real = ideals.is_abelian_ideal_combinatorial
    monkeypatch.setattr(
        ideals, "is_abelian_ideal_combinatorial", lambda s: s.mask != full and real(s)
    )
    assert order_certificate(n) == {**_PASSING, "ideals_rejected": 1}


@pytest.mark.parametrize("n", [2, 3])
def test_sets_with_differences_never_pass_exhaustive(n):
    nd = num_diffs(n)
    for mask in range(1, 1 << n * n):
        if mask & (1 << nd) - 1:
            assert not is_abelian_ideal_combinatorial(RootSet(n, mask))


@pytest.mark.parametrize("n", [4, 5])
def test_sets_with_differences_never_pass_sampled(n):
    # 2^(n^2) subsets is out of reach at rank 5; a seeded sample plus the
    # exhaustive low ranks above covers the rejection property
    rng = random.Random(n)
    nd = num_diffs(n)
    for _ in range(100_000):
        mask = rng.getrandbits(n * n)
        if not mask & (1 << nd) - 1:
            mask |= 1 << rng.randrange(nd)
        assert not is_abelian_ideal_combinatorial(RootSet(n, mask))


def test_histogram_examples():
    assert list(dimension_histogram(1).coeffs) == [1, 1]
    assert list(dimension_histogram(2).coeffs) == [1, 1, 1, 1]
    assert list(dimension_histogram(3).coeffs) == [1, 1, 1, 2, 1, 1, 1]


@pytest.mark.parametrize("n", range(1, 11))
def test_histogram_matches_generating_function(n):
    assert dimension_histogram(n) == ideal_generating(n)
