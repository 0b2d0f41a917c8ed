import itertools
import json
import random

import pytest

from oracles import from_members, from_profile, from_roots, profile_valid, sum_root
from spcohom import correspondence, ideals
from spcohom.cli import main
from spcohom.errors import RankCapError
from spcohom.ideals import (
    IncreasingSet,
    _addable,
    _profile_from_mask,
    dimension_histogram,
    enumerate_increasing,
    is_abelian_ideal_combinatorial,
    is_increasing,
    order_certificate,
    precedes,
)
from spcohom.poincare import ideal_generating
from spcohom.roots import (
    CAPS,
    RootSet,
    _index_tables,
    diff,
    long,
    num_diffs,
    positive_roots,
    root_index,
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


@pytest.mark.parametrize("n", range(1, 13))
def test_enumerate_count_is_power_of_two(n):
    items = list(enumerate_increasing(n))
    assert len(items) == 1 << n
    assert len({i.members.mask for i in items}) == len(items)
    # the walk against the bit-by-bit parse, which reads the root index and
    # not the row table: each mask is the staircase of its profile, so 2^n
    # distinct masks are all the staircases, and in lexicographic order
    walked = list(ideals._staircases(n))
    assert all(_profile_from_mask(mask, n) == profile for profile, mask in walked)
    assert len({mask for _profile, mask in walked}) == 1 << n
    assert [profile for profile, _mask in walked] == sorted(profile for profile, _mask in walked)
    assert [(i.profile, i.members.mask) for i in items] == walked


@pytest.mark.parametrize("n", range(1, 6))
def test_profiles_consistent_with_members(n):
    for psi in enumerate_increasing(n):
        rebuilt = from_profile(n, psi.profile)
        assert rebuilt.members.mask == psi.members.mask
        assert psi.dimension == len(psi.members)
        # bounds nonincreasing over the nonempty prefix
        prev = n
        for i, b in enumerate(psi.profile, start=1):
            if b >= i:
                assert i <= b <= prev
                prev = b


def test_is_increasing_examples():
    assert is_increasing(from_roots(2, [long(1)]))
    assert not is_increasing(from_roots(2, [long(2)]))
    assert is_increasing(RootSet(3, 0))
    with pytest.raises(ValueError):
        is_increasing(from_roots(2, [diff(1, 2)]))


@pytest.mark.parametrize("n", range(1, 5))
def test_is_increasing_matches_literal_definition(n):
    for local in range(1 << n * (n + 1) // 2):
        s = phi1_subset(n, local)
        assert is_increasing(s) == literal_is_increasing(s)


def test_from_members_rejects_non_increasing():
    with pytest.raises(ValueError):
        from_members(2, from_roots(2, [long(2)]))


@pytest.mark.parametrize(
    "n, profile",
    [
        (3, (3, 2)),  # wrong length
        (3, (3, 3, 3, 3)),  # wrong length
        (3, (4, 3, 3)),  # b > n
        (3, (2, 3, 3)),  # a rising bound
        (3, (2, 1, 3)),  # a row after an empty row
        (4, (4, 1, 3, 3)),  # a row after an empty row
        (3, (3, 0, 2)),  # an empty row marked below i - 1
    ],
)
def test_from_profile_rejects_malformed_shapes(n, profile):
    with pytest.raises(ValueError, match="is not a staircase profile"):
        from_profile(n, profile)


def _reference_profile_valid(profile, n):
    """The staircase rule written out: length n, nonempty rows i <= b_i <=
    b_(i-1) (b_0 = n), and an empty row, b_i = i - 1, followed only by empty
    rows."""
    if len(profile) != n:
        return False
    prev = n
    empty_seen = False
    for i, b in enumerate(profile, start=1):
        if b == i - 1:
            empty_seen = True
        elif empty_seen or not i <= b <= prev:
            return False
        else:
            prev = b
    return True


@pytest.mark.parametrize("n", range(1, 5))
def test_profile_rule_matches_the_written_out_rule(n):
    # every tuple of length n - 1, n or n + 1 with entries in [-2, n + 1]
    tuples = [
        p for length in (n - 1, n, n + 1) for p in itertools.product(range(-2, n + 2), repeat=length)
    ]
    valid = [p for p in tuples if profile_valid(p, n)]
    assert [p for p in tuples if _reference_profile_valid(p, n)] == valid
    assert len(valid) == 2**n


def test_abelian_ideal_examples():
    assert not is_abelian_ideal_combinatorial(from_roots(2, [diff(1, 2)]))
    assert is_abelian_ideal_combinatorial(from_roots(2, [long(1), sum_root(1, 2)]))
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


@pytest.mark.parametrize("n", [*range(1, 9), 14, 16])
def test_order_certificate_passes(n):
    assert order_certificate(n) == (1 << n, 1 << n, _PASSING)


@pytest.mark.parametrize("n", range(1, 9))
def test_order_certificate_runs_no_predicate_and_builds_no_set(monkeypatch, n):
    # the staircases are decided from the closure masks alone
    def refused(*args):
        raise AssertionError("the certificate ran a predicate or built a value object")

    for name in ("is_abelian_ideal_combinatorial", "_closed_under", "IncreasingSet", "RootSet"):
        monkeypatch.setattr(ideals, name, refused)
    assert order_certificate(n) == (1 << n, 1 << n, _PASSING)


def test_order_certificate_refuses_above_the_ideal_cap_before_any_table(monkeypatch):
    def no_table(rank):
        raise AssertionError("_addable was built above the ideal cap")

    monkeypatch.setattr(ideals, "_addable", no_table)
    with pytest.raises(RankCapError):
        order_certificate(CAPS["ideal enumeration"] + 1)


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
    checked, distinct, faults = order_certificate(n)
    assert checked == distinct == 1 << n
    assert faults["order_mismatches"] > 0
    assert faults["exclusion_violations"] == faults["ideals_rejected"] == 0


@pytest.mark.parametrize("n", [3, 4, 6])
def test_order_certificate_passes_without_a_pair_implied_by_transitivity(monkeypatch, n):
    # 2e_n -> e_1 + e_n also runs through e_{n-1} + e_n, so the predicate
    # picks the same sums-only subsets and the certificate is exact about it
    idx = root_index(n)
    _patched_addable(monkeypatch, n, long(n), drop=(idx[diff(1, n)], idx[sum_root(1, n)]))
    assert order_certificate(n) == (1 << n, 1 << n, _PASSING)
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
    checked, distinct, faults = order_certificate(n)
    assert checked == distinct == 1 << n
    assert faults["exclusion_violations"] == 1
    assert faults["order_mismatches"] == 0
    # as the predicate does, the walk rejects the one staircase holding both
    # 2e_1 and 2e_n, the full one
    assert faults["ideals_rejected"] == 1


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
    checked, distinct, faults = order_certificate(n)
    assert checked == distinct == 1 << n
    assert faults["order_mismatches"] == 1
    assert faults["exclusion_violations"] == faults["ideals_rejected"] == 0


def _walk_changing_the_full_staircase(monkeypatch, n, change):
    """Make the staircase walk yield change(mask) in place of the full staircase."""
    real = ideals._staircases
    full = (n,) * n

    def walked(rank):
        for profile, mask in real(rank):
            yield profile, change(mask) if profile == full else mask

    monkeypatch.setattr(ideals, "_staircases", walked)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_order_certificate_rejects_a_walked_set_that_is_not_closed(monkeypatch, n):
    # the full staircase without 2e_1, the top of the order: every other
    # member reaches 2e_1, and the tables are untouched
    _, _, l_idx = _index_tables(n)
    _walk_changing_the_full_staircase(monkeypatch, n, lambda mask: mask & ~(1 << l_idx[1]))
    assert order_certificate(n) == (1 << n, 1 << n, {**_PASSING, "ideals_rejected": 1})


@pytest.mark.parametrize("n", [2, 3, 5])
def test_order_certificate_rejects_a_walked_set_with_a_difference(monkeypatch, n):
    # e_1 - e_2 is bit 0; the set is rejected, not looked up in the closure
    _walk_changing_the_full_staircase(monkeypatch, n, lambda mask: mask | 1)
    assert order_certificate(n) == (1 << n, 1 << n, {**_PASSING, "ideals_rejected": 1})


def test_a_walked_set_with_a_difference_fails_verify(monkeypatch, capsys):
    n = 3
    # the scan imports the walk by name: it keeps the real one
    _walk_changing_the_full_staircase(monkeypatch, n, lambda mask: mask | 1)
    assert main(["verify", "--rank", str(n)]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    # ideal-count still counts 2^n distinct sets; the dimension histogram,
    # which reads the same walk, counts the full staircase one root larger
    failed = {c["id"]: c["detail"] for c in json.loads(out)["checks"] if not c["pass"]}
    assert failed == {
        "increasing-vs-root-addition": {
            "mode": "certificate",
            "subsets_checked": 1 << n,
            **_PASSING,
            "ideals_rejected": 1,
        },
        "poincare.ideal-dimension-histogram": {
            "enumerated": [1, 1, 1, 2, 1, 1, 0, 1],
            "formula": [1, 1, 1, 2, 1, 1, 1],
        },
    }


def test_a_walk_that_yields_a_staircase_twice_fails_verify(monkeypatch, capsys):
    # the walk yields its first staircase again after the 2^n: the certificate
    # decides the sets it is given, and says how many
    n = 3
    real = ideals._staircases
    monkeypatch.setattr(ideals, "_staircases", lambda rank: [*real(rank), next(real(rank))])
    assert order_certificate(n) == ((1 << n) + 1, 1 << n, _PASSING)
    assert main(["verify", "--rank", str(n)]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert {check_id for check_id, c in checks.items() if not c["pass"]} == {
        "ideal-count",
        "poincare.ideal-dimension-histogram",
    }
    walked = (1 << n) + 1
    assert checks["ideal-count"]["detail"] == {"count": 1 << n, "expected": 1 << n, "walked": walked}
    assert checks["increasing-vs-root-addition"]["detail"] == {
        "mode": "certificate",
        "subsets_checked": walked,
        **_PASSING,
    }


def test_verify_builds_each_staircase_mask_from_a_profile_once(monkeypatch, capsys):
    # every consumer reads the walk's masks; only the closed forms build
    # theirs from a profile, one per set of flipped positions
    n = 6
    calls = []
    real = correspondence._mask_from_profile

    def counted(profile, rank):
        calls.append(profile)
        return real(profile, rank)

    monkeypatch.setattr(correspondence, "_mask_from_profile", counted)
    correspondence._recipes.cache_clear()
    correspondence._closed_forms.cache_clear()
    assert main(["verify", "--rank", str(n)]) == 0
    capsys.readouterr()
    assert len(calls) == 1 << n


def test_verify_walks_the_staircases_three_times(monkeypatch, capsys):
    # the order certificate (which also counts the distinct sets for
    # ideal-count), the inverse recipes and the dimension histogram
    calls = []
    real = ideals._staircases

    def counted(rank):
        calls.append(rank)
        return real(rank)

    for module in (ideals, correspondence):
        monkeypatch.setattr(module, "_staircases", counted)
    correspondence._recipes.cache_clear()
    assert main(["verify", "--rank", "6"]) == 0
    capsys.readouterr()
    assert calls == [6, 6, 6]


@pytest.mark.parametrize("n", range(1, 6))
def test_ideal_count_builds_no_set(monkeypatch, capsys, n):
    def refused(*args):
        raise AssertionError("ideal-count built a value object")

    for name in ("IncreasingSet", "RootSet"):
        monkeypatch.setattr(ideals, name, refused)
    assert main(["verify", "--rank", str(n)]) == 0
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["ideal-count"]["detail"] == {"count": 1 << n, "expected": 1 << n}


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
