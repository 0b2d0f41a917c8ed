import itertools
import math

import pytest

from spcohom import ConsistencyError, correspondence
from spcohom.cli import main
from spcohom.correspondence import (
    CorrespondencePair,
    cocycle_support,
    correspondence_pair,
    from_pair,
    ideal_component,
    ideal_component_closed_form,
    reversal_perm,
    sym_component,
    sym_component_closed_form,
    trace_element,
    verify_bijection,
    _construct_from_pair,
)
from spcohom.ideals import IncreasingSet, enumerate_increasing
from spcohom.roots import RootSet, long, sum_root
from spcohom.weyl import Perm, SignedPerm, enumerate_group, inversion_set, standard_form


def r(i, n):
    return SignedPerm.reflection(i, n)


def ideal_of(n, *roots):
    return IncreasingSet.from_members(n, RootSet.from_roots(n, roots))


def test_reversal_perm():
    rev = reversal_perm(4)
    assert rev.images == (4, 3, 2, 1)
    assert rev.compose(rev) == Perm.identity(4)


def test_sym_component_examples():
    assert sym_component(r(1, 2)) == Perm((2, 1))
    assert sym_component(r(2, 2)) == Perm.identity(2)
    # plain permutations are their own symmetric component
    for word in itertools.permutations((1, 2, 3)):
        assert sym_component(SignedPerm(word)) == Perm(word)


def test_ideal_component_examples():
    assert ideal_component(r(1, 2)).members.to_strings() == ["e1+e2", "2e1"]
    assert ideal_component(r(2, 2)).members.to_strings() == ["2e1"]
    for word in itertools.permutations((1, 2, 3)):
        assert ideal_component(SignedPerm(word)).dimension == 0


def test_pair_examples():
    p = correspondence_pair(r(1, 2))
    assert p == CorrespondencePair(Perm((2, 1)), ideal_of(2, long(1), sum_root(1, 2)))
    assert correspondence_pair(SignedPerm.identity(2)) == CorrespondencePair(
        Perm.identity(2), ideal_of(2)
    )
    p = correspondence_pair(r(2, 2))
    assert p.sym == Perm.identity(2)
    assert p.ideal.members.to_strings() == ["2e1"]


def test_closed_form_sym_examples():
    assert sym_component_closed_form(standard_form(r(1, 2))) == Perm((2, 1))
    assert sym_component_closed_form(standard_form(r(2, 2))) == Perm.identity(2)
    # no flipped values: the permutation itself
    w = SignedPerm((3, 1, 2))
    assert sym_component_closed_form(standard_form(w)) == Perm((3, 1, 2))


def test_closed_form_ideal_examples():
    sf = standard_form(r(1, 2))
    assert ideal_component_closed_form(sf).to_strings() == ["e1+e2", "2e1"]
    sf = standard_form(r(2, 2))
    assert ideal_component_closed_form(sf).to_strings() == ["2e1"]
    assert ideal_component_closed_form(standard_form(SignedPerm.identity(3))).mask == 0
    # flipped values 3, 2 at positions 1, 3: rows run to 3 + 1 - 1 and 3 + 2 - 3
    sf = standard_form(SignedPerm((-3, 1, -2)))
    assert ideal_component_closed_form(sf).to_strings() == ["e1+e2", "e1+e3", "2e1", "2e2"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_forms_match_definitional_maps(n):
    for w in enumerate_group(n):
        sf = standard_form(w)
        p = correspondence_pair(w)
        assert sym_component_closed_form(sf) == p.sym
        assert ideal_component_closed_form(sf).mask == p.ideal.members.mask


def test_from_pair_examples():
    n = 2
    assert from_pair(Perm.identity(n), ideal_of(n)) == SignedPerm.identity(n)
    assert from_pair(Perm((2, 1)), ideal_of(n, long(1), sum_root(1, 2))) == r(1, n)
    assert from_pair(Perm.identity(n), ideal_of(n, long(1))) == r(2, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_round_trip_both_ways(n):
    seen_pairs = set()
    for w in enumerate_group(n):
        p = correspondence_pair(w)
        key = (p.sym.images, p.ideal.members.mask)
        assert key not in seen_pairs
        seen_pairs.add(key)
        assert from_pair(p.sym, p.ideal) == w
    # and the other direction: every pair has a preimage
    for word in itertools.permutations(range(1, n + 1)):
        for psi in enumerate_increasing(n):
            w = from_pair(Perm(word), psi)
            p = correspondence_pair(w)
            assert p.sym.images == word and p.ideal.members.mask == psi.members.mask


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_direct_construction_never_falls_back(n):
    for w in enumerate_group(n):
        p = correspondence_pair(w)
        built = _construct_from_pair(p.sym.images, p.ideal.profile, n)
        assert built is not None
        word, jmask = built
        images = tuple(-v if jmask >> (v - 1) & 1 else v for v in word)
        assert SignedPerm(images) == w


def test_cocycle_support_examples():
    n = 2
    assert cocycle_support(Perm.identity(n), ideal_of(n)).mask == 0
    s = cocycle_support(Perm((2, 1)), ideal_of(n, long(1), sum_root(1, 2)))
    assert s.mask == inversion_set(r(1, n)).mask
    s = cocycle_support(Perm.identity(n), ideal_of(n, long(1)))
    assert s.mask == inversion_set(r(2, n)).mask


@pytest.mark.parametrize("n", [2, 3, 4])
def test_support_identity_everywhere(n):
    for w in enumerate_group(n):
        p = correspondence_pair(w)
        assert cocycle_support(p.sym, p.ideal).mask == inversion_set(w).mask


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        from_pair(Perm.identity(2), ideal_of(3))
    with pytest.raises(ValueError):
        cocycle_support(Perm.identity(3), ideal_of(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_bijection_passes(n):
    report = verify_bijection(n)
    assert report.passed
    assert report.data["elements"] == 2**n * math.factorial(n)
    assert report.data["distinct_pairs"] == report.data["elements"]
    rec = {r.check_id: r for r in report.records}
    assert rec["constructive-inverse"].detail["failures"] == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_distinct_pairs_match_brute_force(n):
    keys = set()
    for w in enumerate_group(n):
        p = correspondence_pair(w)
        keys.add((p.sym.images, p.ideal.members.mask))
    assert verify_bijection(n).data["distinct_pairs"] == len(keys)


def test_broken_inverse_fails_the_gates(monkeypatch, tmp_path, capsys):
    n = 3
    real = correspondence._construct_from_pair
    target = correspondence_pair(SignedPerm((2, -1, 3)))
    target_key = (target.sym.images, target.ideal.profile)

    def corrupted(sigma_word, profile, rank):
        built = real(sigma_word, profile, rank)
        if (sigma_word, profile) == target_key:
            word, jmask = built
            return word, jmask ^ 1  # flip the sign of the value 1
        return built

    monkeypatch.setattr(correspondence, "_construct_from_pair", corrupted)
    report = verify_bijection(n)
    rec = {r.check_id: r for r in report.records}
    assert not rec["constructive-inverse"].passed
    assert rec["constructive-inverse"].detail["failures"] == 1
    assert rec["constructive-inverse"].detail["witnesses"] == ["[2,-1,3]"]
    assert not rec["pair-injective"].passed
    assert rec["pair-onto"].passed
    assert report.data["distinct_pairs"] == 2**n * math.factorial(n)

    with pytest.raises(ConsistencyError):
        from_pair(target.sym, target.ideal)

    assert main(["bijection", "--rank", "3", "--out", str(tmp_path / "b.json")]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_distinct_pairs_exact_when_the_pair_map_is_not_injective(monkeypatch):
    # send every element's difference inversions to the identity's entry, so
    # that many elements share a pair and some of them still round-trip
    n = 3
    real = correspondence._sym_entry
    monkeypatch.setattr(correspondence, "_sym_entry", lambda phi0, rank: real(0, rank))
    keys = set()
    for w in enumerate_group(n):
        try:
            p = correspondence_pair(w)
        except ConsistencyError:
            continue
        keys.add((p.sym.images, p.ideal.members.mask))
    report = verify_bijection(n)
    assert report.data["distinct_pairs"] == len(keys) < 2**n * math.factorial(n)
    rec = {r.check_id: r for r in report.records}
    assert not rec["pair-injective"].passed and not rec["pair-onto"].passed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_scan_memo_holds_at_most_one_entry_per_permutation(n):
    # every permutation is the symmetric component of some element
    assert correspondence._scan_chunk(n, None, None, 5)["memo_size"] == math.factorial(n)
    half = correspondence._scan_chunk(n, 0, max(1, math.factorial(n) // 2), 5)
    assert half["memo_size"] <= math.factorial(n)


class _InlinePool:
    """Stands in for a process pool: runs the chunks in this process."""

    def __init__(self, processes, seen):
        seen["processes"] = processes
        self.seen = seen

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, args):
        self.seen["chunks"] = len(args)
        return [fn(*a) for a in args]


@pytest.mark.parametrize(
    "n, cpus, workers, chunks",
    [(4, 3, 5000, 3), (3, 64, 5000, 6), (4, 64, 2, 2), (4, 1, 5000, None)],
)
def test_workers_clamped_to_cpus_and_permutations(monkeypatch, n, cpus, workers, chunks):
    import multiprocessing
    from types import SimpleNamespace

    seen = {}
    monkeypatch.setattr(correspondence.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(
        multiprocessing,
        "get_context",
        lambda method: SimpleNamespace(Pool=lambda procs: _InlinePool(procs, seen)),
    )
    report = verify_bijection(n, workers=workers)
    assert report.passed
    assert seen.get("chunks") == chunks
    assert seen.get("processes") == chunks


def test_verify_bijection_workers_match_serial():
    serial = verify_bijection(3, workers=1)
    parallel = verify_bijection(3, workers=2)
    assert serial.checks_json() == parallel.checks_json()
    assert serial.data == parallel.data


@pytest.mark.parametrize("broken", ["closed-form-sym", "closed-form-ideal"])
def test_broken_closed_form_fails_its_gate(monkeypatch, tmp_path, capsys, broken):
    # corrupt the closed form of the element [2,-1,3] only
    real = correspondence._closed_form

    def corrupted(word, jmask, rowm):
        sym_word, ideal_mask = real(word, jmask, rowm)
        if (word, jmask) == ((2, 1, 3), 1):
            if broken == "closed-form-sym":
                sym_word = sym_word[::-1]
            else:
                ideal_mask ^= 1  # a difference root, never in an ideal
        return sym_word, ideal_mask

    monkeypatch.setattr(correspondence, "_closed_form", corrupted)
    report = verify_bijection(3)
    failed = {r.check_id: r.detail for r in report.records if not r.passed}
    assert failed == {broken: {"failures": 1, "witnesses": ["[2,-1,3]"]}}

    assert main(["bijection", "--rank", "3", "--out", str(tmp_path / "b.json")]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_trace_element_shape():
    doc = trace_element(SignedPerm((-1, 2)))
    assert doc["length"] == 3
    assert doc["inversion_set"] == ["e1-e2", "e1+e2", "2e1"]
    assert doc["sym_component"] == [2, 1]
    assert doc["ideal_component"] == ["e1+e2", "2e1"]
    assert doc["support_matches_inversions"]
    assert doc["degree_additive"]
    assert doc["closed_form_sym_agrees"]
    assert doc["closed_form_ideal"] == ["e1+e2", "2e1"]
    assert doc["closed_form_ideal_agrees"]
