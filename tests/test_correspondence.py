import itertools
import json
import math
import random
import tracemalloc
from operator import itemgetter

import pytest

from oracles import from_members, from_roots, perm_from_inversions, sum_root
from subset_dp import index_row
from spcohom import correspondence, elements, ideals, pairs, roots, weyl
from spcohom.cli import main
from spcohom.correspondence import verify_bijection, _construct, _relabel_table
from spcohom.elements import (
    Perm,
    SignedPerm,
    StandardForm,
    enumerate_group,
    inversion_set,
    standard_form,
)
from spcohom.errors import ConsistencyError
from spcohom.ideals import IncreasingSet, _profile_from_mask, enumerate_increasing
from spcohom.pairs import (
    CorrespondencePair,
    cocycle_support,
    correspondence_pair,
    from_pair,
    ideal_component,
    ideal_component_closed_form,
    sym_component,
    sym_component_closed_form,
    trace_element,
    _relabel,
)
from spcohom.roots import CAPS, RootSet, diff, long, positive_roots, root_index
from spcohom.weyl import _expand, _perm_inversion_mask, _sign_patterns


def r(i, n):
    return SignedPerm.reflection(i, n)


def ideal_of(n, *roots):
    return from_members(n, from_roots(n, roots))


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
        built = _construct(p.sym.images, p.ideal.members.mask, n)
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
    real = correspondence._recipes
    target = correspondence_pair(SignedPerm((2, -1, 3)))
    target_mask = target.ideal.members.mask

    def corrupted(rank):
        table = dict(real(rank))
        if rank == n:
            gather, k = table[target_mask]
            # reverse the word built for the target's permutation only
            table[target_mask] = (
                lambda word: gather(word)[::-1] if word == target.sym.images else gather(word)
            ), k
        return table

    monkeypatch.setattr(correspondence, "_recipes", corrupted)
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


def test_wrong_flip_count_fails_the_inverse_on_its_ideal(monkeypatch):
    # the recipe for the ideal {2e1} flips one value too many, so every
    # element with that ideal fails its round trip
    n = 3
    psi = ideal_of(n, long(1))
    real = correspondence._recipes

    def corrupted(rank):
        table = dict(real(rank))
        gather, k = table[psi.members.mask]
        table[psi.members.mask] = gather, k + 1
        return table

    monkeypatch.setattr(correspondence, "_recipes", corrupted)
    hit = [w for w in enumerate_group(n) if correspondence_pair(w).ideal == psi]
    hit.sort(key=lambda w: (w.perm.images, sum(1 << (v - 1) for v in w.negated)))
    assert len(hit) == math.factorial(n)
    failed = {r.check_id: r.detail for r in verify_bijection(n).records if not r.passed}
    assert failed == {
        "pair-injective": {"elements": 48, "distinct_pairs": 48},
        "constructive-inverse": {"failures": 6, "witnesses": [str(w) for w in hit[:5]]},
    }


def test_relabel_that_is_no_bit_permutation_fails_degree_additivity(monkeypatch):
    # a compiled relabel that reads one binary digit twice changes the number
    # of sum inversions of some elements; the scan reports what a per-element
    # evaluation through the same broken _relabel does
    monkeypatch.setattr(correspondence, "_relabel_gather", lambda table: itemgetter(0, 1, 0))
    counts, result = _assert_scan_matches_reference(2, relabel=_module_relabel)
    assert counts["degree_fail"] > 0
    assert result["per_element_perms"] == 2


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


def _break_closed_form_ideal(monkeypatch, n):
    """Put a difference root, never in an ideal, into the closed-form ideal
    of the flipped positions P = {0} at rank n, so that one element of every
    permutation fails closed-form-ideal and the scan fails."""
    table = list(correspondence._closed_forms(n))
    table[1] = table[1][0], table[1][1] ^ 1
    monkeypatch.setattr(correspondence, "_closed_forms", lambda rank: tuple(table))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("fault", [None, "closed-form-ideal"])
def test_scan_entries_come_from_the_element_loop_alone(monkeypatch, n, fault):
    # one _sym_entry per distinct symmetric component of the permutations
    # that run the element loop, and no other: the first permutation's when
    # the scan passes, and also every permutation's when a wrong closed-form
    # ideal fails them all
    if fault:
        _break_closed_form_ideal(monkeypatch, n)
    calls = []
    real = correspondence._sym_entry
    monkeypatch.setattr(
        correspondence, "_sym_entry", lambda phi0, rank: calls.append(phi0) or real(phi0, rank)
    )
    result = correspondence._scan(n)
    words = list(itertools.permutations(range(1, n + 1)))
    if fault:
        assert result["per_element_perms"] == len(words)
        assert len(calls) <= 2**n * (1 + len(words))
    else:
        assert result["per_element_perms"] == 1
        components = {gather(words[0]) for gather, _ideal in correspondence._closed_forms(n)}
        assert sorted(calls) == sorted(_perm_inversion_mask(eta, n) for eta in components)


def test_from_pair_builds_at_most_one_relabel_table(monkeypatch):
    n = 3
    pairs = [(p.sym, p.ideal) for p in map(correspondence_pair, enumerate_group(n))]
    calls = []
    real = correspondence._relabel_table

    def counted(value_map, rank):
        calls.append(value_map)
        return real(value_map, rank)

    monkeypatch.setattr(correspondence, "_relabel_table", counted)
    for sigma, psi in pairs:
        calls.clear()
        from_pair(sigma, psi)
        assert len(calls) <= 1


@pytest.mark.parametrize("broken", ["closed-form-sym", "closed-form-ideal"])
def test_broken_closed_form_fails_its_gate(monkeypatch, tmp_path, capsys, broken):
    # corrupt the closed-form entry of the flipped positions P = {1}: its
    # gather for the word of [2,-1,3] only, or its ideal for every word
    table = list(correspondence._closed_forms(3))
    gather, ideal_mask = table[2]
    if broken == "closed-form-sym":
        table[2] = (lambda w: gather(w)[::-1] if w == (2, 1, 3) else gather(w)), ideal_mask
        expected = {"failures": 1, "witnesses": ["[2,-1,3]"]}
    else:
        table[2] = gather, ideal_mask ^ 1  # a difference root, never in an ideal
        witnesses = ["[1,-2,3]", "[1,-3,2]", "[2,-1,3]", "[2,-3,1]", "[3,-1,2]"]
        expected = {"failures": 6, "witnesses": witnesses}
    table = tuple(table)
    monkeypatch.setattr(correspondence, "_closed_forms", lambda rank: table)
    report = verify_bijection(3)
    failed = {r.check_id: r.detail for r in report.records if not r.passed}
    assert failed == {broken: expected}

    assert main(["bijection", "--rank", "3", "--out", str(tmp_path / "b.json")]) == 1
    assert "Traceback" not in capsys.readouterr().err


def _loop_recipe(sigma_word, profile, n):
    """The direct inverse recipe as a loop: flip the k values at the tail of
    the word, one per nonempty staircase row, place the t-th one at position
    n + t - b_t and fill the other positions in order."""
    k = 0
    while k < n and profile[k] >= k + 1:
        k += 1
    jlist = [sigma_word[n - t] for t in range(1, k + 1)]
    out = [0] * n
    prev = 0
    for t in range(1, k + 1):
        p = n + t - profile[t - 1]
        if not prev < p <= n:
            return None
        out[p - 1] = jlist[t - 1]
        prev = p
    fill = iter(sigma_word[: n - k])
    out = [next(fill) if v == 0 else v for v in out]
    return tuple(out), sum(1 << (v - 1) for v in jlist)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_recipe_table_matches_the_loop_recipe(n):
    assert len(correspondence._recipes(n)) == 2**n
    for psi in enumerate_increasing(n):
        for word in itertools.permutations(range(1, n + 1)):
            assert _construct(word, psi.members.mask, n) == _loop_recipe(word, psi.profile, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_form_table_matches_the_formula(n):
    # for the set P of flipped positions, the symmetric word keeps the other
    # positions in order and then the flipped ones reversed, and row t of the
    # ideal runs from 2e_t to e_t + e_b, b = n + t - p_t, p_t the t-th flipped
    table = correspondence._closed_forms(n)
    assert len(table) == 2**n
    positions = tuple(range(1, n + 1))
    for pset, (gather, ideal_mask) in enumerate(table):
        flipped = [p for p in positions if pset >> (p - 1) & 1]
        kept = [p for p in positions if not pset >> (p - 1) & 1]
        assert gather(positions) == tuple(kept + flipped[::-1])
        roots = []
        for t, p in enumerate(flipped, start=1):
            roots.append(long(t))
            roots.extend(sum_root(t, j) for j in range(t + 1, n + t - p + 1))
        assert ideal_mask == from_roots(n, roots).mask


@pytest.mark.parametrize("n", range(1, 9))
def test_gather_relabel_matches_bit_by_bit(n):
    rng = random.Random(n)
    index = root_index(n)
    for _ in range(10):
        values = list(range(1, n + 1))
        rng.shuffle(values)
        value_map = (0, *values)
        table = _relabel_table(value_map, n)
        for _ in range(20):
            mask = rng.getrandbits(n * n)
            expected = 0
            for b, root in enumerate(positive_roots(n)):
                if root.in_phi1 and mask >> b & 1:
                    i, j = sorted((value_map[root.i], value_map[root.j]))
                    expected |= 1 << index[long(i) if i == j else sum_root(i, j)]
            assert _relabel(mask, table, n) == expected


_FAILS = (
    "sym_fail",
    "incr_fail",
    "support_fail",
    "degree_fail",
    "construct_fail",
    "closed_sym_fail",
    "closed_ideal_fail",
)


@pytest.mark.parametrize(
    "n, perms, elements, hist",
    [
        (1, None, 2, [1, 1]),
        (2, None, 8, [1, 2, 2, 2, 1]),
        (3, None, 48, [1, 3, 5, 7, 8, 8, 7, 5, 3, 1]),
        (4, None, 384, [1, 4, 9, 16, 24, 32, 39, 44, 46, 44, 39, 32, 24, 16, 9, 4, 1]),
        # the identity word: negating the value i inverts 2n - 2i + 1 roots
        (4, 1, 16, [1, 1, 0, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 0, 1, 1]),
        (
            5,
            None,
            3840,
            [1, 5, 14, 30, 54, 86, 125, 169, 215, 259, 297, 325, 340]
            + [340, 325, 297, 259, 215, 169, 125, 86, 54, 30, 14, 5, 1],
        ),
    ],
)
def test_scan_chunk_matches_pinned_values(n, perms, elements, hist):
    # every case here meets all 2^n sets of flipped positions
    assert sum(hist) == elements
    assert correspondence._scan_chunk(n, perms) == {
        "counts": dict.fromkeys(_FAILS, 0),
        "witnesses": dict.fromkeys(_FAILS, []),
        "hist": hist,
        "failed_keys": set(),
        "per_element_perms": elements >> n,
    }


def test_passing_scan_checks_one_permutation_element_by_element():
    # the first permutation is checked element by element; every other one
    # is a renaming of it
    result = correspondence._scan(5)
    assert result["per_element_perms"] == 1
    assert sum(result["hist"]) == 120 * 2**5


def test_corrupt_rho_table_fails_the_support_identity(monkeypatch, tmp_path, capsys):
    failing = _corrupt_rho_table(monkeypatch, (2, 3, 1))
    report = verify_bijection(3)
    failed = {r.check_id: r.detail for r in report.records if not r.passed}
    assert failed == {
        "support-identity": {"failures": 6, "witnesses": [str(w) for w in failing[:5]]}
    }

    assert main(["bijection", "--rank", "3", "--out", str(tmp_path / "b.json")]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_corrupt_rho_table_of_a_later_word_shows_in_its_witness_trace(monkeypatch, tmp_path):
    # the first permutation's element with this component has an ideal that
    # the swapped entries do not touch, so the batch takes the component as
    # defined and the scan passes; the table is checked where it runs, and
    # --witness of each failing element reports its support identity broken
    target = (2, 3, 4, 1)
    failing = _corrupt_rho_table(monkeypatch, target)
    assert verify_bijection(4).passed
    others = [w for w in enumerate_group(4) if sym_component(w).images == target]
    assert set(failing) < set(others)
    out = tmp_path / "w.json"
    for w in others:
        assert main(["bijection", "--rank", "4", "--witness", str(w), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["data"]
        assert doc["support_matches_inversions"] == (w not in failing)


def _corrupt_rho_table(monkeypatch, target):
    """Swap two entries of rho's relabel table for the symmetric component
    target; returns the elements whose support identity then fails, in the
    scan's witness order."""
    n = len(target)
    nd = n * (n - 1) // 2
    real = correspondence._rho_table

    def corrupted(word, rank):
        table = list(real(word, rank))
        if tuple(word) == target:
            table[3], table[5] = table[5], table[3]
        return tuple(table)

    monkeypatch.setattr(correspondence, "_rho_table", corrupted)
    failing = []
    for w in enumerate_group(n):
        pair = correspondence_pair(w)
        table = corrupted(pair.sym.images, n)
        back = 0
        for b in range(nd, n * n):
            if pair.ideal.members.mask >> b & 1:
                back |= 1 << (nd + table[b - nd])
        inv = inversion_set(w).mask
        if inv & ((1 << nd) - 1) | back != inv:
            failing.append(w)
    failing.sort(key=lambda w: (w.perm.images, sum(1 << (v - 1) for v in w.negated)))
    assert len(failing) == 6
    return failing


def _bitwise_relabel(mask, value_map, n):
    """The sums-plus-longs bits of mask with both indices of each root sent
    through value_map, one bit at a time."""
    index = root_index(n)
    out = 0
    for b, root in enumerate(positive_roots(n)):
        if root.in_phi1 and mask >> b & 1:
            i, j = sorted((value_map[root.i], value_map[root.j]))
            out |= 1 << index[long(i) if i == j else sum_root(i, j)]
    return out


def _evaluate(word, jmask, mask, n):
    """The per-element checks that fail for the walked element (word, jmask,
    mask), evaluated from the definitions with bit-by-bit relabels."""
    nd = n * (n - 1) // 2
    phi0 = mask & ((1 << nd) - 1)
    sym = perm_from_inversions(RootSet(n, phi0), n)
    if sym is None:
        return ["sym_fail"]
    pi = {v: n + 1 - p for p, v in enumerate(sym.images, start=1)}
    xi = _bitwise_relabel(mask, pi, n)
    if _profile_from_mask(xi, n) is None:
        return ["incr_fail"]
    failed = []
    if phi0 | _bitwise_relabel(xi, (0, *reversed(sym.images)), n) != mask:
        failed.append("support_fail")
    if mask.bit_count() != phi0.bit_count() + xi.bit_count():
        failed.append("degree_fail")
    if _construct(sym.images, xi, n) != (word, jmask):
        failed.append("construct_fail")
    sf = StandardForm(tuple(v for v in word if jmask >> (v - 1) & 1), Perm(word))
    if sym_component_closed_form(sf) != sym:
        failed.append("closed_sym_fail")
    if ideal_component_closed_form(sf).mask != xi:
        failed.append("closed_ideal_fail")
    return failed


def _patch_row(monkeypatch, fault):
    """Make the row function the walk and the DP call give fault(v, later,
    plus, minus) in place of the rows (plus, minus) of the value v with the
    later-value mask later."""
    real = weyl._row

    def corrupted(rank, v, later):
        return fault(v, later, *real(rank, v, later))

    monkeypatch.setattr(weyl, "_row", corrupted)


def _walked_elements(n):
    """(word, jmask, mask) for every element the scan's walk yields, jmask
    the flipped values of the element's positions."""
    for word, plus, minus in correspondence._iter_rows(n):
        for pset, mask in enumerate(_expand(plus, minus)):
            jmask = sum(1 << (v - 1) for p, v in enumerate(word) if pset >> p & 1)
            yield word, jmask, mask


@pytest.mark.parametrize(
    "pos, bit, q",
    [(1, 4, None), (1, 8, None), (0, 2, 3)],
    ids=["upward-closed", "not-upward-closed", "no-inversion-set"],
)
def test_wrong_walked_sum_bits_match_a_per_element_evaluation(
    monkeypatch, tmp_path, capsys, pos, bit, q
):
    # the row function drops one inversion from the flipped row of one
    # position of the word (2, 3, 1) at rank 3, so every element that flips
    # that position has a wrong mask and the scan must relabel that
    # element's own mask.  Without e1+e3 (the row of 3 before 1, the piece
    # (3, 1), in that word alone) the relabelled sums of [2,-3,1] are upward
    # closed but the wrong ideal; its pi is no involution, so relabelling
    # through rho = pi^-1 differs.  Without 2e3 they are not upward closed.
    # Without e2-e3 the difference part of [-2,3,1] is {e1-e3}, no inversion
    # set: that bit is on the piece (2, 3), so it goes from every row of 2
    # with 3 after it, which the first scanned word has too
    n = 3
    word = (2, 3, 1)
    v, later = word[pos], sum(1 << (u - 1) for u in word[pos + 1 :])

    def dropped(u, rest, up, down):
        hit = u == v and (rest == later if q is None else rest >> (q - 1) & 1)
        return up, down ^ 1 << bit if hit else down

    _patch_row(monkeypatch, dropped)
    expected = {key: [] for key in _FAILS}
    for word, jmask, mask in _walked_elements(n):
        for key in _evaluate(word, jmask, mask, n):
            expected[key].append((word, jmask))
    assert sum(map(len, expected.values())) > 0

    result = correspondence._scan(n)
    assert result["per_element_perms"] == math.factorial(n)
    assert {key: result["counts"][key] for key in _FAILS} == {
        key: len(items) for key, items in expected.items()
    }
    cap = correspondence._MAX_WITNESSES
    assert result["witnesses"] == {key: sorted(items)[:cap] for key, items in expected.items()}

    assert main(["bijection", "--rank", "3", "--out", str(tmp_path / "b.json")]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_walked_mask_above_the_roots_relabels_only_its_sums_plus_longs(monkeypatch):
    # bit 3 (e1+e2) added to the flipped row of 3 before 1, which at rank 3
    # is the row of 3 in (2, 3, 1) alone, and which the flipped row of 2
    # there already holds: the sum carries, so the mask of [-2,-3,-1] has a
    # bit above the n^2 roots, which the relabel must not read as a digit;
    # the scan matches the bit-by-bit reference
    n = 3
    _patch_row(
        monkeypatch,
        lambda v, later, up, down: (up, down + (1 << 3) if (v, later) == (3, 0b1) else down),
    )
    _assert_scan_matches_reference(n)
    [(mask, failed)] = [
        (mask, _reference(word, jmask, mask, n))
        for word, jmask, mask in _walked_elements(n)
        if word == (2, 3, 1) and jmask == 0b111
    ]
    assert mask >> (n * n)
    assert failed == ["support_fail", "degree_fail", "construct_fail", "closed_ideal_fail"]


def _module_relabel(mask, value_map, n):
    """The sums-plus-longs bits of mask relabelled through value_map by the
    module's own _relabel, whatever gather it compiles."""
    return _relabel(mask, _relabel_table(value_map, n), n)


def _reference(word, jmask, mask, n, relabel=_bitwise_relabel):
    """The per-element checks that fail for the walked element, each
    evaluated on its own through the module's tables (_sym_entry, _recipes,
    _closed_forms at the flipped positions P read off word and jmask), with
    no memo, no batch and, by default, bit-by-bit relabels."""
    phi0 = mask & ((1 << (n * (n - 1) // 2)) - 1)
    entry = correspondence._sym_entry(phi0, n)
    if entry is None:
        return ["sym_fail"]
    eta, pi = entry
    xi = relabel(mask, pi, n)
    if xi not in correspondence._recipes(n):
        return ["incr_fail"]
    failed = []
    if phi0 | relabel(xi, (0, *reversed(eta)), n) != mask:
        failed.append("support_fail")
    if mask.bit_count() != phi0.bit_count() + xi.bit_count():
        failed.append("degree_fail")
    if correspondence._construct(eta, xi, n) != (word, jmask):
        failed.append("construct_fail")
    pset = sum(1 << p for p, v in enumerate(word) if jmask >> (v - 1) & 1)
    gather, ideal = correspondence._closed_forms(n)[pset]
    if gather(word) != eta:
        failed.append("closed_sym_fail")
    if ideal != xi:
        failed.append("closed_ideal_fail")
    return failed


def _assert_scan_matches_reference(n, relabel=_bitwise_relabel):
    """_scan_chunk over the whole rank-n group reports exactly the failures,
    witnesses and failed pair keys (read off the walked masks) of _reference
    with this relabel; returns the counts and the scan's result."""
    expected = {key: [] for key in _FAILS}
    keys = set()
    for word, jmask, mask in _walked_elements(n):
        failed = _reference(word, jmask, mask, n, relabel)
        for key in failed:
            expected[key].append((word, jmask))
        if "construct_fail" in failed:
            eta, pi = correspondence._sym_entry(mask & ((1 << (n * (n - 1) // 2)) - 1), n)
            keys.add((eta, relabel(mask, pi, n)))
    result = correspondence._scan(n)
    counts = {key: len(items) for key, items in expected.items()}
    assert {key: result["counts"][key] for key in _FAILS} == counts
    cap = correspondence._MAX_WITNESSES
    assert result["witnesses"] == {key: sorted(items)[:cap] for key, items in expected.items()}
    assert result["failed_keys"] == keys
    return counts, result


def _reversed_gather(gather, n):
    """An itemgetter that gathers what gather does, in reverse order."""
    return itemgetter(*reversed(gather(tuple(range(n)))))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wrong_itemgetter_recipe_fails_every_element_of_its_ideal(monkeypatch, n):
    # a pure position map, so it leaves the batch possible; it builds the
    # wrong word for every element of the ideal, on every permutation
    target = correspondence._closed_forms(n)[1 << (n // 2)][1]
    real = correspondence._recipes(n)
    table = dict(real)
    gather, k = table[target]
    table[target] = _reversed_gather(gather, n), k
    monkeypatch.setattr(correspondence, "_recipes", lambda rank: table)
    counts, _result = _assert_scan_matches_reference(n)
    assert counts["construct_fail"] == math.factorial(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["everywhere", "on-the-identity", "shared"])
def test_wrong_closed_form_gather_matches_a_per_element_evaluation(monkeypatch, n, kind):
    # the canonical entry of one set P of flipped positions gathers the wrong
    # word: always, only for the identity's word (no pure position map, so
    # no permutation passes as a batch), or as the entry of P = {0} (so that
    # one entry stands for two sets)
    pset = (1 << n) - 2
    table = list(correspondence._closed_forms(n))
    gather, ideal = table[pset]
    identity = tuple(range(1, n + 1))
    if kind == "everywhere":
        table[pset] = _reversed_gather(gather, n), ideal
    elif kind == "on-the-identity":
        wrong = lambda word: gather(word)[::-1] if word == identity else gather(word)
        table[pset] = wrong, ideal
    else:
        table[pset] = table[1]
    table = tuple(table)
    monkeypatch.setattr(correspondence, "_closed_forms", lambda rank: table)
    counts, result = _assert_scan_matches_reference(n)
    wrong = {"everywhere": math.factorial(n), "on-the-identity": 1, "shared": math.factorial(n)}
    expected = {**dict.fromkeys(_FAILS, 0), "closed_sym_fail": wrong[kind]}
    if kind == "shared":
        expected["closed_ideal_fail"] = math.factorial(n)
    assert counts == expected
    # each corrupted table fails the chunk's check of the closed-form gathers
    assert result["per_element_perms"] == math.factorial(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_itemgetter_that_breaks_the_closed_form_rule_disables_the_batch(monkeypatch, n):
    # the gather of P = {0, 1, 2} is a pure position map that lists the
    # flipped positions as 2, 0, 1 instead of 2, 1, 0: no batch compare on a
    # word's rows can see it, the chunk's check of every gather on range(n)
    # does, and each word then fails closed-form-sym on that one element
    table = list(correspondence._closed_forms(n))
    _gather, ideal = table[0b111]
    table[0b111] = itemgetter(*range(3, n), 2, 0, 1), ideal
    monkeypatch.setattr(correspondence, "_closed_forms", lambda rank: tuple(table))
    counts, result = _assert_scan_matches_reference(n)
    assert counts == {**dict.fromkeys(_FAILS, 0), "closed_sym_fail": math.factorial(n)}
    assert result["per_element_perms"] == math.factorial(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("scanned", ["first", "later"])
@pytest.mark.parametrize("other", ["last", "first"])
def test_swapped_masks_of_one_word_match_a_per_element_evaluation(
    monkeypatch, n, scanned, other
):
    # a wrong row function: the two rows of the value v at position p of one
    # word swap, so in each word where v has the same row the elements with
    # flipped positions P and P ^ {p} swap their masks, for every P.  With
    # the last position that is v's base row, in the (n-1)! words ending in
    # v, and both elements have the same symmetric component and different
    # ideals.  With the first position it is every row of v with the next
    # letter u after it, the piece (v, u), in the n!/2 words with v before u,
    # and both differ.  The word is the first scanned, whose element loop
    # would otherwise pass, or the last one
    word = tuple(range(1, n + 1)) if scanned == "first" else tuple(range(n, 0, -1))
    v, u = word[-1 if other == "last" else 0], word[1]

    def swap(w, later, up, down):
        hit = w == v and (later == 0 if other == "last" else later >> (u - 1) & 1)
        return (down, up) if hit else (up, down)

    _patch_row(monkeypatch, swap)
    counts, result = _assert_scan_matches_reference(n)
    swapped = 2**n * math.factorial(n) // (n if other == "last" else 2)
    expected = {**dict.fromkeys(_FAILS, 0), "construct_fail": swapped, "closed_ideal_fail": swapped}
    if other == "first":
        expected["closed_sym_fail"] = swapped
    assert counts == expected
    # the rows check sees the swap, so every permutation runs the element loop
    assert result["per_element_perms"] == math.factorial(n)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("fault", ["swapped", "overlapping"])
def test_distinct_pairs_count_the_walked_keys_under_a_row_fault(monkeypatch, n, fault):
    # "swapped": the two rows of the value 2 with no letter after it swap, so
    # the elements of the words ending in 2 trade masks across that flip and
    # the walked keys stay distinct.  "overlapping": the unflipped row of the
    # value 1 with no letter after it takes e2-e3, which the row of 3 holds
    # when 2 is after it, so those rows carry when summed.  The round trips
    # of the failed keys read the same rows as the walk, in the same sum, so
    # distinct_pairs is the number of walked keys
    extra = 1 << root_index(n)[diff(2, 3)]
    if fault == "swapped":
        patched = lambda v, later, up, down: (down, up) if (v, later) == (2, 0) else (up, down)
    else:
        patched = lambda v, later, up, down: (up ^ extra, down) if (v, later) == (1, 0) else (up, down)
    _patch_row(monkeypatch, patched)
    phi0_all = (1 << n * (n - 1) // 2) - 1
    keys = set()
    for _word, _jmask, mask in _walked_elements(n):
        entry = correspondence._sym_entry(mask & phi0_all, n)
        xi = entry and _bitwise_relabel(mask, entry[1], n)
        if xi in correspondence._recipes(n):
            keys.add((entry[0], xi))
    if fault == "swapped":
        assert len(keys) == 2**n * math.factorial(n)
    report = verify_bijection(n)
    assert report.data["distinct_pairs"] == len(keys)
    assert not {r.check_id: r for r in report.records}["pair-injective"].passed


@pytest.mark.parametrize("n", [3, 4])
def test_a_wrong_row_sends_every_permutation_to_the_element_loop(monkeypatch, n):
    # the flipped row of the value n with no letter after it is 2e_n; a base
    # row that loses it differs from the root index, so the DP gives no
    # histogram
    missing = 1 << root_index(n)[long(n)]
    _patch_row(
        monkeypatch,
        lambda v, later, up, down: (up, down ^ missing if (v, later) == (n, 0) else down),
    )
    assert weyl._length_histogram(n) is None
    counts, result = _assert_scan_matches_reference(n)
    assert sum(counts.values()) > 0
    assert result["per_element_perms"] == math.factorial(n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_passing_scan_reads_the_pieces_the_size_rows_and_one_word(monkeypatch, n):
    # the piece check reads n^2 rows (the base row and each single later
    # value), the size recursion n (n + 1) / 2, and the first permutation's
    # element loop its n rows; correspondence is patched too, so a second
    # pass through its own binding would count
    real = weyl._row
    calls = []

    def counted(rank, v, later):
        calls.append((v, later))
        return real(rank, v, later)

    monkeypatch.setattr(weyl, "_row", counted)
    monkeypatch.setattr(correspondence, "_row", counted, raising=False)
    assert verify_bijection(n).passed
    assert len(calls) == n * n + n * (n + 1) // 2 + n


@pytest.mark.parametrize("n", [3, 4])
def test_a_failure_in_the_first_permutation_sends_every_permutation_to_the_element_loop(
    monkeypatch, n
):
    # the inverse recipe builds the wrong word for the identity element alone:
    # the gathers and the rows pass, the element loop on the first
    # permutation records the failure, and then every permutation runs the
    # element loop
    identity = tuple(range(1, n + 1))
    real = correspondence._construct

    def wrong(word, ximask, rank):
        return (identity[::-1], 0) if (word, ximask) == (identity, 0) else real(word, ximask, rank)

    chunks = []
    real_chunk = correspondence._scan_chunk
    monkeypatch.setattr(correspondence, "_construct", wrong)
    monkeypatch.setattr(
        correspondence, "_scan_chunk", lambda *args: chunks.append(args[1:]) or real_chunk(*args)
    )
    counts, result = _assert_scan_matches_reference(n)
    assert counts == {**dict.fromkeys(_FAILS, 0), "construct_fail": 1}
    assert result["per_element_perms"] == math.factorial(n)
    assert chunks == [(1,), (None,)]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("pi_of", ["wrong", "target"])
def test_wrong_decoded_word_matches_a_per_element_evaluation(monkeypatch, n, pi_of):
    # the symmetric component (3, ..., n, 2, 1) decodes to the word with its
    # last two letters swapped, together with the position map of that word
    # or of the right one.  The first permutation's element that flips its
    # first two positions has that component, so its element loop sees the
    # fault and every permutation runs the element loop; from_pair, which
    # decodes the element it builds, refuses the component
    target = (*range(3, n + 1), 2, 1)
    wrong = (*target[:-2], target[-1], target[-2])
    real = correspondence._sym_entry

    def corrupted(phi0, rank):
        entry = real(phi0, rank)
        if entry is None or entry[0] != target:
            return entry
        return wrong, correspondence._position_map(wrong if pi_of == "wrong" else target)

    monkeypatch.setattr(correspondence, "_sym_entry", corrupted)
    counts, result = _assert_scan_matches_reference(n)
    # each element of the component fails the closed form, unless its ideal,
    # relabelled through the wrong position map, is not upward closed
    assert counts["closed_sym_fail"] > 0
    assert counts["closed_sym_fail"] + counts["incr_fail"] == 2**n
    assert result["per_element_perms"] == math.factorial(n)
    with pytest.raises(ConsistencyError):
        from_pair(Perm(target), ideal_of(n))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_form_gather_that_is_no_position_map_disables_the_batch(monkeypatch, n):
    # a double fault on the last word scanned, w = (n, ..., 1): the closed-form
    # gather of P = {first} returns the wrong word w' = (n, 1, ..., n - 1) for
    # w alone, and w's rows are wrong so that every element of w has the
    # difference part inv(w'): the first position's flipped row also takes
    # its unflipped row's inversions, and the other unflipped rows are empty.
    # The element with P = {first} then shows no closed-form-sym failure,
    # only sums that relabel through the pi of w' to no upward-closed set.
    # The gather is no itemgetter, so every permutation of the chunk is
    # checked element by element
    word, pset = tuple(range(n, 0, -1)), 1
    table = list(correspondence._closed_forms(n))
    gather, ideal = table[pset]
    wrong = (n, *range(1, n))
    table[pset] = (lambda w: wrong if w == word else gather(w)), ideal
    table = tuple(table)
    real = correspondence._iter_rows

    def corrupted(rank):
        for w, plus, minus in real(rank):
            if w == word:
                plus, minus = [plus[0]] + [0] * (n - 1), [minus[0] | plus[0], *minus[1:]]
            yield w, plus, minus

    monkeypatch.setattr(correspondence, "_closed_forms", lambda rank: table)
    monkeypatch.setattr(correspondence, "_iter_rows", corrupted)
    counts, result = _assert_scan_matches_reference(n)
    [masked] = [
        _reference(w, jmask, mask, n)
        for w, jmask, mask in _walked_elements(n)
        if w == word and jmask == 1 << (n - 1)
    ]
    assert masked == ["incr_fail"] and counts["closed_sym_fail"] > 0
    assert result["per_element_perms"] == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_inversions_are_one_row_per_position(n):
    # values at positions p < q are inverted in g_P(word) iff word[p] > word[q]
    # XOR p in P, so inv(g_P(word)) joins the unflipped rows of the positions
    # outside P and the difference parts of the flipped rows of those in P
    nd = n * (n - 1) // 2
    gathers = [gather for gather, _ideal in correspondence._closed_forms(n)]
    for word in itertools.permutations(range(1, n + 1)):
        etas = [gather(word) for gather in gathers]
        for pset, eta in enumerate(etas):
            pos = {v: i for i, v in enumerate(eta)}
            for a, b in itertools.combinations(word, 2):  # a before b in word
                inverted = (pos[a] < pos[b]) == (a > b)
                assert inverted == ((a > b) != bool(pset >> word.index(a) & 1))
        later = [sum(1 << (q - 1) for q in word[p + 1 :]) for p in range(n)]
        rows = [index_row(n, v, m) for v, m in zip(word, later)]
        unflipped = [up for up, _down in rows]
        flipped = [down & ((1 << nd) - 1) for _up, down in rows]
        assert _expand(unflipped, flipped) == [_perm_inversion_mask(eta, n) for eta in etas]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_forms_read_each_elements_flipped_positions(n):
    # the scan reads the closed forms of the element with index P of a word
    # at entry P; the standard form reads them off its flipped values
    table = correspondence._closed_forms(n)
    for word in itertools.permutations(range(1, n + 1)):
        for pset, jmask in enumerate(_sign_patterns(word)):
            gather, ideal = table[pset]
            sf = standard_form(SignedPerm(elements._signed_images(word, jmask)))
            assert pairs._closed_form_of(sf) == (gather(word), ideal)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sym_entry_whose_pi_is_not_its_position_map(monkeypatch, n):
    # pi of one symmetric component swaps the images of the values 1 and 2,
    # so the ideal of its elements is no renaming of the identity's
    target = (*range(2, n + 1), 1)
    real = correspondence._sym_entry

    def corrupted(phi0, rank):
        entry = real(phi0, rank)
        if entry is None or entry[0] != target:
            return entry
        word, pi = entry
        return word, (0, pi[2], pi[1], *pi[3:])

    monkeypatch.setattr(correspondence, "_sym_entry", corrupted)
    # the first permutation's element [-1,2,...,n] has that component and
    # the sums e1+e_q, which the swap moves, so its element loop records the
    # fault and every permutation runs the element loop
    assert any(correspondence._scan_chunk(n, 1)["counts"].values())
    counts, result = _assert_scan_matches_reference(n)
    assert sum(counts.values()) > 0
    assert result["per_element_perms"] == math.factorial(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_composite_relabel_is_the_identity_exactly_for_the_position_map(n):
    # relabelling through pi and then through eta's rho moves no bit exactly
    # when pi is eta's position map: the long root 2e_v goes to
    # 2e_{rho(pi(v))}
    identity = tuple(range(n * (n + 1) // 2))
    words = list(itertools.permutations(range(1, n + 1)))
    for eta in words:
        bwd = correspondence._rho_table(eta, n)
        for pi in words:
            fixed = correspondence._gather(_relabel_table((0, *pi), n))(bwd) == identity
            assert fixed == ((0, *pi) == correspondence._position_map(eta))


@pytest.mark.parametrize("n", range(5, CAPS["group enumeration"] + 1))
def test_decoder_and_relabel_tables_hold_on_every_eta(n):
    # a batch takes each element's symmetric component to be g_P(word), which
    # ranges over S_n, with its position map as pi; the decoder and the
    # tables that the element loop, from_pair and --witness use agree with
    # that on every eta, up to the group cap
    identity = tuple(range(n * (n + 1) // 2))
    for eta in itertools.permutations(range(1, n + 1)):
        pi = correspondence._position_map(eta)
        assert correspondence._sym_entry(_perm_inversion_mask(eta, n), n) == (eta, pi)
        rho = correspondence._rho_table(eta, n)
        assert correspondence._gather(_relabel_table(pi, n))(rho) == identity


def _reorder_the_roots(monkeypatch, reorder):
    """Make roots.positive_roots list reorder(roots) at rank 3, with the
    index, the layout and the grid built afresh from it; other ranks keep
    their order.  The caches are cleared again on undo."""
    real = roots.positive_roots

    def reordered(n):
        return tuple(reorder(real(n))) if n == 3 else real(n)

    caches = (
        roots.root_index,
        roots._index_tables,
        roots._row_starts,
        ideals._addable,
        ideals._packed_roots,
        correspondence._phi1_grid,
    )
    monkeypatch.setattr(roots, "positive_roots", reordered)
    for cached in caches:
        cached.cache_clear()
    yield
    monkeypatch.undo()
    for cached in caches:
        cached.cache_clear()


def _assert_one_error_line(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err and "Traceback" not in captured.err


def _duplicate_a_sum(rs):
    """e1+e2 listed twice, in place of e1+e3."""
    return [sum_root(1, 2) if r == sum_root(1, 3) else r for r in rs]


def _interleave_the_rows(rs):
    """Each row's differences, then its sums, the long roots last: every row
    is still a block of consecutive bits.  The sort is stable, so j stays
    ascending inside each block."""
    return sorted(rs, key=lambda r: (r.kind == "long", 0 if r.kind == "long" else r.i, r.kind))


def _long_before_a_sum(rs):
    """2e1 indexed before e2+e3."""
    rest = [r for r in rs if r != long(1)]
    at = rest.index(sum_root(2, 3))
    return [*rest[:at], long(1), *rest[at:]]


def _swap_two_longs(rs):
    """2e2 indexed before 2e1; every difference and sum keeps its bit."""
    swapped = {long(1): long(2), long(2): long(1)}
    return [swapped.get(r, r) for r in rs]


@pytest.fixture
def reordered_roots(request, monkeypatch):
    yield from _reorder_the_roots(monkeypatch, request.param)


@pytest.fixture
def duplicated_sum(monkeypatch):
    yield from _reorder_the_roots(monkeypatch, _duplicate_a_sum)


def test_a_duplicate_root_in_the_grid_exits_3(duplicated_sum, capsys):
    # the pairs a <= b are not listed once, so no grid can invert (rows, cols)
    with pytest.raises(ConsistencyError, match="do not list every root once"):
        correspondence._phi1_grid(3)
    assert main(["bijection", "--rank", "3"]) == 3
    _assert_one_error_line(capsys, "do not list every root once")


@pytest.mark.parametrize(
    "reordered_roots, part",
    [
        (_interleave_the_rows, "differences"),
        (_long_before_a_sum, "sums"),
        (_swap_two_longs, "long roots"),
    ],
    ids=["interleaved-rows", "long-before-a-sum", "swapped-longs"],
    indirect=["reordered_roots"],
)
@pytest.mark.parametrize("command", ["bijection", "ideals", "weyl", "verify"])
def test_a_root_order_off_the_row_layout_exits_3(reordered_roots, capsys, part, command):
    assert main([command, "--rank", "3"]) == 3
    _assert_one_error_line(capsys, f"the {part} of rank 3 are not indexed row-major")
    assert main([command, "--rank", "2"]) == 0  # other ranks keep their order
    capsys.readouterr()


def test_witness_at_rank_40_builds_only_its_own_closed_form(monkeypatch, tmp_path):
    # tracing one element must not build the 2^n closed-form table
    ranks = []
    real = correspondence._closed_forms
    monkeypatch.setattr(correspondence, "_closed_forms", lambda n: ranks.append(n) or real(n))
    images = [-v if v % 3 == 0 else v for v in [2, 1, *range(3, 41)]]
    out = tmp_path / "w.json"
    witness = "[" + ",".join(map(str, images)) + "]"
    assert main(["bijection", "--rank", "40", "--witness", witness, "--out", str(out)]) == 0
    assert ranks == []
    doc = json.loads(out.read_text())["data"]
    assert doc["closed_form_sym_agrees"] and doc["closed_form_ideal_agrees"]
    assert doc["support_matches_inversions"] and doc["degree_additive"]


def test_witness_at_the_cap_rank_256_peaks_under_60_mb():
    # tracing one element reads O(n) ints of row layout and no n^2-row table;
    # the peak includes the root index of 65,536 roots if this builds it first
    images = [-v if v % 3 == 0 else v for v in [2, 1, *range(3, 257)]]
    tracemalloc.start()
    try:
        doc = trace_element(SignedPerm(tuple(images)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20
    assert doc["closed_form_ideal_agrees"] and doc["support_matches_inversions"]


def test_first_permutation_keeps_no_relabel_entries_rank_12():
    # each of the 2^11 symmetric components of the first permutation serves
    # one pair of sign patterns, so its compiled relabels are dropped with the
    # pair: the loop peaked at 4.1 MB when it kept them all, 0.4 MB without
    n = 12
    correspondence._recipes(n), correspondence._closed_forms(n), correspondence._phi1_grid(n)
    tracemalloc.start()
    try:
        result = correspondence._scan_chunk(n, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20
    assert result["per_element_perms"] == 1 and not any(result["counts"].values())


def test_non_permutation_relabel_table_is_an_internal_error(monkeypatch, capsys):
    with pytest.raises(ConsistencyError):
        _relabel_table((0, 1, 1, 3), 3)
    with pytest.raises(ConsistencyError):
        _relabel_table((0, 1, 2, 4), 3)
    with pytest.raises(ConsistencyError):
        _relabel_table((0, -2, 1, 3), 3)  # -2 must not read as 2
    with pytest.raises(ConsistencyError):
        _relabel_table((0, 0, 1, 2), 3)  # the value 0 meets the grid's None row
    for value_map in [lambda n: (0,) + (1,) * n, lambda n: (0, 0, *range(1, n))]:
        rho_table = lambda word, n, value_map=value_map: _relabel_table(value_map(n), n)
        monkeypatch.setattr(correspondence, "_rho_table", rho_table)
        assert main(["bijection", "--rank", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


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


def test_a_trace_evaluates_the_element_once(monkeypatch):
    calls = {"_inversion_mask": 0, "_closed_form_of": 0}
    for name in calls:
        original = getattr(pairs, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(pairs, name, counted)
    n = 12
    images = tuple(-v if v % 3 == 0 else v for v in range(n, 0, -1))
    doc = trace_element(SignedPerm(images))
    assert calls == {"_inversion_mask": 1, "_closed_form_of": 1}
    assert doc["element"] == str(SignedPerm(images))
    assert doc["closed_form_sym_agrees"] and doc["closed_form_ideal_agrees"]
    assert doc["support_matches_inversions"] and doc["degree_additive"]
