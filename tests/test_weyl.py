import itertools
import math
import random
import time
from collections import Counter

import pytest

from cochains import action_mask
from subset_dp import index_perm_row, index_row, subset_dp
from spcohom import roots, weyl
from spcohom.cli import main
from spcohom.errors import ConsistencyError, RankCapError
from spcohom.poincare import sym_inversion_histogram, weyl_poincare
from spcohom.roots import (
    RootSet,
    SignedRoot,
    diff,
    long,
    num_diffs,
    positive_roots,
    root_index,
    sum_root,
    _index_tables,
)
from spcohom.weyl import (
    Perm,
    SignedPerm,
    act_on_root,
    enumerate_group,
    group_order,
    inversion_set,
    length,
    parse_signed_perm,
    perm_from_inversions,
    perm_inversions,
    recompose,
    standard_form,
    _bad_pieces,
    _expand,
    _inversion_mask,
    _iter_rows,
    _length_histogram,
    _perm_inversion_mask,
    _row,
    _sign_patterns,
    _word_from_inversion_mask,
)


def r(i, n):
    return SignedPerm.reflection(i, n)


def all_elements(n):
    return list(enumerate_group(n))


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 8), (3, 48), (4, 384), (5, 3840)])
def test_enumeration_count(n, expected):
    elems = all_elements(n)
    assert len(elems) == expected
    assert len(set(elems)) == expected


def test_group_order_formula():
    assert group_order(8) == 10_321_920


def test_enumeration_cap():
    with pytest.raises(RankCapError):
        next(enumerate_group(9))
    assert next(enumerate_group(3)) == SignedPerm.identity(3)


def test_perm_basics():
    s = Perm((2, 3, 1))
    assert s(1) == 2 and s(3) == 1
    assert s.inverse() == Perm((3, 1, 2))
    assert s.compose(s.inverse()) == Perm.identity(3)
    with pytest.raises(ValueError):
        Perm((1, 1, 2))


def test_signed_perm_fields():
    w = SignedPerm((2, -1, 3))
    assert w.perm == Perm((2, 1, 3))
    assert w.negated == frozenset({1})
    assert str(w) == "[2,-1,3]"
    assert parse_signed_perm("[2,-1,3]") == w
    assert parse_signed_perm(" [ 2 , -1,3 ] ") == w
    assert w.inverse().compose(w) == SignedPerm.identity(3)


def test_act_on_root_examples():
    # r_1 sends e1-e2 to -(e1+e2)
    assert act_on_root(r(1, 2), diff(1, 2)) == SignedRoot(-1, sum_root(1, 2))
    w = SignedPerm.identity(3)
    for alpha in positive_roots(3):
        assert act_on_root(w, alpha) == SignedRoot(1, alpha)
    swap = SignedPerm((2, 1))
    assert act_on_root(swap, long(1)) == SignedRoot(1, long(2))


@pytest.mark.parametrize("n", [2, 3])
def test_action_respects_composition(n):
    elems = all_elements(n)
    roots = positive_roots(n)
    for u in elems:
        for v in elems:
            uv = u.compose(v)
            for alpha in roots:
                inner = act_on_root(v, alpha)
                outer = act_on_root(u, inner.root)
                assert act_on_root(uv, alpha) == SignedRoot(
                    inner.sign * outer.sign, outer.root
                )


def test_action_respects_composition_exhaustive_n4():
    # all 384^2 pairs, via precomputed action rows keyed by image tuple
    n = 4
    elems = all_elements(n)
    roots = positive_roots(n)
    rows = {}
    index = {r: k for k, r in enumerate(roots)}
    for w in elems:
        rows[w.images] = tuple(
            (sr.sign, index[sr.root]) for sr in (act_on_root(w, a) for a in roots)
        )
    for u in elems:
        urow = rows[u.images]
        for v in elems:
            vrow = rows[v.images]
            uvrow = rows[u.compose(v).images]
            for k in range(len(roots)):
                s1, b = vrow[k]
                s2, c = urow[b]
                assert uvrow[k] == (s1 * s2, c)


def test_inversion_set_examples():
    assert inversion_set(r(1, 2)).to_strings() == ["e1-e2", "e1+e2", "2e1"]
    assert inversion_set(r(2, 2)).to_strings() == ["2e2"]
    assert len(inversion_set(SignedPerm.identity(4))) == 0


def test_longest_element():
    w0 = SignedPerm((-1, -2, -3))
    assert length(w0) == 9


def test_perm_inversions_examples():
    assert perm_inversions(Perm((2, 1))).to_strings() == ["e1-e2"]
    assert len(perm_inversions(Perm.identity(4))) == 0
    # oracle value: the direct action on sigma = (3,1,2) inverts exactly
    # {e1-e3, e2-e3}; the closed form must match it
    sigma = Perm((3, 1, 2))
    assert perm_inversions(sigma).mask == action_mask(SignedPerm(sigma.images))
    assert perm_inversions(sigma).to_strings() == ["e1-e3", "e2-e3"]


@pytest.mark.parametrize("n", range(1, 8))
def test_perm_inversions_agree_with_action(n):
    for word in itertools.permutations(range(1, n + 1)):
        sigma = Perm(word)
        assert perm_inversions(sigma).mask == _inversion_mask(word, n)


@pytest.mark.parametrize("n", range(1, 8))
def test_perm_from_inversions_round_trip(n):
    for word in itertools.permutations(range(1, n + 1)):
        sigma = Perm(word)
        assert perm_from_inversions(perm_inversions(sigma), n) == sigma


def _pairwise_inversion_mask(word, n):
    """Reference for _perm_inversion_mask: one test per pair i < j of values."""
    pos = [0] * (n + 1)
    for p, v in enumerate(word):
        pos[v] = p
    d_idx = _index_tables(n)[0]
    mask = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if pos[i] > pos[j]:
                mask |= 1 << d_idx[i][j]
    return mask


def _count_loop_word(mask, n):
    """The count step of the reference decoder: count the j > i inverted
    against i bit by bit, then insert the values n..1, i at offset counts[i];
    None when a count exceeds the word built so far."""
    d_idx = _index_tables(n)[0]
    counts = [0] * (n + 1)
    for i in range(1, n + 1):
        counts[i] = sum(mask >> d_idx[i][j] & 1 for j in range(i + 1, n + 1))
    word = []
    for i in range(n, 0, -1):
        if counts[i] > len(word):
            return None
        word.insert(counts[i], i)
    return tuple(word)


def _count_loop_decoder(mask, n):
    """Reference for _word_from_inversion_mask: the count step, verified."""
    word = _count_loop_word(mask, n)
    return word if word is not None and _pairwise_inversion_mask(word, n) == mask else None


@pytest.mark.parametrize("n", range(1, 9))
def test_inversion_mask_and_decoder_match_their_references_on_every_word(n):
    for word in itertools.permutations(range(1, n + 1)):
        mask = _perm_inversion_mask(word, n)
        assert mask == _pairwise_inversion_mask(word, n)
        assert _word_from_inversion_mask(mask, n) == _count_loop_decoder(mask, n) == word


@pytest.mark.parametrize("n", range(1, 9))
def test_decoder_matches_its_reference_on_random_masks(n):
    rng = random.Random(n)
    refused = 0
    # two bits above the differences too, which no inversion set has
    for mask in [rng.getrandbits(num_diffs(n) + 2) for _ in range(2000)]:
        word = _word_from_inversion_mask(mask, n)
        assert word == _count_loop_decoder(mask, n)
        refused += word is None and _count_loop_word(mask, n) is not None
    assert refused


def _swap_in_the_layout(monkeypatch, table):
    """Give the row layout (roots._row_starts) an index in which the roots
    (1, 3) and (2, 3) of table 0 (differences) or 1 (sums) trade bits at
    rank 3, which is not row-major; the references keep the real index."""
    real = roots._index_tables

    def swapped(n):
        tables = list(real(n))
        if n == 3:
            t = tables[table] = [row[:] for row in tables[table]]
            t[1][3], t[2][3] = t[2][3], t[1][3]
        return tuple(tables)

    monkeypatch.setattr(roots, "_index_tables", swapped)
    roots._row_starts.cache_clear()
    yield
    monkeypatch.undo()
    roots._row_starts.cache_clear()


@pytest.fixture
def swapped_difference_index(monkeypatch):
    """Index e2-e3 before e1-e3 at rank 3."""
    yield from _swap_in_the_layout(monkeypatch, 0)


@pytest.fixture
def swapped_sum_index(monkeypatch):
    """Index e2+e3 before e1+e3 at rank 3."""
    yield from _swap_in_the_layout(monkeypatch, 1)


def test_non_row_major_difference_index_is_refused(swapped_difference_index):
    with pytest.raises(ConsistencyError):
        _perm_inversion_mask((1, 2, 3), 3)
    with pytest.raises(ConsistencyError):
        _word_from_inversion_mask(0, 3)
    assert _perm_inversion_mask((2, 1), 2) == 1  # other ranks keep their index


def test_non_row_major_difference_index_exits_3(swapped_difference_index, capsys):
    assert main(["bijection", "--rank", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_non_row_major_sum_index_is_refused(swapped_sum_index):
    with pytest.raises(ConsistencyError, match="sums of rank 3 are not indexed row-major"):
        _row(3, 1, 0)
    assert _row(2, 1, 0b10) == (0, 0b111)  # other ranks keep their layout


@pytest.mark.parametrize("command", ["ideals", "bijection"])
def test_non_row_major_sum_index_exits_3(swapped_sum_index, capsys, command):
    assert main([command, "--rank", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "row-major" in captured.err and "Traceback" not in captured.err


def test_perm_from_inversions_examples():
    assert perm_from_inversions(RootSet.empty(3), 3) == Perm.identity(3)
    assert perm_from_inversions(RootSet.from_roots(2, [diff(1, 2)]), 2) == Perm((2, 1))
    # {e1-e3} alone cannot be an inversion set: its counts (1, 0, 0) build
    # (2, 1, 3), whose inversion set is {e1-e2}, so only the verification refuses it
    assert perm_from_inversions(RootSet.from_roots(3, [diff(1, 3)]), 3) is None
    assert _count_loop_word(RootSet.from_roots(3, [diff(1, 3)]).mask, 3) == (2, 1, 3)
    with pytest.raises(ValueError):
        perm_from_inversions(RootSet.from_roots(2, [long(1)]), 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_inversion_set_determines_element(n):
    masks = set()
    for w in all_elements(n):
        m = inversion_set(w).mask
        assert m not in masks
        masks.add(m)


def test_standard_form_examples():
    sf = standard_form(r(1, 2))
    assert sf.j_list == (1,) and sf.sigma0 == Perm.identity(2)
    sf = standard_form(SignedPerm.identity(3))
    assert sf.j_list == () and sf.sigma0 == Perm.identity(3)
    # perm (2,1) with both values flipped, listed in word order
    w = SignedPerm((-2, -1))
    sf = standard_form(w)
    assert sf.sigma0 == Perm((2, 1))
    assert sf.j_list == (2, 1)
    # word order (3 at position 1, 2 at position 3) is not the order of the
    # sigma0-images (sigma0(2) = 1 < sigma0(3) = 2)
    sf = standard_form(SignedPerm((-3, 1, -2)))
    assert sf.sigma0 == Perm((3, 1, 2))
    assert sf.j_list == (3, 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_standard_form_round_trip(n):
    for w in all_elements(n):
        sf = standard_form(w)
        assert recompose(sf) == w
        pos = sf.sigma0.inverse()
        assert all(pos(a) < pos(b) for a, b in zip(sf.j_list, sf.j_list[1:]))


def test_standard_form_round_trip_rank7():
    count = 0
    for w in enumerate_group(7):
        if recompose(standard_form(w)) != w:
            raise AssertionError(str(w))
        count += 1
    assert count == group_order(7)


def _walk(n):
    """(word, masks) for each word of the walk, masks = _expand(plus, minus)."""
    return [(word, _expand(plus, minus)) for word, plus, minus in _iter_rows(n)]


@pytest.mark.parametrize("n", range(1, 6))
def test_walk_masks_match_direct_action(n):
    # masks[P] is the inversion mask of the element whose values at the
    # positions in P are negated, for every P of every permutation
    seen = set()
    words = []
    for word, masks in _walk(n):
        assert len(masks) == 2**n
        for pset, mask in enumerate(masks):
            img = tuple(-v if pset >> p & 1 else v for p, v in enumerate(word))
            assert action_mask(SignedPerm(img)) == mask
            jmask = sum(1 << (v - 1) for v in word if -v in img)
            assert _sign_patterns(word)[pset] == jmask
            seen.add(img)
        words.append(word)
    assert len(seen) == group_order(n)
    assert words == list(itertools.permutations(range(1, n + 1)))


@pytest.mark.parametrize("n", range(1, 6))
def test_inversion_mask_matches_the_action(n):
    for w in enumerate_group(n):
        assert _inversion_mask(w.images, n) == action_mask(w)


def test_inversion_mask_reads_one_row_a_position(monkeypatch):
    real = weyl._row
    calls = []

    def counted(rank, v, later):
        calls.append((v, later))
        return real(rank, v, later)

    monkeypatch.setattr(weyl, "_row", counted)
    assert _inversion_mask((3, -1, 4, -2), 4) == action_mask(SignedPerm((3, -1, 4, -2)))
    assert calls == [(2, 0), (4, 0b10), (1, 0b1010), (3, 0b1011)]


@pytest.mark.parametrize("n", range(1, 6))
def test_expanded_rows_match_the_inversion_set(n):
    # _expand(plus, minus)[P], the walk's subset doubling, is inversion_set's
    # sum of the rows of the element whose values at the positions in P are
    # negated
    for word, plus, minus in _iter_rows(n):
        for pset, mask in enumerate(_expand(plus, minus)):
            img = tuple(-v if pset >> p & 1 else v for p, v in enumerate(word))
            assert inversion_set(SignedPerm(img)).mask == mask


def _doubling(rows):
    out = [0]
    for row in rows:
        out += [x | row for x in out]
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_sign_patterns_and_flips_are_the_doubling_of_their_rows(n):
    index = root_index(n)
    nd = n * (n - 1) // 2
    for word, plus, minus in _iter_rows(n):
        assert _sign_patterns(word) == _doubling([1 << (v - 1) for v in word])
        # the sum inversions of P are the rows of its flipped values: e_v + e_q
        # for v = word[p], p in P, and q = v or after v
        rows = [
            sum(1 << index[long(v) if q == v else sum_root(v, q)] for q in word[p:])
            for p, v in enumerate(word)
        ]
        assert [mask >> nd << nd for mask in _expand(plus, minus)] == _doubling(rows)


@pytest.mark.parametrize("n", range(1, 8))
def test_index_rows_match_the_walk(n):
    for word, plus, minus in _iter_rows(n):
        later = [sum(1 << (q - 1) for q in word[p + 1 :]) for p in range(n)]
        assert list(zip(plus, minus)) == [index_row(n, v, m) for v, m in zip(word, later)]


def _root_pairs(mask, n):
    """The index pairs {i, j} (a 1- or 2-element frozenset) of the roots in mask."""
    return {frozenset((r.i, r.j)) for b, r in enumerate(positive_roots(n)) if mask >> b & 1}


@pytest.mark.parametrize("n", range(1, 7))
def test_rows_lie_on_their_root_pairs(n):
    # the rows of v with the later set L, and the index's, cover the pairs
    # {v, x}, x in L or x = v, and no other
    for v in range(1, n + 1):
        for later in range(1 << n):
            if later >> (v - 1) & 1:
                continue
            allowed = {frozenset((v, x)) for x in range(1, n + 1) if later >> (x - 1) & 1 or x == v}
            up, down = _row(n, v, later)
            assert _root_pairs(up | down, n) == allowed
            assert _root_pairs(sum(index_row(n, v, later)), n) == allowed


@pytest.mark.parametrize("n", range(1, 9))
def test_no_piece_of_the_rows_is_bad(n):
    assert _bad_pieces(n) == []


def test_pieces_are_read_at_the_base_and_at_each_single_later_value(monkeypatch):
    # n^2 calls: later = 0 and later = {q}, q != v, for each value v
    real = weyl._row
    calls = []

    def counted(rank, v, later):
        calls.append((v, later))
        return real(rank, v, later)

    monkeypatch.setattr(weyl, "_row", counted)
    n = 4
    assert _bad_pieces(n) == []
    assert sorted(calls) == sorted(
        (v, 1 << q >> 1) for v in range(1, n + 1) for q in range(n + 1) if q != v
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_length_histogram_counts_the_walked_masks(n):
    lengths = Counter()
    for _word, plus, minus in _iter_rows(n):
        lengths.update(map(int.bit_count, _expand(plus, minus)))
    assert _length_histogram(n) == [lengths[d] for d in range(n * n + 1)]


@pytest.mark.parametrize("n", range(8, 13))
def test_length_histogram_is_the_product_of_the_2i_brackets(n):
    # prod_{i=1..n} [2i]_t, with [m]_t = 1 + t + ... + t^(m-1)
    poly = [1]
    for i in range(1, n + 1):
        out = [0] * (len(poly) + 2 * i - 1)
        for d, c in enumerate(poly):
            for k in range(2 * i):
                out[d + k] += c
        poly = out
    assert _length_histogram(n) == poly


@pytest.mark.parametrize("n", range(1, 11))
def test_size_recursions_equal_the_subset_dp(monkeypatch, n):
    # the DP over all 2^n sets of values, on rows built from the root index,
    # against the two recursions over set sizes; the S_n one has a cap
    monkeypatch.setitem(roots.CAPS, "group enumeration", 10)
    width = group_order(n).bit_length()
    expected = subset_dp(n, width, n * n, lambda v, later: index_row(n, v, later))
    assert _length_histogram(n) == expected
    width = math.factorial(n).bit_length()
    expected = subset_dp(n, width, num_diffs(n), lambda v, before: [index_perm_row(n, before, v)])
    assert list(sym_inversion_histogram(n).coeffs) == expected


def test_length_histogram_at_rank_64_is_the_product_of_the_2i_brackets_in_under_a_second():
    # in-process, with no cap in the way: n^2 pieces and n (n + 1) / 2 rows
    start = time.process_time()
    hist = _length_histogram(64)
    elapsed = time.process_time() - start
    assert hist == list(weyl_poincare(64).coeffs)
    assert elapsed < 1.0


def test_a_bad_piece_stops_the_histogram_before_the_size_dp(monkeypatch):
    # the base row of 2 loses 2e2: the n^2 piece reads find it, and no row
    # of the size recursion is read
    real = weyl._row
    calls = []

    def corrupted(n, v, later):
        calls.append((v, later))
        up, down = real(n, v, later)
        return (up, down & down - 1) if (v, later) == (2, 0) else (up, down)

    def no_dp(*args):
        raise AssertionError("the size recursion ran after a bad piece")

    monkeypatch.setattr(weyl, "_row", corrupted)
    monkeypatch.setattr(weyl, "_size_dp", no_dp)
    assert _bad_pieces(4) == [(2, 0, 1)]
    calls.clear()
    assert _length_histogram(4) is None
    assert len(calls) == 16


def test_length_histogram_refuses_a_row_off_its_root_pairs(monkeypatch):
    # the flipped row of 2 before 1 takes 2e3, on no pair {2, x}, so the
    # piece (2, 1) differs from the root index: the DP gives no histogram,
    # and weyl_length_histogram calls that a bug
    real = weyl._row
    extra = 1 << root_index(3)[long(3)]

    def corrupted(n, v, later):
        up, down = real(n, v, later)
        return (up, down | extra) if (n, v, later) == (3, 2, 0b1) else (up, down)

    monkeypatch.setattr(weyl, "_row", corrupted)
    assert _bad_pieces(3) == [(2, 1, 1)]
    assert _length_histogram(3) is None
    assert _length_histogram(2) == [1, 2, 2, 2, 1]
    assert main(["weyl", "--rank", "3"]) == 3


def test_a_piece_that_differs_from_the_root_index_exits_3(monkeypatch, capsys):
    # the flipped base row of 3 loses 2e3: the row stays on its root pairs,
    # so only the comparison with the root index sees it, and without that
    # the DP would count a wrong histogram
    real = weyl._row
    missing = 1 << root_index(3)[long(3)]

    def corrupted(n, v, later):
        up, down = real(n, v, later)
        return (up, down & ~missing) if (n, v, later) == (3, 3, 0) else (up, down)

    monkeypatch.setattr(weyl, "_row", corrupted)
    assert _root_pairs(corrupted(3, 3, 0)[1], 3) <= {frozenset((3,))}
    assert _length_histogram(3) is None
    assert main(["weyl", "--rank", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "the row piece (v, q) = (3, 0) differs from the root index" in captured.err
    assert "Traceback" not in captured.err


def test_root_pairs_that_do_not_split_the_roots_exit_3(monkeypatch, capsys):
    # e1+e2 takes the bit of e1-e2 at rank 3, so the pair {1, 2} covers one
    # root and no pair covers the other
    real = weyl._index_tables

    def shared(n):
        d, s, l = real(n)
        if n == 3:
            s = [row[:] for row in s]
            s[1][2] = d[1][2]
        return d, s, l

    monkeypatch.setattr(weyl, "_index_tables", shared)
    try:
        with pytest.raises(ConsistencyError, match="do not split the roots"):
            _bad_pieces(3)
        assert _bad_pieces(2) == []  # other ranks keep their index
        assert main(["weyl", "--rank", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "do not split the roots" in captured.err and "Traceback" not in captured.err
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("n", range(1, 8))
def test_position_rows_are_pairwise_disjoint(n):
    for _word, plus, minus in _iter_rows(n):
        rows = [up | down for up, down in zip(plus, minus)]
        for a, b in itertools.combinations(rows, 2):
            assert a & b == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_order_signs_outer(n):
    elems = all_elements(n)
    # the first n! elements are the plain permutations in lexicographic order
    head = elems[: _factorial(n)]
    expected = [
        SignedPerm(word) for word in itertools.permutations(range(1, n + 1))
    ]
    assert head == expected


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out
