import itertools
import random

import pytest

from oracles import coeffs, dotted_sum, from_roots, split, sum_root
from spcohom import correspondence, ideals
from spcohom import roots as roots_module
from spcohom.errors import InvalidRankError
from spcohom.ideals import precedes, _addable, _coordinates, _packed_roots
from spcohom.roots import (
    Root,
    RootSet,
    diff,
    long,
    positive_roots,
    root_index,
    _index_tables,
    _mask_key,
    _row_starts,
)


@pytest.mark.parametrize("n", range(1, 9))
def test_counts(n):
    roots = positive_roots(n)
    assert len(roots) == n * n
    phi0, phi1 = split(n)
    assert len(phi0) == n * (n - 1) // 2
    assert len(phi1) == n * (n + 1) // 2
    assert (phi0 | phi1).mask == (1 << n * n) - 1
    assert (phi0 & phi1).mask == 0


def test_rank_one():
    assert positive_roots(1) == (long(1),)


def test_canonical_order_n2():
    assert [str(r) for r in positive_roots(2)] == ["e1-e2", "e1+e2", "2e1", "2e2"]


def test_canonical_order_n3():
    assert [str(r) for r in positive_roots(3)] == [
        "e1-e2", "e1-e3", "e2-e3",
        "e1+e2", "e1+e3", "e2+e3",
        "2e1", "2e2", "2e3",
    ]


def test_invalid_rank():
    with pytest.raises(InvalidRankError):
        positive_roots(0)
    with pytest.raises(InvalidRankError):
        split(-1)


def test_root_validation():
    with pytest.raises(ValueError):
        Root("diff", 2, 2)
    with pytest.raises(ValueError):
        Root("sum", 3, 1)
    with pytest.raises(ValueError):
        Root("long", 1, 2)
    with pytest.raises(ValueError):
        Root("diff", 0, 1)


def test_root_display():
    assert str(diff(1, 2)) == "e1-e2"
    assert str(sum_root(2, 1)) == "e1+e2"
    assert str(long(3)) == "2e3"


def test_dotted_sum_examples():
    # used verbatim in the closure argument that rules out difference roots
    assert dotted_sum(diff(1, 2), long(2), 2) == sum_root(1, 2)
    assert dotted_sum(diff(1, 2), sum_root(1, 2), 2) == long(1)
    assert dotted_sum(long(1), long(2), 2) is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dotted_sum_symmetric(n):
    roots = positive_roots(n)
    for a, b in itertools.combinations_with_replacement(roots, 2):
        assert dotted_sum(a, b, n) == dotted_sum(b, a, n)


def test_dotted_sum_closure_facts():
    # the only two-positive-root decompositions land where expected
    n = 3
    roots = positive_roots(n)
    for a in roots:
        for b in roots:
            s = dotted_sum(a, b, n)
            if s is not None:
                assert s in roots


def _all_pairs_addable(n):
    """The oracle for _addable: dotted_sum on all n^4 ordered root pairs."""
    roots, idx = positive_roots(n), root_index(n)
    return tuple(
        tuple((b, idx[s]) for b, rb in enumerate(roots) if (s := dotted_sum(ra, rb, n)))
        for ra in roots
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_addable_equals_the_all_pairs_loop(n):
    assert _addable(n) == _all_pairs_addable(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_sparse_roots_are_the_coefficient_vectors(n):
    # the packed vectors decode to the coefficient vectors, and index inverts them
    packed, index, bias = _packed_roots(n)
    dense = [coeffs(r, n) for r in positive_roots(n)]
    assert [_coordinates(n, bias + p) for p in packed] == dense
    assert _coordinates(n, bias) == (0,) * n
    assert index == {p: b for b, p in enumerate(packed)} and len(index) == n * n


@pytest.mark.parametrize("n", range(1, 13))
def test_a_packed_sum_looks_up_the_root_sum(n):
    # every ordered pair, a = b included: one add and one lookup give the
    # index of coeffs(a) + coeffs(b) when that is a root, and None otherwise
    packed, index, _bias = _packed_roots(n)
    by_vector = {coeffs(r, n): b for b, r in enumerate(positive_roots(n))}
    for a, va in enumerate(by_vector):
        for b, vb in enumerate(by_vector):
            expected = by_vector.get(tuple(x + y for x, y in zip(va, vb)))
            assert index.get(packed[a] + packed[b]) == expected, (n, a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_biased_subset_sum_decodes_to_its_weight(n):
    packed, _index, bias = _packed_roots(n)
    vectors = [coeffs(r, n) for r in positive_roots(n)]
    for mask in range(1 << n * n):
        key = _mask_key(mask)
        weight = tuple(sum(vectors[b][k] for b in key) for k in range(n))
        assert _coordinates(n, bias + sum(packed[b] for b in key)) == weight


@pytest.mark.parametrize("n", [4, 8, 16])
def test_addable_resolves_at_most_4n3_sums(monkeypatch, n):
    # only the roots whose support meets a's are tried, 2n - 1 per index, so
    # an all-pairs loop (n^4 sums) cannot come back unnoticed
    packed, index, bias = _packed_roots(n)
    calls, expected = [], _addable(n)

    class CountedIndex(dict):
        def get(self, key, default=None):
            calls.append(key)
            return super().get(key, default)

    monkeypatch.setattr(ideals, "_packed_roots", lambda rank: (packed, CountedIndex(index), bias))
    assert _addable.__wrapped__(n) == expected
    assert 0 < len(calls) <= 4 * n**3


def test_precedes_examples():
    assert precedes(long(2), sum_root(1, 2))
    assert precedes(long(1), long(1))  # reflexive by convention
    # e1+e3 and 2e2 are incomparable both ways
    assert not precedes(sum_root(1, 3), long(2))
    assert not precedes(long(2), sum_root(1, 3))


def test_precedes_rejects_differences():
    with pytest.raises(ValueError):
        precedes(diff(1, 2), long(1))
    with pytest.raises(ValueError):
        precedes(long(1), diff(1, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_precedes_partial_order_axioms(n):
    phi1 = [r for r in positive_roots(n) if r.in_phi1]
    for x in phi1:
        assert precedes(x, x)
    for x, y in itertools.permutations(phi1, 2):
        if precedes(x, y) and precedes(y, x):
            assert x == y
    for x, y, z in itertools.product(phi1, repeat=3):
        if precedes(x, y) and precedes(y, z):
            assert precedes(x, z)


@pytest.mark.parametrize("n", range(1, 7))
def test_reversal_is_antitone(n):
    # x precedes y iff reversed(y) precedes reversed(x)
    def rev(r):
        return sum_root(n + 1 - r.i, n + 1 - r.j)

    phi1 = [r for r in positive_roots(n) if r.in_phi1]
    for x, y in itertools.product(phi1, repeat=2):
        assert precedes(x, y) == precedes(rev(y), rev(x))


def test_rootset_operations():
    s = from_roots(3, [long(1), diff(1, 2)])
    t = from_roots(3, [long(1), sum_root(2, 3)])
    assert len(s) == 2
    assert long(1) in s and sum_root(2, 3) not in s
    assert sorted((s | t).to_strings()) == sorted(["e1-e2", "e2+e3", "2e1"])
    assert (s & t).to_strings() == ["2e1"]
    assert (s - t).to_strings() == ["e1-e2"]
    assert (s & t) <= s
    with pytest.raises(ValueError):
        s | RootSet.empty(2)


def test_rootset_serialization_is_canonical():
    s = from_roots(2, [long(2), long(1), sum_root(1, 2)])
    assert s.to_strings() == ["e1+e2", "2e1", "2e2"]


def _bit_clearing_key(mask):
    """The reference listing of a mask's set bits: clear the lowest until
    none is left."""
    key = []
    while mask:
        low = mask & -mask
        key.append(low.bit_length() - 1)
        mask ^= low
    return tuple(key)


@pytest.mark.parametrize("n", [1, 16, 256])
def test_mask_key_equals_the_bit_clearing_loop(n):
    width, rng = n * n, random.Random(n)
    bits = range(width) if n <= 16 else [0, 1, *rng.sample(range(2, width - 1), 30), width - 1]
    masks = [0, (1 << width) - 1, *(1 << b for b in bits)]
    masks += [rng.getrandbits(width) for _ in range(200 if n <= 16 else 2)]
    masks += [rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)]
    for mask in masks:
        assert _mask_key(mask) == _bit_clearing_key(mask)


def test_the_index_layout_and_grid_build_no_root_at_rank_256(monkeypatch):
    # the Root objects are enumerated once, by positive_roots; the index is
    # one pass over them, and the layout and the relabel grid are arithmetic
    def refused(*args):
        raise AssertionError("a Root was built or hashed")

    positive_roots(256)
    monkeypatch.setattr(roots_module, "root_index", refused)
    monkeypatch.setattr(roots_module, "Root", refused)
    d_idx, s_idx, l_idx = _index_tables.__wrapped__(256)
    assert (d_idx[1][2], s_idx[1][2], l_idx[1]) == (0, 32640, 65280)
    diff_start, sum_start, long_bit = _row_starts.__wrapped__(256)
    assert (diff_start[256], sum_start[256], long_bit[256]) == (32640, 65280, 65535)
    grid, rows, cols = correspondence._phi1_grid.__wrapped__(256)
    assert (grid[1][2], grid[256][256], rows[-1], cols[-1]) == (0, 256 * 257 // 2 - 1, 256, 256)
