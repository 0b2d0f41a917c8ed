import itertools
import random

import pytest

from spcohom import ce
from spcohom.ce import (
    ChainComplex,
    Cochain,
    betti_numbers,
    differential,
    monomial_cocycle,
    pair_cocycle,
    verify_cohomology_basis,
    _d_monomial,
    _rank_int,
    _rank_mod_p,
    _subset_weight,
)
from spcohom.correspondence import correspondence_pair, from_pair
from spcohom.errors import RankCapError
from spcohom.ideals import enumerate_increasing
from spcohom.poincare import weyl_poincare
from spcohom.roots import root_index, diff, long, sum_root
from spcohom.weyl import Perm, SignedPerm, enumerate_group, group_order, inversion_set


def idx(n, root):
    return root_index(n)[root]


def random_cochain(n, rng):
    n2 = n * n
    degree = rng.randrange(1, n2 - 1)
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        key = tuple(sorted(rng.sample(range(n2), degree)))
        terms[key] = rng.choice([c for c in range(-9, 10) if c])
    return Cochain(n, degree, terms)


def test_differential_examples():
    n = 2
    d12, s12, l1, l2 = diff(1, 2), sum_root(1, 2), long(1), long(2)
    # the only positive decomposition of e1+e2 is (e1-e2) + 2e2, constant 1
    assert _d_monomial(n, (idx(n, s12),)) == {(idx(n, d12), idx(n, l2)): -1}
    assert _d_monomial(n, (idx(n, d12),)) == {}
    # 2e1 = (e1-e2) + (e1+e2) with constant 2
    assert _d_monomial(n, (idx(n, l1),)) == {(idx(n, d12), idx(n, s12)): -2}


def test_cochain_validation():
    with pytest.raises(ValueError):
        Cochain(2, 2, {(0,): 1})
    with pytest.raises(ValueError):
        Cochain(2, 2, {(1, 0): 1})
    assert Cochain(2, 1, {(0,): 0}).is_zero()


def test_differential_is_linear():
    n = 3
    rng = random.Random(7)
    for _ in range(50):
        a = random_cochain(n, rng)
        b = Cochain(n, a.degree, {k: rng.randrange(1, 5) for k in a.terms})
        lhs = differential(a + b)
        rhs = differential(a) + differential(b)
        assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d_squared_zero_on_generators(n):
    for b in range(n * n):
        c = Cochain.monomial(n, (b,))
        assert differential(differential(c)).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_d_squared_zero_on_random_cochains(n):
    rng = random.Random(n)
    for _ in range(200):
        c = random_cochain(n, rng)
        assert differential(differential(c)).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d_preserves_weight(n):
    for b in range(n * n):
        image = _d_monomial(n, (b,))
        w = _subset_weight(n, (b,))
        for key in image:
            assert _subset_weight(n, key) == w


def _rank_fraction(matrix):
    """Independent rank oracle: plain Gaussian elimination over Fraction."""
    from fractions import Fraction

    m = [[Fraction(v) for v in row] for row in matrix]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_integer_rank_matches_fraction_oracle():
    rng = random.Random(99)
    for _ in range(300):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 7)
        # low-rank-biased matrices: random products plus sparse noise
        mat = [[rng.randrange(-4, 5) if rng.random() < 0.6 else 0 for _ in range(ncols)]
               for _ in range(nrows)]
        if rng.random() < 0.5 and nrows > 1:
            mat[-1] = [sum(row[c] for row in mat[:-1]) for c in range(ncols)]
        assert _rank_int(mat) == _rank_fraction(mat)


def test_mod_p_rank_matches_fraction_oracle():
    rng = random.Random(31)
    for trial in range(300):
        nrows = rng.randrange(1, 8)
        ncols = rng.randrange(1, 8)
        # every third matrix has only entries divisible by 2 or 3
        values = [-6, -4, -3, -2, 2, 3, 4, 6] if trial % 3 == 0 else range(-9, 10)
        mat = [[rng.choice(values) if rng.random() < 0.5 else 0 for _ in range(ncols)]
               for _ in range(nrows)]
        if rng.random() < 0.5 and nrows > 1:
            mat[-1] = [sum(row[c] for row in mat[:-1]) for c in range(ncols)]
        columns = [{r: mat[r][c] for r in range(nrows) if mat[r][c]} for c in range(ncols)]
        assert _rank_mod_p(columns, ce._PRIME) == _rank_fraction(mat)
        # a rank over F_p never exceeds the rank over Q
        assert _rank_mod_p(columns, 2) <= _rank_fraction(mat)
    assert _rank_mod_p([{0: 2, 1: 4}, {0: 3}], 2) == 1
    assert _rank_mod_p([{0: 2, 1: 4}, {0: 3}], 3) == 1
    assert _rank_mod_p([{0: 2, 1: 4}, {0: 3}], ce._PRIME) == 2


def _kostant_weights(n):
    return {_subset_weight(n, next(iter(monomial_cocycle(w).terms))) for w in enumerate_group(n)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_ranks_match_bareiss(n):
    cx = ChainComplex(n)
    for p, w, _dim, rank in cx.block_summary():
        mat = cx.matrix((p, w))
        assert rank == (_rank_int(mat) if mat and mat[0] else 0)
    # the exact path takes exactly the weights rho - w rho that carry cohomology
    assert cx.exact_weights == _kostant_weights(n)
    assert len(cx.exact_weights) == group_order(n)


@pytest.mark.parametrize("prime", [2, 3])
def test_bad_prime_stays_exact(monkeypatch, prime):
    """A prime that divides structure constants makes more weights look
    non-acyclic; they take the exact path, so every rank stays exact."""
    monkeypatch.setattr(ce, "_PRIME", prime)
    for n in (1, 2, 3):
        cx = ChainComplex(n)
        assert cx.betti() == list(weyl_poincare(n).coeffs)
        for p, w, _dim, rank in cx.block_summary():
            mat = cx.matrix((p, w))
            assert rank == (_rank_int(mat) if mat and mat[0] else 0)
        assert cx.exact_weights >= _kostant_weights(n)
    assert len(cx.exact_weights) > group_order(3)


def test_betti_examples():
    assert betti_numbers(1) == [1, 1]
    assert betti_numbers(2) == [1, 2, 2, 2, 1]
    b3 = betti_numbers(3)
    assert b3 == list(weyl_poincare(3).coeffs)
    assert b3 == b3[::-1]
    assert sum(b3) == 48


def test_betti_cap():
    # rank 4 is the default cap; rank 5 is refused before anything is built
    with pytest.raises(RankCapError, match="cohomology cap 4$"):
        betti_numbers(5)
    with pytest.raises(RankCapError):
        ChainComplex(4, cap=3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_betti_from_summary_round_trip(n):
    # per degree p: b_p = dim C^p - rank(d out of C^p) - rank(d into C^p)
    cx = ChainComplex(n)
    n2 = n * n
    dims = [0] * (n2 + 1)
    ranks = [0] * (n2 + 1)
    for p, _w, dim, rank in cx.block_summary():
        dims[p] += dim
        ranks[p] += rank
    assert sum(dims) == 2 ** n2
    assert [
        dims[p] - ranks[p] - (ranks[p - 1] if p else 0) for p in range(n2 + 1)
    ] == cx.betti()


def test_monomial_cocycle_examples():
    n = 2
    assert monomial_cocycle(SignedPerm.identity(n)).terms == {(): 1}
    r2 = SignedPerm.reflection(2, n)
    assert monomial_cocycle(r2).terms == {(idx(n, long(2)),): 1}
    r1 = SignedPerm.reflection(1, n)
    assert monomial_cocycle(r1).terms == {
        (idx(n, diff(1, 2)), idx(n, sum_root(1, 2)), idx(n, long(1))): 1
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_monomial_cocycles_closed(n):
    for w in enumerate_group(n):
        assert differential(monomial_cocycle(w)).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_cocycle_matches_element_cocycle(n):
    for word in itertools.permutations(range(1, n + 1)):
        sigma = Perm(word)
        for psi in enumerate_increasing(n):
            lc = pair_cocycle(sigma, psi)
            w = from_pair(sigma, psi)
            mc = monomial_cocycle(w)
            assert set(lc.terms) == set(mc.terms)
            ((_, coeff),) = lc.terms.items()
            assert coeff in (1, -1)
            assert lc.degree == len(inversion_set(w))


def test_pair_cocycle_degree_additive():
    n = 3
    for w in enumerate_group(n):
        p = correspondence_pair(w)
        lc = pair_cocycle(p.sym, p.ideal)
        from spcohom.weyl import perm_inversions

        assert lc.degree == len(perm_inversions(p.sym)) + p.ideal.dimension


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_cohomology_basis_passes(n):
    report = verify_cohomology_basis(n)
    assert report.passed, [r.check_id for r in report.records if not r.passed]
    assert report.data["cocycle_weights_all_distinct"]
    assert report.data["betti"] == list(weyl_poincare(n).coeffs)
