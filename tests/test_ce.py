import itertools
import math
import random
from fractions import Fraction

import pytest

from cochains import (
    Cochain,
    differential,
    dstar_over_decompositions,
    monomial_cocycle,
    pair_cocycle,
)
from spcohom import ce, correspondence, weyl
from spcohom.ce import (
    ChainComplex,
    betti_numbers,
    block_summary,
    dstar,
    laplacian,
    verify_cohomology_basis,
    _d_monomial,
    _mask_key,
    _rank_int,
    _subset_weight,
)
from spcohom.cli import main
from spcohom.correspondence import correspondence_pair, from_pair
from spcohom.errors import RankCapError
from spcohom.ideals import enumerate_increasing
from spcohom.poincare import weyl_poincare
from spcohom.report import VerificationReport
from spcohom.roots import LONG, positive_roots, root_index, diff, long, sum_root
from spcohom.weyl import (
    Perm,
    SignedPerm,
    enumerate_group,
    group_order,
    inversion_set,
)


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


def _kostant_weights(n):
    return {_subset_weight(n, next(iter(monomial_cocycle(w).terms))) for w in enumerate_group(n)}


def _norm(n, b):
    """|e_b|^2 from the root's kind: 1 for 2e_i, 2 for e_i +- e_j."""
    return 1 if positive_roots(n)[b].kind == LONG else 2


def _inverse_metric(n, key):
    """1/|f_S|^2 = prod |e_b|^2 over the monomial."""
    return math.prod(_norm(n, b) for b in key)


def _c(n, weight):
    """c(mu) = (|rho|^2 - |rho - mu|^2) / 4 with rho = (n, ..., 1)."""
    rho = range(n, 0, -1)
    return Fraction(
        sum(r * r for r in rho) - sum((r - m) ** 2 for r, m in zip(rho, weight)), 4
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dstar_scale_clears_every_denominator(n):
    # 4 = |e_i +- e_j|^2 |e_k +- e_l|^2 and 2 = |e_i +- e_j|^2 |2e_k| both occur
    # from rank 2 on; rank 1 has no decomposition
    assert ce._dstar_scale(n) == (4 if n > 1 else 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dstar_is_adjoint_of_d(n):
    # <dx, y> = <x, d*y> for every pair of monomials, times N |f_x|^-2 |f_y|^-2
    # for the scaled N d*; both sides are checked from each side's nonzero
    # terms, which covers every nonzero pair
    scale, m = ce._dstar_scale(n), _inverse_metric
    keys = [_mask_key(mask) for mask in range(1 << (n * n))]
    for x in keys:
        for y, c in _d_monomial(n, x).items():
            assert scale * c * m(n, x) == dstar(n, y, scale).get(x, 0) * m(n, y)
    for y in keys:
        for x, c in dstar(n, y, scale).items():
            assert len(x) == len(y) - 1
            assert c * m(n, y) == scale * _d_monomial(n, x).get(y, 0) * m(n, x)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dstar_over_the_key_pairs_equals_the_decomposition_loop(n):
    scale = ce._dstar_scale(n)
    for p in range(5):
        for key in itertools.combinations(range(n * n), p):
            assert dstar(n, key, scale) == dstar_over_decompositions(n, key, scale), key


def test_dstar_does_not_read_the_decompositions(monkeypatch):
    n = 4
    scale = ce._dstar_scale(n)

    def refused(m):
        raise AssertionError("dstar read the decompositions")

    monkeypatch.setattr(ce, "_decompositions", refused)
    for p in range(3):
        for key in itertools.combinations(range(n * n), p):
            dstar(n, key, scale)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_laplacian_is_scalar_on_every_monomial(n):
    # the scaled N L is N c(mu) on every monomial, in integers
    scale = ce._dstar_scale(n)
    for mask in range(1 << (n * n)):
        key = _mask_key(mask)
        c = scale * _c(n, _subset_weight(n, key))
        assert c.denominator == 1
        assert laplacian(n, key, scale) == ({key: c} if c else {})


def _brute_force_counts(n):
    """{(degree, weight): number of subsets}, over all 2^(n^2) subsets."""
    counts = {}
    for mask in range(1 << (n * n)):
        key = _mask_key(mask)
        block = (len(key), _subset_weight(n, key))
        counts[block] = counts.get(block, 0) + 1
    return counts


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dp_betti_matches_brute_force(n):
    counts = _brute_force_counts(n)
    betti = [0] * (n * n + 1)
    for (p, weight), count in counts.items():
        if _c(n, weight) == 0:
            betti[p] += count
    assert betti_numbers(n) == betti == list(weyl_poincare(n).coeffs)
    assert {(p, w): dim for p, w, dim, _rank in block_summary(n)} == counts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_ranks_match_bareiss(n):
    # the forced ranks of the --per-weight table equal Bareiss on each block
    cx = ChainComplex(n)
    forced = block_summary(n)
    assert forced == cx.block_summary()
    for p, w, _dim, rank in forced:
        mat = cx.matrix((p, w))
        assert rank == (_rank_int(mat) if mat and mat[0] else 0)
    # the weights with c = 0 are exactly the weights rho - w rho
    harmonic = {w for _p, w, _dim, _rank in forced if _c(n, w) == 0}
    assert harmonic == _kostant_weights(n)
    assert len(harmonic) == group_order(n)


def _broken_constants(n):
    """One table per structure constant, with that constant doubled."""
    dec = ce._decompositions(n)
    for g, row in enumerate(dec):
        for i, (a, b, c) in enumerate(row):
            broken = list(dec)
            broken[g] = row[:i] + ((a, b, 2 * c),) + row[i + 1 :]
            yield tuple(broken)


def _laplacian_record(n):
    report = VerificationReport(rank=n)
    ce.add_laplacian_record(report)
    (record,) = report.records
    return record


def test_laplacian_check_catches_broken_structure(monkeypatch, capsys, tmp_path):
    n = 3
    record = _laplacian_record(n)
    assert record.passed and record.detail == {"checked": 46, "failures": 0, "witnesses": []}
    tables = list(_broken_constants(n))
    assert len(tables) == 10
    norms = ce._norms(n)
    broken_norms = [norms[:b] + (3 - norms[b],) + norms[b + 1 :] for b in range(n * n)]
    patches = [("_decompositions", t) for t in tables] + [("_norms", v) for v in broken_norms]
    for name, value in patches:
        monkeypatch.setattr(ce, name, lambda m, value=value: value)
        record = _laplacian_record(n)
        assert not record.passed and record.detail["failures"] > 0
        assert record.detail["witnesses"]
        monkeypatch.undo()
    for name, value in (patches[0], patches[-1]):
        monkeypatch.setattr(ce, name, lambda m, value=value: value)
        for command in ("betti", "verify"):
            assert main([command, "--rank", str(n), "--out", str(tmp_path / "out.json")]) == 1
            assert "Traceback" not in capsys.readouterr().err
        monkeypatch.undo()


def test_betti_examples():
    assert betti_numbers(1) == [1, 1]
    assert betti_numbers(2) == [1, 2, 2, 2, 1]
    b3 = betti_numbers(3)
    assert b3 == list(weyl_poincare(3).coeffs)
    assert b3 == b3[::-1]
    assert sum(b3) == 48


def test_betti_cap():
    # rank 6 is the default cap; rank 7 is refused before anything is counted
    with pytest.raises(RankCapError, match="cohomology cap 6$"):
        betti_numbers(7)
    assert betti_numbers(5) == list(weyl_poincare(5).coeffs)
    # the oracle lists all 2^(n^2) monomials and stops at rank 4 whatever cap says
    with pytest.raises(RankCapError, match="cochain-complex cap 4$"):
        ChainComplex(5, cap=ce.DEFAULT_COHOMOLOGY_CAP)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_monomial_cocycles_closed(n):
    for w in enumerate_group(n):
        assert differential(monomial_cocycle(w)).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
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


def _records(n, **kwargs):
    return {r.check_id: r for r in verify_cohomology_basis(n, **kwargs).records}


def test_classes_independent_can_fail(monkeypatch):
    n = 3
    record = _records(n)["classes-independent"]
    assert record.passed
    assert record.detail == {"not_harmonic": 0, "pair_injective": True, "witnesses": []}

    # a walk that repeats elements repeats their monomials: the flipped row
    # of the value 1 at the end of a word takes its unflipped row, so the
    # elements that differ only in that flip share their masks, and the
    # recipe cannot rebuild both from their pair keys.  That row also
    # differs from its table, so it is not harmonic either
    real = weyl._row

    def repeated(rank, v, later):
        up, down = real(rank, v, later)
        return (up, up) if (v, later) == (1, 0) else (up, down)

    monkeypatch.setattr(weyl, "_row", repeated)
    failed = {check_id: r.detail for check_id, r in _records(n).items() if not r.passed}
    assert failed["classes-independent"] == {
        "not_harmonic": 1,
        "pair_injective": False,
        "witnesses": ["[2,3,-1]"],
    }
    # the repeat also moves the lengths of those elements in the scan's
    # histogram and breaks the bijection the pair records rest on
    assert set(failed) == {
        "cocycles-closed",
        "classes-independent",
        "class-count-per-degree",
        "pair-cocycles-match",
        "pair-cocycle-degree",
    }


def test_a_c4_that_flags_every_monomial_fails_the_laplacian_and_closed(monkeypatch):
    # c = 1 everywhere breaks the Laplacian identity on the empty monomial;
    # the row check reads no c, so cocycles-closed fails through
    # laplacian-scalar alone and classes-independent passes
    n = 3
    monkeypatch.setattr(ce, "_c4", lambda n, weight: 1)
    failed = {check_id: r.detail for check_id, r in _records(n).items() if not r.passed}
    assert set(failed) == {"laplacian-scalar", "cocycles-closed"}
    assert failed["cocycles-closed"] == {
        "rows": n * 2**n,
        "not_harmonic": 0,
        "laplacian_scalar": False,
    }


def _corrupt_a_row(monkeypatch, n, fault):
    """Patch weyl._row so that one row fails one of the two row checks, and
    return the element ce names as its witness.  For "bits", the flipped row
    of the value 1 with nothing after it trades 2e_1 for e_1 - e_2 and
    e_1 + e_2: the same weight, so only the comparison with the table fails.
    For "weight", the unflipped row of the value n after all the others
    loses its lowest root, and weyl._row_tables takes the same row, so only
    the weight is off the local vector."""
    if fault == "bits":
        v, later, flipped = 1, 0, 1
        row = (1 << idx(n, diff(1, 2))) | (1 << idx(n, sum_root(1, 2)))
    else:
        v, later, flipped = n, (1 << (n - 1)) - 1, 0
        row = weyl._row(n, v, later)[0]
        row &= row - 1
        lo, hi = weyl._row_tables(n)
        lo[v][later] = row
        monkeypatch.setattr(weyl, "_row_tables", lambda m: (lo, hi))
    real = weyl._row

    def corrupted(m, u, rest):
        rows = list(real(m, u, rest))
        if (u, rest) == (v, later):
            rows[flipped] = row
        return tuple(rows)

    monkeypatch.setattr(weyl, "_row", corrupted)
    others = [q for q in range(1, n + 1) if q != v and not later >> (q - 1) & 1]
    after = [q for q in range(1, n + 1) if later >> (q - 1) & 1]
    return str(SignedPerm((*others, -v if flipped else v, *after)))


@pytest.mark.parametrize("fault", ["bits", "weight"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_a_corrupted_row_fails_closed_and_independent(monkeypatch, n, fault):
    # the scan is taken before the fault, so that only ce's records see it
    scan = correspondence.verify_bijection(n)
    witness = _corrupt_a_row(monkeypatch, n, fault)
    failed = {
        check_id: r.detail for check_id, r in _records(n, bijection=scan).items() if not r.passed
    }
    assert failed == {
        "cocycles-closed": {
            "rows": n * 2**n,
            "not_harmonic": 1,
            "laplacian_scalar": True,
        },
        "classes-independent": {
            "not_harmonic": 1,
            "pair_injective": True,
            "witnesses": [witness],
        },
    }


def test_cocycles_closed_needs_the_laplacian_certificate(monkeypatch):
    # a wrong norm breaks L = c Id but leaves every inversion monomial harmonic
    n = 3
    norms = ce._norms(n)
    monkeypatch.setattr(ce, "_norms", lambda m: (3 - norms[0],) + norms[1:])
    failed = {check_id: r.detail for check_id, r in _records(n).items() if not r.passed}
    assert set(failed) == {"laplacian-scalar", "cocycles-closed"}
    assert failed["cocycles-closed"] == {
        "rows": n * 2**n,
        "not_harmonic": 0,
        "laplacian_scalar": False,
    }


@pytest.mark.parametrize("n", [1, 4, 6])
def test_cocycles_closed_reports_the_rows_it_read(monkeypatch, n):
    # two rows a call of weyl._row, one call per pair (v, later) with v not
    # in later: n 2^n rows, counted where ce reads them
    scan = correspondence.verify_bijection(n)
    real = weyl._row
    calls = []

    def counted(rank, v, later):
        calls.append((v, later))
        return real(rank, v, later)

    monkeypatch.setattr(weyl, "_row", counted)
    record = _records(n, bijection=scan)["cocycles-closed"]
    assert record.passed
    assert record.detail["rows"] == 2 * len(calls) == n * 2**n


def test_a_wrong_scan_histogram_fails_class_count_per_degree():
    n = 3
    scan = correspondence.verify_bijection(n)
    wrong = list(scan.data["weyl_length_histogram"])
    wrong[0], wrong[1] = wrong[0] + 1, wrong[1] - 1
    scan.data["weyl_length_histogram"] = wrong
    failed = {
        check_id: r.detail for check_id, r in _records(n, bijection=scan).items() if not r.passed
    }
    assert failed == {
        "class-count-per-degree": {"counts": wrong, "betti": list(weyl_poincare(n).coeffs)}
    }


def test_verify_and_classes_scan_the_group_once(monkeypatch, tmp_path):
    calls = []
    real = correspondence._scan_chunk

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(correspondence, "_scan_chunk", counted)
    for command in ("verify", "classes"):
        calls.clear()
        assert main([command, "--rank", "3", "--out", str(tmp_path / f"{command}.json")]) == 0
        assert len(calls) == 1


def test_pair_cocycles_match_can_fail(monkeypatch):
    # rho's table of one permutation swaps two sums-plus-longs
    n = 3
    real = correspondence._rho_table

    def corrupted(word, rank):
        table = list(real(word, rank))
        if tuple(word) == (2, 3, 1):
            table[3], table[5] = table[5], table[3]
        return tuple(table)

    monkeypatch.setattr(correspondence, "_rho_table", corrupted)
    failed = {r.check_id: r.detail for r in verify_cohomology_basis(n).records if not r.passed}
    assert set(failed) == {"pair-cocycles-match"}
    assert 0 < failed["pair-cocycles-match"]["mismatches"] <= len(list(enumerate_increasing(n)))


def test_pair_cocycle_degree_can_fail(monkeypatch):
    # a relabel that turns the empty ideal into the one-root ideal adds a
    # degree to every element without sum inversions
    n = 3
    (top,) = (psi.members.mask for psi in enumerate_increasing(n) if psi.dimension == 1)
    real = correspondence._apply_relabel
    monkeypatch.setattr(correspondence, "_apply_relabel", lambda *args: real(*args) or top)
    scan = {r.check_id: r for r in correspondence.verify_bijection(n).records}
    assert not scan["degree-additivity"].passed
    failures = scan["degree-additivity"].detail["failures"]
    assert failures == math.factorial(n)
    record = {r.check_id: r for r in verify_cohomology_basis(n).records}["pair-cocycle-degree"]
    assert not record.passed
    assert record.detail == {"checked": group_order(n), "mismatches": failures}


@pytest.mark.parametrize("check_id", ["pair-injective", "pair-onto", "sym-component-inversions"])
def test_pair_records_need_the_bijection(check_id):
    n = 3
    scan = correspondence.verify_bijection(n)
    next(r for r in scan.records if r.check_id == check_id).passed = False
    records = {r.check_id: r for r in verify_cohomology_basis(n, bijection=scan).records}
    for pair_id in ("pair-cocycles-match", "pair-cocycle-degree"):
        assert not records[pair_id].passed
        assert records[pair_id].detail == {"checked": group_order(n), "mismatches": 0}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_cohomology_basis_passes(n):
    report = verify_cohomology_basis(n)
    assert report.passed, [r.check_id for r in report.records if not r.passed]
    assert report.data["betti"] == list(weyl_poincare(n).coeffs)
