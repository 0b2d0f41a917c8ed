import itertools
import random

import pytest

from oracles import (
    add,
    bracket,
    coeffs,
    constant,
    from_roots,
    is_zero,
    matmul,
    scale,
    sub,
    sum_root,
    zero_matrix,
)
from spcohom import liealg
from spcohom.errors import ConsistencyError
from spcohom.liealg import (
    IntMatrix,
    _proportionality,
    is_abelian_ideal_lie,
    root_vector,
    structure_table,
)
from spcohom.ideals import is_abelian_ideal_combinatorial
from spcohom.roots import RootSet, diff, long, num_diffs, positive_roots, root_index


def E(d, i, j):
    """Elementary matrix with 1 in row i, column j (1-based)."""
    return IntMatrix.from_entries(d, {(i - 1, j - 1): 1})


def dense(m):
    """The nested-list reference form of an IntMatrix."""
    rows = [[0] * m.dim for _ in range(m.dim)]
    for (r, c), v in m.entries:
        rows[r][c] = v
    return rows


def dense_mul(x, y):
    d = len(x)
    return [[sum(x[r][k] * y[k][c] for k in range(d)) for c in range(d)] for r in range(d)]


def random_matrix(rng, d):
    """A sparse-ish random integer matrix: about half its entries are 0."""
    return IntMatrix.from_entries(
        d,
        {(r, c): rng.choice([0, 0, 0, 1, -1, 2, -3]) for r in range(d) for c in range(d)},
    )


@pytest.mark.parametrize("d", [4, 6])
def test_int_matrix_matches_a_dense_reference(d):
    rng = random.Random(2024 + d)
    for _ in range(200):
        x, y = random_matrix(rng, d), random_matrix(rng, d)
        dx, dy = dense(x), dense(y)
        assert dense(matmul(x, y)) == dense_mul(dx, dy)
        assert dense(add(x, y)) == [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(dx, dy)]
        assert dense(sub(x, y)) == [[a - b for a, b in zip(rx, ry)] for rx, ry in zip(dx, dy)]
        k = rng.randint(-3, 3)
        assert dense(scale(x, k)) == [[k * a for a in row] for row in dx]
        assert is_zero(x) == all(a == 0 for row in dx for a in row)
        assert (x == y) == (dx == dy)
        assert sub(x, x) == zero_matrix(d) and is_zero(sub(x, x))
        assert scale(x, 0) == zero_matrix(d)
        assert all(v for _, v in matmul(x, y).entries)


def test_int_matrix_products_that_cancel_to_zero():
    d = 4
    # row 0 of x meets column 0 of y in +1*1 and -1*1
    x = IntMatrix.from_entries(d, {(0, 1): 1, (0, 2): -1})
    y = IntMatrix.from_entries(d, {(1, 0): 1, (2, 0): 1, (1, 3): 2})
    assert dense_mul(dense(x), dense(y))[0][0] == 0
    assert matmul(x, y).entries == (((0, 3), 2),)
    assert matmul(x, y) == IntMatrix.from_entries(d, {(0, 3): 2})
    # a nilpotent whose square cancels entirely
    n = IntMatrix.from_entries(d, {(0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): -1})
    assert dense_mul(dense(n), dense(n)) == [[0] * d for _ in range(d)]
    assert is_zero(matmul(n, n)) and matmul(n, n) == zero_matrix(d)
    # explicit zeros are not stored, so equality ignores them
    assert IntMatrix.from_entries(d, {(1, 1): 0}) == zero_matrix(d)


@pytest.mark.parametrize("op", ["matmul", "add", "sub"])
def test_int_matrix_dimension_mismatch(op):
    x, y = zero_matrix(4), IntMatrix.from_entries(6, {(5, 5): 1})
    with pytest.raises(ValueError):
        {"matmul": matmul, "add": add, "sub": sub}[op](x, y)


@pytest.mark.parametrize("pos", [(4, 0), (0, 4), (-1, 0), (0, -1)])
def test_from_entries_refuses_an_index_outside_the_dimension(pos):
    with pytest.raises(ValueError):
        IntMatrix.from_entries(4, {pos: 1})


def test_proportionality_reads_c_or_raises():
    base = root_vector(2, sum_root(1, 2))  # entries (0, 3) and (1, 2), both 1
    assert _proportionality(dict(scale(base, -2).entries), base.entries) == -2
    assert _proportionality({}, base.entries) == 0
    bad = [
        add(base, E(4, 1, 1)),  # an entry outside base's support
        add(base, E(4, 2, 3)),  # unequal ratios: 2 and 1
        E(4, 2, 3),  # the first entry of base missing
        sub(scale(base, 2), E(4, 1, 4)),  # ratio 1 at the first entry, 2 after
    ]
    for x in bad:
        with pytest.raises(ConsistencyError):
            _proportionality(dict(x.entries), base.entries)
    with pytest.raises(ConsistencyError):
        _proportionality(dict(base.entries), scale(base, 2).entries)  # ratio 1/2 is no integer
    with pytest.raises(ConsistencyError):
        _proportionality(dict(base.entries), ())  # a zero root vector


def test_root_vector_examples():
    assert root_vector(2, diff(1, 2)) == sub(E(4, 1, 2), E(4, 4, 3))
    assert root_vector(2, long(2)) == E(4, 2, 4)
    assert root_vector(2, sum_root(1, 2)) == add(E(4, 1, 4), E(4, 2, 3))
    assert root_vector(1, long(1)) == E(2, 1, 2)


def test_root_vector_rejects_out_of_rank():
    with pytest.raises(ValueError):
        root_vector(2, long(3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symplectic_condition(n):
    # X^T J + J X = 0 with J = [[0, I], [-I, 0]]
    j = IntMatrix.from_entries(
        2 * n, {**{(i, n + i): 1 for i in range(n)}, **{(n + i, i): -1 for i in range(n)}}
    )
    for alpha in positive_roots(n):
        x = root_vector(n, alpha)
        xt = IntMatrix.from_entries(2 * n, {(c, r): v for (r, c), v in x.entries})
        assert is_zero(add(matmul(xt, j), matmul(j, x)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weight_vectors(n):
    for alpha in positive_roots(n):
        x = root_vector(n, alpha)
        vector = coeffs(alpha, n)
        for m in range(1, n + 1):
            h = sub(E(2 * n, m, m), E(2 * n, n + m, n + m))
            assert bracket(h, x) == scale(x, vector[m - 1])


def test_bracket_examples():
    n = 2
    assert bracket(root_vector(n, diff(1, 2)), root_vector(n, long(2))) == root_vector(
        n, sum_root(1, 2)
    )
    x = root_vector(n, diff(1, 2))
    assert is_zero(bracket(x, x))
    assert is_zero(bracket(root_vector(n, long(1)), root_vector(n, long(2))))
    # the long-root bracket picks up the coefficient 2
    assert bracket(
        root_vector(n, diff(1, 2)), root_vector(n, sum_root(1, 2))
    ) == scale(root_vector(n, long(1)), 2)


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket(zero_matrix(2), zero_matrix(4))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jacobi_identity(n):
    vectors = [root_vector(n, alpha) for alpha in positive_roots(n)]
    for x, y, z in itertools.combinations(vectors, 3):
        acc = add(bracket(x, bracket(y, z)), bracket(y, bracket(z, x)))
        assert is_zero(add(acc, bracket(z, bracket(x, y))))


def test_structure_table_entries():
    n = 2
    table = structure_table(n)
    idx = root_index(n)
    assert constant(table, idx[diff(1, 2)], idx[long(2)]) == (idx[sum_root(1, 2)], 1)
    assert constant(table, idx[long(1)], idx[long(2)]) is None
    assert constant(table, idx[diff(1, 2)], idx[diff(1, 2)]) is None
    # antisymmetry
    for (a, b), (g, c) in table.entries.items():
        assert table.entries[(b, a)] == (g, -c)


@pytest.mark.parametrize("n", range(1, 9))
def test_structure_table_matches_brackets(n):
    table = structure_table(n)
    roots = positive_roots(n)
    vectors = [root_vector(n, alpha) for alpha in roots]
    for a in range(len(roots)):
        for b in range(len(roots)):
            if a == b:
                continue
            got = bracket(vectors[a], vectors[b])
            entry = constant(table, a, b)
            if entry is None:
                assert is_zero(got)
            else:
                g, c = entry
                assert got == scale(vectors[g], c)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_structure_table_multiplies_at_most_4n3_entry_pairs(monkeypatch, n):
    # the join meets only entries on a shared index, so bracketing all
    # n^4 / 2 pairs cannot come back unnoticed
    real, calls, expected = liealg._add_term, [], structure_table(n).entries

    def counted(*args):
        calls.append(None)
        real(*args)

    monkeypatch.setattr(liealg, "_add_term", counted)
    assert liealg.structure_table.__wrapped__(n).entries == expected
    assert 0 < len(calls) <= 4 * n**3


def test_is_abelian_ideal_lie_examples():
    n = 2
    assert is_abelian_ideal_lie(n, from_roots(n, [long(1), sum_root(1, 2)]))
    assert not is_abelian_ideal_lie(n, from_roots(n, [diff(1, 2)]))
    assert is_abelian_ideal_lie(n, RootSet(n, 0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lie_agrees_with_combinatorial_exhaustive(n):
    for mask in range(1 << n * n):
        s = RootSet(n, mask)
        assert is_abelian_ideal_lie(n, s) == is_abelian_ideal_combinatorial(s)


def test_lie_agrees_with_combinatorial_sampled_n4():
    n = 4
    rng = random.Random(1234)
    nd = num_diffs(n)
    for local in range(1 << n * (n + 1) // 2):
        s = RootSet(n, local << nd)
        assert is_abelian_ideal_lie(n, s) == is_abelian_ideal_combinatorial(s)
    for _ in range(2000):
        s = RootSet(n, rng.getrandbits(n * n))
        assert is_abelian_ideal_lie(n, s) == is_abelian_ideal_combinatorial(s)
