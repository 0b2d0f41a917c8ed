"""Exact matrix realization of the symplectic Lie algebra sp(2n).

The root vectors are the classical ones for the block form
[[A, B], [C, -A^T]] with B, C symmetric:

    e_{e_i - e_j} = E_ij - E_{n+j, n+i}          (i < j)
    e_{e_i + e_j} = E_{i, n+j} + E_{j, n+i}      (i < j)
    e_{2 e_i}     = E_{i, n+i}

All brackets of these have integer coefficients, so the module works in plain
Python integers end to end.  A matrix keeps only its nonzero entries, at most
2 per root vector, so a bracket costs the same at every rank.  The structure
table of pairwise brackets, built by a sparse join of those entries in
O(n^3), is the single source of bracket truth for the cochain complex; every
other module treats its signs as given.  verify's lie-vs-combinatorial
compares it with root addition (neighbor_mismatches) at every rank: about
1.2 ms at rank 7 and 1.7 ms at rank 8 in a fresh process, building both
tables included.
"""

from functools import lru_cache

from . import ideals
from .errors import ConsistencyError
from .report import VerificationReport
from .roots import DIFF, LONG, Frozen, Root, RootSet, check_rank, positive_roots, _set


class IntMatrix(Frozen):
    """A square integer matrix as its dimension and its nonzero entries
    ((row, col), value), sorted by position.  Build it with from_entries, so
    that equal matrices have equal entries.  The root vectors and the
    structure table read only the entries; the matrix arithmetic the tests
    check them with lives in tests/oracles.py."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: tuple[tuple[tuple[int, int], int], ...]):
        _set(self, "dim", dim)
        _set(self, "entries", entries)

    @classmethod
    def from_entries(cls, d: int, entries: dict[tuple[int, int], int]) -> "IntMatrix":
        if any(not (0 <= r < d and 0 <= c < d) for r, c in entries):
            raise ValueError(f"matrix entry index outside range({d})")
        return cls(d, tuple(sorted((k, v) for k, v in entries.items() if v)))


def root_vector(n: int, alpha: Root) -> IntMatrix:
    check_rank(n)
    if alpha.j > n:
        raise ValueError(f"root {alpha} does not live in rank {n}")
    i, j = alpha.i - 1, alpha.j - 1
    if alpha.kind == DIFF:
        entries = {(i, j): 1, (n + j, n + i): -1}
    elif alpha.kind == LONG:
        entries = {(i, n + i): 1}
    else:
        entries = {(i, n + j): 1, (j, n + i): 1}
    return IntMatrix.from_entries(2 * n, entries)


class StructureTable:
    """Bracket data on the positive root vectors: entries[(a, b)] = (g, c)
    means [e_a, e_b] = c * e_g with c != 0, indices into the canonical order.
    Pairs whose bracket vanishes are absent; antisymmetry holds by
    construction.  Immutable once built; safe to share."""

    __slots__ = ("rank", "entries", "_rows")

    def __init__(self, rank: int, entries: dict[tuple[int, int], tuple[int, int]]):
        self.rank = rank
        self.entries = entries
        rows: list[list[tuple[int, int, int]]] = [[] for _ in range(rank**2)]
        for (a, b), (g, c) in entries.items():
            rows[a].append((b, g, c))
        self._rows = tuple(tuple(sorted(r)) for r in rows)

    def neighbors(self, a: int) -> tuple[tuple[int, int, int], ...]:
        """All (b, g, c) with [e_a, e_b] = c * e_g nonzero."""
        return self._rows[a]


def _proportionality(x: dict, base: tuple) -> int:
    """The integer c with x == c * base, for a bracket's nonzero entries x and
    a root vector's entries base; raises if no such c exists."""
    if not base:
        raise ConsistencyError("expected root vector is zero")
    pos, vb = base[0]
    c, r = divmod(x.get(pos, 0), vb)
    if r or x != {p: c * v for p, v in base if c}:
        raise ConsistencyError("bracket not proportional to the expected root vector")
    return c


@lru_cache(maxsize=None)
def structure_table(n: int) -> StructureTable:
    """Pairwise brackets of all positive root vectors.  Faults if any bracket
    fails to be an integer multiple of the root vector of the summed root, or
    is nonzero when the sum of roots is not a positive root.

    The brackets come from a sparse join on the shared index k, not from
    bracketing all n^4/2 pairs.  A term of X_a X_b is an entry (r, k) of X_a
    times an entry (k, c) of X_b, and a term of X_b X_a is an entry (q, r) of
    X_b times an entry (r, k) of X_a.  So joining each entry (r, k) of X_a
    with the entries in row k and in column r of the other root vectors meets
    every nonzero term of every [X_a, X_b].  A root vector has at most 2
    entries, and a row or column holds at most 2n - 1 entries of them all,
    so the join multiplies O(n^3) entry pairs (_add_term).  A pair that the
    join never meets has no term, and its bracket is exactly 0.  The terms
    are summed into each pair's bracket as they come, one root a at a time,
    and every nonzero bracket goes through both checks, in the order (a, b)
    of the canonical index, on its entry dict.  The root sum is one add and
    one lookup (ideals._packed_roots), not read from _addable, so the table
    stays independent of the root-addition table it is compared with."""
    check_rank(n)
    roots = positive_roots(n)
    vectors = [root_vector(n, r) for r in roots]
    in_row: dict[int, list[tuple[int, int, int]]] = {}
    in_col: dict[int, list[tuple[int, int, int]]] = {}
    for b, x in enumerate(vectors):
        for (r, c), v in x.entries:
            in_row.setdefault(r, []).append((b, c, v))
            in_col.setdefault(c, []).append((b, r, v))
    packed, index, _bias = ideals._packed_roots(n)
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    for a, x in enumerate(vectors):
        brackets: dict[int, dict[tuple[int, int], int]] = {}  # b > a -> [X_a, X_b]
        for (r, k), v in x.entries:
            for b, c, w in in_row.get(k, ()):  # X_a X_b at (r, c)
                if b > a:
                    _add_term(brackets.setdefault(b, {}), (r, c), v, w)
            for b, q, w in in_col.get(r, ()):  # X_b X_a at (q, k)
                if b > a:
                    _add_term(brackets.setdefault(b, {}), (q, k), -w, v)
        for b in sorted(brackets):
            br = {pos: v for pos, v in brackets[b].items() if v}
            if not br:
                continue
            gamma = index.get(packed[a] + packed[b])
            if gamma is None:
                raise ConsistencyError(
                    f"[{roots[a]}, {roots[b]}] is nonzero but the root sum leaves "
                    "the positive roots"
                )
            c = _proportionality(br, vectors[gamma].entries)
            entries[(a, b)] = (gamma, c)
            entries[(b, a)] = (gamma, -c)
    return StructureTable(n, entries)


def _add_term(acc: dict[tuple[int, int], int], pos: tuple[int, int], v: int, w: int) -> None:
    """Add the product v * w of two matrix entries to a bracket's entry at pos."""
    acc[pos] = acc.get(pos, 0) + v * w


def is_abelian_ideal_lie(n: int, s: RootSet) -> bool:
    """Matrix-level abelian-ideal test for the span of the root vectors of s:
    brackets with every positive root vector stay inside, and brackets of two
    members vanish.  The diagonal part of the Borel normalizes every root
    space, so the positive-root brackets are the whole condition."""
    if s.rank != n:
        raise ValueError("rank mismatch")
    return ideals._closed_under(structure_table(n).neighbors, s.mask)


def neighbor_mismatches(n: int) -> int:
    """The number of roots a whose nonzero brackets [e_a, e_b] = c e_g and
    whose root-addition pairs a + b = g differ as sets of (b, g).  Both ideal
    predicates are ideals._closed_under over these two tables, read here
    through the same names, so at 0 they agree on all 2^(n^2) subsets of the
    positive roots."""
    table, addable = structure_table(n), ideals._addable(n)
    return sum(
        {(b, g) for b, g, _c in table.neighbors(a)} != set(addable[a]) for a in range(n * n)
    )


def add_agreement_record(report: VerificationReport) -> None:
    """Add lie-vs-combinatorial, a certificate at every rank: the structure
    table's bracket neighbours equal the root-addition pairs, so the two
    ideal predicates agree on all 2^(n^2) subsets.  It costs about 1.2 ms at
    rank 7 and 1.7 ms at rank 8 in a fresh process, building _addable and
    the structure table included."""
    n = report.rank
    mismatches = neighbor_mismatches(n)
    report.add(
        "lie-vs-combinatorial",
        "matrix-level and root-addition ideal criteria agree",
        mismatches == 0,
        {"mode": "certificate", "subsets_covered": 1 << (n * n), "roots_mismatched": mismatches},
    )
