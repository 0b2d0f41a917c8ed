"""Exact matrix realization of the symplectic Lie algebra sp(2n).

The root vectors are the classical ones for the block form
[[A, B], [C, -A^T]] with B, C symmetric:

    e_{e_i - e_j} = E_ij - E_{n+j, n+i}          (i < j)
    e_{e_i + e_j} = E_{i, n+j} + E_{j, n+i}      (i < j)
    e_{2 e_i}     = E_{i, n+i}

All brackets of these have integer coefficients, so the module works in plain
Python integers end to end.  The structure table built from pairwise brackets
is the single source of bracket truth for the cochain complex; every other
module treats its signs as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import ideals
from .errors import ConsistencyError
from .roots import DIFF, LONG, Root, RootSet, check_rank, dotted_sum, positive_roots, root_index


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """A square integer matrix as nested tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.rows)
        if any(len(r) != d for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def zero(cls, d: int) -> "IntMatrix":
        return cls(tuple((0,) * d for _ in range(d)))

    @classmethod
    def from_entries(cls, d: int, entries: dict[tuple[int, int], int]) -> "IntMatrix":
        rows = [[0] * d for _ in range(d)]
        for (r, c), v in entries.items():
            rows[r][c] = v
        return cls(tuple(tuple(r) for r in rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = other.transpose().rows
        out = []
        for row in self.rows:
            nz = [(k, a) for k, a in enumerate(row) if a]
            out.append(
                tuple(sum(a * col[k] for k, a in nz) for col in cols)
            )
        return IntMatrix(tuple(out))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(c * v for v in row) for row in self.rows))


def bracket(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """The commutator XY - YX, exact."""
    return (x @ y) - (y @ x)


def symplectic_form(n: int) -> IntMatrix:
    """The 2n x 2n form [[0, I], [-I, 0]]; sp(2n) is X^T J + J X = 0."""
    check_rank(n)
    entries = {}
    for i in range(n):
        entries[(i, n + i)] = 1
        entries[(n + i, i)] = -1
    return IntMatrix.from_entries(2 * n, entries)


def root_vector(n: int, alpha: Root) -> IntMatrix:
    check_rank(n)
    if alpha.max_index > n:
        raise ValueError(f"root {alpha} does not live in rank {n}")
    i, j = alpha.i - 1, alpha.j - 1
    if alpha.kind == DIFF:
        entries = {(i, j): 1, (n + j, n + i): -1}
    elif alpha.kind == LONG:
        entries = {(i, n + i): 1}
    else:
        entries = {(i, n + j): 1, (j, n + i): 1}
    return IntMatrix.from_entries(2 * n, entries)


def cartan_element(n: int, m: int) -> IntMatrix:
    """The diagonal basis element E_mm - E_{n+m, n+m}; the coefficient of e_m
    in a root reads off its bracket with every root vector."""
    check_rank(n)
    if not 1 <= m <= n:
        raise ValueError("index out of range")
    return IntMatrix.from_entries(2 * n, {(m - 1, m - 1): 1, (n + m - 1, n + m - 1): -1})


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

    def constant(self, a: int, b: int):
        """(gamma_index, c) or None."""
        return self.entries.get((a, b))

    def neighbors(self, a: int) -> tuple[tuple[int, int, int], ...]:
        """All (b, g, c) with [e_a, e_b] = c * e_g nonzero."""
        return self._rows[a]


def _proportionality(x: IntMatrix, base: IntMatrix) -> int:
    """The integer c with x == c * base; raises if no such c exists."""
    c = None
    for row_x, row_b in zip(x.rows, base.rows):
        for vx, vb in zip(row_x, row_b):
            if vb == 0:
                if vx != 0:
                    raise ConsistencyError("bracket not proportional to the expected root vector")
                continue
            q, r = divmod(vx, vb)
            if r != 0 or (c is not None and q != c):
                raise ConsistencyError("bracket not proportional to the expected root vector")
            c = q
    if c is None:
        raise ConsistencyError("expected root vector is zero")
    return c


@lru_cache(maxsize=None)
def structure_table(n: int) -> StructureTable:
    """Pairwise brackets of all positive root vectors.  Faults if any bracket
    fails to be an integer multiple of the root vector of the summed root, or
    is nonzero when the sum of roots is not a positive root."""
    check_rank(n)
    roots = positive_roots(n)
    vectors = [root_vector(n, r) for r in roots]
    idx = root_index(n)
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            br = bracket(vectors[a], vectors[b])
            gamma = dotted_sum(roots[a], roots[b], n)
            if gamma is None:
                if not br.is_zero():
                    raise ConsistencyError(
                        f"[{roots[a]}, {roots[b]}] is nonzero but the root sum leaves "
                        "the positive roots"
                    )
                continue
            if br.is_zero():
                continue
            c = _proportionality(br, vectors[idx[gamma]])
            entries[(a, b)] = (idx[gamma], c)
            entries[(b, a)] = (idx[gamma], -c)
    return StructureTable(n, entries)


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
