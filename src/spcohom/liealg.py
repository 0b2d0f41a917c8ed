"""Exact matrix realization of the symplectic Lie algebra sp(2n).

The root vectors are the classical ones for the block form
[[A, B], [C, -A^T]] with B, C symmetric:

    e_{e_i - e_j} = E_ij - E_{n+j, n+i}          (i < j)
    e_{e_i + e_j} = E_{i, n+j} + E_{j, n+i}      (i < j)
    e_{2 e_i}     = E_{i, n+i}

All brackets of these have integer coefficients, so the module works in plain
Python integers end to end.  A matrix keeps only its nonzero entries, at most
2 per root vector, so a bracket costs the same at every rank.  The structure
table built from pairwise brackets is the single source of bracket truth for
the cochain complex; every other module treats its signs as given.  verify's
lie-vs-combinatorial compares it with root addition (neighbor_mismatches) at
every rank: about 6 ms at rank 7 and 9 ms at rank 8, mostly the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import ideals
from .errors import ConsistencyError
from .roots import DIFF, LONG, Root, RootSet, check_rank, dotted_sum, positive_roots, root_index


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """A square integer matrix as its dimension and its nonzero entries
    ((row, col), value), sorted by position.  Build it with zero or
    from_entries, so that equal matrices have equal entries."""

    dim: int
    entries: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def zero(cls, d: int) -> "IntMatrix":
        return cls(d, ())

    @classmethod
    def from_entries(cls, d: int, entries: dict[tuple[int, int], int]) -> "IntMatrix":
        if any(not (0 <= r < d and 0 <= c < d) for r, c in entries):
            raise ValueError(f"matrix entry index outside range({d})")
        return cls._of(d, entries)

    @classmethod
    def _of(cls, d: int, entries: dict[tuple[int, int], int]) -> "IntMatrix":
        return cls(d, tuple(sorted((k, v) for k, v in entries.items() if v)))

    def is_zero(self) -> bool:
        return not self.entries

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        rows: dict[int, list[tuple[int, int]]] = {}
        for (k, c), b in other.entries:
            rows.setdefault(k, []).append((c, b))
        out: dict[tuple[int, int], int] = {}
        for (r, k), a in self.entries:
            for c, b in rows.get(k, ()):
                out[r, c] = out.get((r, c), 0) + a * b
        return IntMatrix._of(self.dim, out)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.entries)
        for k, v in other.entries:
            out[k] = out.get(k, 0) + v
        return IntMatrix._of(self.dim, out)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix._of(self.dim, {k: c * v for k, v in self.entries})


def bracket(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """The commutator XY - YX, exact."""
    return (x @ y) - (y @ x)


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
    if base.is_zero():
        raise ConsistencyError("expected root vector is zero")
    pos, vb = base.entries[0]
    c, r = divmod(dict(x.entries).get(pos, 0), vb)
    if r != 0 or x != base.scale(c):
        raise ConsistencyError("bracket not proportional to the expected root vector")
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
