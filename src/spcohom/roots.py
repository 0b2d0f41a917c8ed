"""Positive roots of the symplectic root system C_n.

The positive roots are e_i - e_j and e_i + e_j for 1 <= i < j <= n together
with the long roots 2*e_i, so there are n^2 of them.  They split into

    short differences   e_i - e_j            (n*(n-1)/2 roots)
    sums and longs      e_i + e_j, i <= j    (n*(n+1)/2 roots, 2*e_i = e_i+e_i)

Everything downstream (bitmask positions, exterior-algebra signs, serialized
output) depends on one global total order of the positive roots, fixed here
once and for all: all differences in lexicographic (i, j) order, then all
sums in lexicographic order, then the long roots by index.

Each row i is a block of consecutive bits, j ascending: the row layout,
computed in _row_starts, which checks every root's bit against the index.

The caps on the exhaustive loops are one table here, CAPS, which every
refusal reads through check_cap when it runs: raising a cap changes one entry.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .errors import ConsistencyError, InvalidRankError, RankCapError

DIFF = "diff"
SUM = "sum"
LONG = "long"

# Sets a field of a Frozen object, bypassing its __setattr__.
_set = object.__setattr__


class Frozen:
    """Base of the package's immutable value types.  A subclass names its
    fields in __slots__, and its __init__ validates the arguments and sets
    each field once with _set.  After that a field can be neither assigned
    nor deleted.  Equality, hash, repr and pickling go by the fields in slot
    order, and objects of different classes are never equal."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Root(Frozen):
    """A positive root: DIFF is e_i - e_j, SUM is e_i + e_j (i < j), LONG is 2*e_i (j == i)."""

    __slots__ = ("kind", "i", "j")

    def __init__(self, kind: str, i: int, j: int):
        if kind not in (DIFF, SUM, LONG):
            raise ValueError(f"unknown root kind {kind!r}")
        if i < 1:
            raise ValueError("root indices are 1-based")
        if kind == LONG:
            if j != i:
                raise ValueError("a long root 2*e_i must have j == i")
        elif not i < j:
            raise ValueError(f"{kind} root needs i < j, got ({i}, {j})")
        _set(self, "kind", kind)
        _set(self, "i", i)
        _set(self, "j", j)

    @property
    def max_index(self) -> int:
        return self.j

    @property
    def in_phi1(self) -> bool:
        """True for sums and longs, i.e. roots of the form e_i + e_j with i <= j."""
        return self.kind != DIFF

    def coeffs(self, n: int) -> tuple[int, ...]:
        """Coefficient vector on the e_1..e_n basis."""
        v = [0] * n
        if self.kind == DIFF:
            v[self.i - 1] = 1
            v[self.j - 1] = -1
        elif self.kind == SUM:
            v[self.i - 1] = 1
            v[self.j - 1] = 1
        else:
            v[self.i - 1] = 2
        return tuple(v)

    def __str__(self) -> str:
        if self.kind == DIFF:
            return f"e{self.i}-e{self.j}"
        if self.kind == SUM:
            return f"e{self.i}+e{self.j}"
        return f"2e{self.i}"


def diff(i: int, j: int) -> Root:
    return Root(DIFF, i, j)


def sum_root(i: int, j: int) -> Root:
    """e_i + e_j for any i != j (normalized), or the long root 2*e_i when i == j."""
    if i == j:
        return Root(LONG, i, i)
    if i > j:
        i, j = j, i
    return Root(SUM, i, j)


def long(i: int) -> Root:
    return Root(LONG, i, i)


class SignedRoot(Frozen):
    """A positive root together with the sign it picked up under a group action."""

    __slots__ = ("sign", "root")

    def __init__(self, sign: int, root: Root):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        _set(self, "sign", sign)
        _set(self, "root", root)

    def __str__(self) -> str:
        return ("" if self.sign == 1 else "-") + str(self.root)


def check_rank(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise InvalidRankError(f"rank must be a positive integer, got {n!r}")


# The caps, each the highest rank of one kind of loop, keyed by the name its
# refusal message uses; the CLI checks one before it compiles a command module.
CAPS = {
    # The group's 2^n * n! elements, enumerated or counted (verify, bijection,
    # weyl).
    "group enumeration": 8,
    # The cochain complex (betti, classes, and verify's cohomology records).
    "cohomology": 6,
    # The 2^n staircases (ideals, and the library's walks of them).
    "ideal enumeration": 22,
    # The poincare command.  Its polynomials have degree n^2 and coefficients
    # up to 2^n n!: rank 64 takes 0.7-1.2 s, 18 MB and a 1.8 MB report on a
    # 2-vCPU host, most of it the check's dense product, where rank 100 took
    # 4.3 s in-process.
    "poincare": 64,
    # The structure command.  Its table has O(n^3) nonzero brackets, found by
    # a sparse join of the root vectors' entries (liealg.structure_table), so
    # time and the report grow about as n^3: rank 14 takes 0.12 s, 19 MB and
    # a 0.26 MB report; in-process, rank 24 took 0.19 s and 1.4 MB, rank 32
    # 0.55 s and 3.5 MB.  Neither time nor memory forces 14; a higher cap is
    # left to a measured need.
    "structure": 14,
    # bijection --witness.  The trace lists the inversion set and its parts,
    # up to n^2 roots each, so time and memory grow at least as n^2: rank 256
    # takes 0.27-0.28 s, 29-32 MB and a 1.2 MB report, rank 500 took 0.9-1.3 s
    # and 87-99 MB (the longest element: 0.29 s, 39 MB, 3.6 MB; 1.2 s, 118 MB).
    "witness": 256,
    # The listings, per command (--list, or --per-weight for betti).  A
    # listing is held in memory while it is written out, so these keep peak
    # RSS under about 1 GB (measurements in CHANGES.md): one rank more
    # doubles the ideals, multiplies the elements by 16 and the weight blocks
    # by 39 (9,791,868 at rank 6).
    "ideals listing": 17,
    "weyl listing": 7,
    "betti listing": 5,
    # ce.ChainComplex, the test oracle that lists all 2^(n^2) monomials; no
    # command builds it.
    "cochain-complex": 4,
}


def check_cap(n: int, what: str) -> None:
    """Refuse rank n above CAPS[what], read now, before any work, with the
    one message form every cap uses."""
    check_rank(n)
    cap = CAPS[what]
    if n > cap:
        raise RankCapError(f"rank {n} exceeds the {what} cap {cap}")


@lru_cache(maxsize=None)
def positive_roots(n: int) -> tuple[Root, ...]:
    """All n^2 positive roots in the canonical global order."""
    check_rank(n)
    out = [diff(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out += [Root(SUM, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out += [long(i) for i in range(1, n + 1)]
    return tuple(out)


@lru_cache(maxsize=None)
def root_index(n: int) -> dict[Root, int]:
    return {r: b for b, r in enumerate(positive_roots(n))}


def num_diffs(n: int) -> int:
    return n * (n - 1) // 2


class RootSet(Frozen):
    """A subset of the positive roots of rank n, stored as a bitmask over the canonical order."""

    __slots__ = ("rank", "mask")

    def __init__(self, rank: int, mask: int):
        check_rank(rank)
        if mask < 0 or mask >> rank**2:
            raise ValueError("bitmask outside the positive-root range")
        _set(self, "rank", rank)
        _set(self, "mask", mask)

    @classmethod
    def from_roots(cls, n: int, roots: Iterable[Root]) -> "RootSet":
        idx = root_index(n)
        m = 0
        for r in roots:
            m |= 1 << idx[r]
        return cls(n, m)

    @classmethod
    def empty(cls, n: int) -> "RootSet":
        return cls(n, 0)

    def roots(self) -> tuple[Root, ...]:
        all_roots = positive_roots(self.rank)
        return tuple(all_roots[b] for b in _mask_key(self.mask))

    def __contains__(self, r: Root) -> bool:
        b = root_index(self.rank).get(r)
        return b is not None and bool(self.mask >> b & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[Root]:
        return iter(self.roots())

    def __or__(self, other: "RootSet") -> "RootSet":
        self._check_compatible(other)
        return RootSet(self.rank, self.mask | other.mask)

    def __and__(self, other: "RootSet") -> "RootSet":
        self._check_compatible(other)
        return RootSet(self.rank, self.mask & other.mask)

    def __sub__(self, other: "RootSet") -> "RootSet":
        self._check_compatible(other)
        return RootSet(self.rank, self.mask & ~other.mask)

    def __le__(self, other: "RootSet") -> bool:
        self._check_compatible(other)
        return self.mask & ~other.mask == 0

    def _check_compatible(self, other: "RootSet") -> None:
        if self.rank != other.rank:
            raise ValueError("rank mismatch between root sets")

    def to_strings(self) -> list[str]:
        return [str(r) for r in self.roots()]


def _mask_key(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of mask, ascending: one pass over its
    binary digits, lowest first."""
    return tuple([b for b, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"])


def split(n: int) -> tuple[RootSet, RootSet]:
    """The partition of the positive roots into differences and sums-plus-longs."""
    check_rank(n)
    nd = num_diffs(n)
    full = (1 << n * n) - 1
    phi0 = (1 << nd) - 1
    return RootSet(n, phi0), RootSet(n, full & ~phi0)


def dotted_sum(alpha: Root, beta: Root, n: int) -> Optional[Root]:
    """alpha + beta if the vector sum is again a positive root of rank n, else None."""
    check_rank(n)
    va = alpha.coeffs(n)
    vb = beta.coeffs(n)
    s = tuple(a + b for a, b in zip(va, vb))
    return _root_from_coeffs(s)


def _root_from_coeffs(v: tuple[int, ...]) -> Optional[Root]:
    support = [(c, k + 1) for k, c in enumerate(v) if c]
    if len(support) == 1:
        c, i = support[0]
        return long(i) if c == 2 else None
    if len(support) == 2:
        (ci, i), (cj, j) = support
        if ci == 1 and cj == 1:
            return Root(SUM, i, j)
        if ci == 1 and cj == -1:
            return diff(i, j)
    return None


def precedes(x: Root, y: Root) -> bool:
    """The dominance order on sums-plus-longs: e_{i1}+e_{j1} precedes e_{i2}+e_{j2}
    iff i1 >= i2 and j1 >= j2 (indices normalized so i <= j, longs count as i == j).

    Reflexive by convention; callers wanting the strict order exclude equality
    themselves.
    """
    for r in (x, y):
        if not r.in_phi1:
            raise ValueError(f"{r} is a difference root; the order is defined on sums only")
    return x.i >= y.i and x.j >= y.j


@lru_cache(maxsize=None)
def _index_tables(n: int) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """1-based lookup tables (diff_idx[i][j], sum_idx[i][j], long_idx[i]) into
    the canonical order, one pass over positive_roots; unused slots hold -1.
    Raises ConsistencyError unless its n^2 roots fill every slot once."""
    d = [[-1] * (n + 1) for _ in range(n + 1)]
    s = [[-1] * (n + 1) for _ in range(n + 1)]
    l = [-1] * (n + 1)
    roots = positive_roots(n)
    for b, r in enumerate(roots):
        if r.kind == LONG:
            l[r.i] = b
        else:
            (d if r.kind == DIFF else s)[r.i][r.j] = b
    holes = l[1:].count(-1) + sum(t[i][i + 1 :].count(-1) for t in (d, s) for i in range(1, n))
    if holes or len(roots) != n * n:
        raise ConsistencyError(f"the positive roots of rank {n} do not list every root once")
    return d, s, l


@lru_cache(maxsize=None)
def _row_starts(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The row layout (diff_start, sum_start, long_bit), by row i = 1..n: e_i - e_j
    and e_i + e_j, i < j, sit at diff_start[i] + (j - i - 1) and sum_start[i] +
    (j - i - 1), 2e_i at long_bit[i].  Row i of each part holds n - i roots,
    the differences from bit 0, the sums from num_diffs(n), then the longs.
    Raises ConsistencyError unless _index_tables puts every root there."""
    nd = num_diffs(n)
    starts = [(i - 1) * n - i * (i - 1) // 2 for i in range(1, n + 1)]
    diff_start, sum_start = (0, *starts), (0, *(nd + start for start in starts))
    long_bit = (-1, *range(2 * nd, n * n))
    d_idx, s_idx, l_idx = _index_tables(n)
    for name, idx, start in (("differences", d_idx, diff_start), ("sums", s_idx, sum_start)):
        if any(idx[i][j] != start[i] + j - i - 1 for i in range(1, n) for j in range(i + 1, n + 1)):
            raise ConsistencyError(f"the {name} of rank {n} are not indexed row-major")
    if tuple(l_idx) != long_bit:
        raise ConsistencyError(f"the long roots of rank {n} are not indexed row-major")
    return diff_start, sum_start, long_bit


@lru_cache(maxsize=None)
def _addable(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each root index a, the pairs (b, c), b ascending, over all root
    indices b such that root a + root b is a positive root with index c.  Used
    by the abelian-ideal closure checks; the lists are short (O(n) entries per
    root).

    Only the b whose support {i, j} meets a's are tried.  When the supports
    are disjoint, the sum has at least 3 nonzero coordinates, or two
    coordinates equal to 2 (two long roots), and no positive root has either
    form, so every pair skipped has no root sum.  Each index lies in the
    support of 2n - 1 roots, so at most 4n^3 sums are resolved, each by one
    coefficient-vector -> index lookup (_sum_index)."""
    roots = positive_roots(n)
    vectors, index = _sparse_roots(n)
    meets: list[list[int]] = [[] for _ in range(n + 1)]  # the roots with k in their support
    for b, r in enumerate(roots):
        for k in {r.i, r.j}:
            meets[k].append(b)
    out = []
    for a, ra in enumerate(roots):
        row = []
        for b in sorted({*meets[ra.i], *meets[ra.j]}):
            c = _sum_index(index, vectors[a], vectors[b])
            if c is not None:
                row.append((b, c))
        out.append(tuple(row))
    return tuple(out)


_Sparse = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def _sparse_roots(n: int) -> tuple[tuple[_Sparse, ...], dict[_Sparse, int]]:
    """(vectors, index): the coefficient vector of each root as its nonzero
    (coordinate, coefficient) pairs, coordinate ascending, by root index, and
    the map back from vector to index."""
    vectors = tuple(
        tuple((k, c) for k, c in enumerate(r.coeffs(n), 1) if c) for r in positive_roots(n)
    )
    return vectors, {v: c for c, v in enumerate(vectors)}


def _sum_index(index: dict[_Sparse, int], va: _Sparse, vb: _Sparse) -> Optional[int]:
    """index[va + vb] for two sparse coefficient vectors (_sparse_roots): the
    index of the root va + vb, or None when the sum is no positive root."""
    s = dict(va)
    for k, c in vb:
        s[k] = s.get(k, 0) + c
    return index.get(tuple(sorted((k, c) for k, c in s.items() if c)))
