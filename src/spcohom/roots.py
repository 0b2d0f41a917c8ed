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
The 2^n staircases (upward-closed sets of sums-plus-longs, ideals module
docstring) are read off the layout here, by _mask_from_profile for one
profile and by _staircases, the one walk of them all, so that the scan
reaches them without loading ideals.

The caps on the exhaustive loops are one table here, CAPS, which every
refusal reads through check_cap when it runs: raising a cap changes one entry.
"""

from functools import lru_cache
from typing import Iterator

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
    nor deleted.  Equality, hash and repr go by the fields in slot order, and
    objects of different classes are never equal."""

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
    def in_phi1(self) -> bool:
        """True for sums and longs, i.e. roots of the form e_i + e_j with i <= j."""
        return self.kind != DIFF

    def __str__(self) -> str:
        if self.kind == DIFF:
            return f"e{self.i}-e{self.j}"
        if self.kind == SUM:
            return f"e{self.i}+e{self.j}"
        return f"2e{self.i}"


def diff(i: int, j: int) -> Root:
    return Root(DIFF, i, j)


def long(i: int) -> Root:
    return Root(LONG, i, i)


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

    def roots(self) -> tuple[Root, ...]:
        all_roots = positive_roots(self.rank)
        return tuple(all_roots[b] for b in _mask_key(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def to_strings(self) -> list[str]:
        return [str(r) for r in self.roots()]


def _mask_key(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of mask, ascending: one pass over its
    binary digits, lowest first."""
    return tuple([b for b, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"])


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


def _mask_from_profile(profile, n: int) -> int:
    """The sums-plus-longs mask of a staircase profile (b_1, ..., b_n): row i
    up to e_i + e_{b_i}, read off the row layout, until the first empty row
    (b_i < i)."""
    _diff_start, sum_start, long_bit = _row_starts(n)
    mask = 0
    for i, b in enumerate(profile, start=1):
        if b < i:
            break
        mask |= 1 << long_bit[i] | ((1 << (b - i)) - 1) << sum_start[i]
    return mask


def _staircases(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The 2^n (profile, mask) pairs, profiles in lexicographic order.  The
    mask of a profile is its prefix's mask ORed with rows[i][b], row i up to
    e_i + e_b as _mask_from_profile builds it, one OR per recursion level."""
    _diff_start, sum_start, long_bit = _row_starts(n)
    rows = [[]] + [
        [0] * i + [1 << long_bit[i] | ((1 << k) - 1) << sum_start[i] for k in range(n - i + 1)]
        for i in range(1, n + 1)
    ]

    def rec(i: int, prev: int, acc: tuple[int, ...], mask: int):
        if i > n:
            yield acc, mask
            return
        yield acc + tuple(range(i - 1, n)), mask
        for b in range(i, prev + 1):
            yield from rec(i + 1, b, acc + (b,), mask | rows[i][b])

    yield from rec(1, n, (), 0)
