"""Abelian ideals of the Borel subalgebra, in combinatorial form.

An abelian ideal is spanned by root spaces indexed by an upward-closed subset
of the sums-plus-longs under the dominance order.  Such a set is a staircase:
row i holds e_i + e_j for i <= j <= b_i, the bounds b_1 >= b_2 >= ... are
nonincreasing, and the nonempty rows form a prefix.  The boundary profile
(b_1, ..., b_n), with b_i = i - 1 marking an empty row, is the cheap carrier
for enumeration; there are exactly 2^n profiles.  They are walked in one
place, _staircases, which every consumer of the 2^n ideals reads.  It ORs
one entry of the row table (_staircase_rows) per row, and that table is the
one place that knows which bits a staircase row sets.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Optional

from .roots import (
    Frozen,
    RootSet,
    check_cap,
    check_rank,
    num_diffs,
    positive_roots,
    precedes,
    _addable,
    _index_tables,
    _mask_key,
    _set,
)


class IncreasingSet(Frozen):
    """An upward-closed subset of the sums-plus-longs, with its staircase profile."""

    __slots__ = ("rank", "members", "profile")

    def __init__(self, rank: int, members: RootSet, profile: tuple[int, ...]):
        _set(self, "rank", rank)
        _set(self, "members", members)
        _set(self, "profile", profile)

    @classmethod
    def from_profile(cls, n: int, profile: tuple[int, ...]) -> "IncreasingSet":
        check_rank(n)
        if not _profile_valid(profile, n):
            raise ValueError(f"{profile} is not a staircase profile for rank {n}")
        return cls(n, RootSet(n, _mask_from_profile(profile, n)), tuple(profile))

    @classmethod
    def from_members(cls, n: int, members: RootSet) -> "IncreasingSet":
        if members.rank != n:
            raise ValueError("rank mismatch")
        if members.mask & (1 << num_diffs(n)) - 1:
            raise ValueError("difference roots cannot belong to an upward-closed set")
        profile = _profile_from_mask(members.mask, n)
        if profile is None:
            raise ValueError("member set is not upward closed")
        return cls(n, members, profile)

    @property
    def dimension(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(self.members.to_strings()) + "}"


def _profile_valid(profile, n: int) -> bool:
    """Whether profile is a staircase profile of rank n: the one staircase
    rule is _profile_from_mask's, applied to the set the profile spans."""
    return (
        len(profile) == n
        and max(profile) <= n
        and _profile_from_mask(_mask_from_profile(profile, n), n) == tuple(profile)
    )


@lru_cache(maxsize=None)
def _staircase_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The row table: entry [i][b], 1 <= i <= b <= n, is the mask of
    staircase row i from 2e_i up to e_i + e_b, and entry [i][i - 1], the
    empty row, is 0."""
    _, s_idx, l_idx = _index_tables(n)
    rows = [()]
    for i in range(1, n + 1):
        bits = [1 << l_idx[i]] + [1 << s_idx[i][j] for j in range(i + 1, n + 1)]
        # the bits are distinct, so each running sum is the row's mask up to e_b
        rows.append((0,) * i + tuple(accumulate(bits)))
    return tuple(rows)


def _mask_from_profile(profile, n: int) -> int:
    rows = _staircase_rows(n)
    mask = 0
    for i, b in enumerate(profile, start=1):
        if b < i:
            break
        mask |= rows[i][b]
    return mask


def _profile_from_mask(mask: int, n: int) -> Optional[tuple[int, ...]]:
    """The staircase profile of a sums-plus-longs bitmask, or None when the
    mask is not upward closed.  The mask must not touch difference bits."""
    _, s_idx, l_idx = _index_tables(n)
    profile = []
    prev = n
    empty_seen = False
    for i in range(1, n + 1):
        row = [mask >> l_idx[i] & 1] + [mask >> s_idx[i][j] & 1 for j in range(i + 1, n + 1)]
        count = sum(row)
        if count == 0:
            profile.append(i - 1)
            empty_seen = True
            continue
        b = i - 1 + max(k + 1 for k, present in enumerate(row) if present)
        # contiguous from the diagonal, inside the staircase, rows a prefix
        if empty_seen or count != b - i + 1 or b > prev:
            return None
        profile.append(b)
        prev = b
    return tuple(profile)


def enumerate_increasing(n: int) -> Iterator[IncreasingSet]:
    """All 2^n upward-closed subsets, in the order of _staircases.  Refuses
    ranks above the ideal enumeration cap.  The walk yields staircases by
    construction, and verify's order certificate decides each of its masks
    against the certified closure, so they skip from_profile's check, which
    parses every set back and would take 4x the enumeration's time."""
    check_cap(n, "ideal enumeration")
    for profile, mask in _staircases(n):
        yield IncreasingSet(n, RootSet(n, mask), profile)


def _staircases(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The 2^n (profile, mask) pairs, profiles in lexicographic order.  The
    mask of a profile is its prefix's mask ORed with row i's entry of the
    row table, one OR per recursion level."""
    rows = _staircase_rows(n)

    def rec(i: int, prev: int, acc: tuple[int, ...], mask: int):
        if i > n:
            yield acc, mask
            return
        yield acc + tuple(range(i - 1, n)), mask
        for b in range(i, prev + 1):
            yield from rec(i + 1, b, acc + (b,), mask | rows[i][b])

    yield from rec(1, n, (), 0)


def is_increasing(s: RootSet) -> bool:
    """Whether a subset of the sums-plus-longs is upward closed.

    Uses the staircase characterization, which tests/test_ideals.py checks
    against the literal two-point definition exhaustively at small rank.
    """
    n = s.rank
    if s.mask & (1 << num_diffs(n)) - 1:
        raise ValueError("difference roots are not part of the dominance order")
    return _profile_from_mask(s.mask, n) is not None


def is_abelian_ideal_combinatorial(s: RootSet) -> bool:
    """The root-addition criterion for an abelian ideal: adding any positive
    root to a member must land back in the set whenever it lands in the
    positive roots at all, and the sum of two members must never be a root.
    Accepts arbitrary subsets of the positive roots, so membership of a
    difference root makes it fail honestly rather than by fiat.
    """
    return _closed_under(_addable(s.rank).__getitem__, s.mask)


def _closed_under(row, mask: int) -> bool:
    """The ideal criterion over a neighbour table, shared by the root-addition
    and the matrix-level predicates: fail at a member a and an entry
    (b, g, ...) of row(a) when b is a member or g is not."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        for b, g, *_ in row(low.bit_length() - 1):
            if mask >> b & 1 or not mask >> g & 1:
                return False
    return True


def order_certificate(n: int) -> dict[str, int]:
    """Failure counts of the exact certificate that a sums-only subset passes
    is_abelian_ideal_combinatorial exactly when it is upward closed under
    precedes.  Exclusion half: each b addable to a sums-plus-longs root is a
    difference, so no sums-only subset contains one.  Order half: the
    predicate is then closure under a -> g, which picks the up-sets of
    precedes exactly when the reflexive-transitive closure of a -> g (one
    reachability bitmask per root) is precedes.

    The 2^n staircases are decided from these masks, one member at a time: a
    walked set is rejected when it has a difference bit, or a member a whose
    reach[a] leaves the set or that has an addable sums-plus-longs root in
    it.  On a sums-only set that is the predicate, whatever the table, since
    a set closed under a -> g is closed under its closure.  Refuses ranks
    above the ideal enumeration cap."""
    check_cap(n, "ideal enumeration")
    addable, roots, nd = _addable(n), positive_roots(n), num_diffs(n)
    phi1 = range(nd, n * n)
    reach = {a: 1 << a | sum({1 << g for _b, g in addable[a]}) for a in phi1}
    for k in phi1:  # Warshall, over sums-only intermediate roots
        for a in phi1:
            reach[a] |= reach[k] if reach[a] >> k & 1 else 0
    dominance = {a: sum(1 << y for y in phi1 if precedes(roots[a], roots[y])) for a in phi1}
    # the exclusion half's violations, as one mask per root
    sums_addable = {a: sum({1 << b for b, _g in addable[a] if b >= nd}) for a in phi1}
    rejected = (
        mask >> nd << nd != mask
        or any(reach[a] & ~mask or sums_addable[a] & mask for a in _mask_key(mask))
        for _profile, mask in _staircases(n)
    )
    return {
        "exclusion_violations": sum(b >= nd for a in phi1 for b, _g in addable[a]),
        "order_mismatches": sum(reach[a] != dominance[a] for a in phi1),
        "ideals_rejected": sum(rejected),
    }


def dimension_histogram(n: int):
    """Coefficient k counts the upward-closed sets of size k; the
    coefficients sum to 2^n.  Refuses ranks above the ideal enumeration cap."""
    from .poincare import IntPolynomial

    check_cap(n, "ideal enumeration")
    # room for any set of the n^2 roots, so that a walked set holding a
    # difference root shows in the histogram instead of raising
    coeffs = [0] * (n * n + 1)
    for _profile, mask in _staircases(n):
        coeffs[mask.bit_count()] += 1
    return IntPolynomial.from_coeffs(coeffs)
