"""Abelian ideals of the Borel subalgebra, in combinatorial form.

An abelian ideal is spanned by root spaces indexed by an upward-closed subset
of the sums-plus-longs under the dominance order.  Such a set is a staircase:
row i holds e_i + e_j for i <= j <= b_i, the bounds b_1 >= b_2 >= ... are
nonincreasing, and the nonempty rows form a prefix.  The boundary profile
(b_1, ..., b_n), with b_i = i - 1 marking an empty row, is the cheap carrier
for enumeration; there are exactly 2^n profiles.  They are walked in one
place, roots._staircases, which every consumer of the 2^n ideals reads.  It
ORs one row per level, a shift off the row layout (roots._row_starts), as
roots._mask_from_profile does; _profile_from_mask parses masks from the root
index.

Root addition (_addable, and precedes, the dominance order) lives here with
the ideal criteria that read it, and so do verify's two order records
(add_order_records): the scan, which reads only the staircases, never loads
this module.  So do the one format of a root's coefficient vector, one int
(_packed_roots), and its decoder (_coordinates, and _coordinate for a single
field), read by every root sum and weight.
"""

from collections import Counter
from functools import lru_cache
from typing import Iterator, Optional

from .report import VerificationReport
from .roots import (
    DIFF,
    Frozen,
    Root,
    RootSet,
    check_cap,
    num_diffs,
    positive_roots,
    _index_tables,
    _mask_key,
    _set,
    _staircases,
)


class IncreasingSet(Frozen):
    """An upward-closed subset of the sums-plus-longs, with its staircase profile."""

    __slots__ = ("rank", "members", "profile")

    def __init__(self, rank: int, members: RootSet, profile: tuple[int, ...]):
        _set(self, "rank", rank)
        _set(self, "members", members)
        _set(self, "profile", profile)

    @property
    def dimension(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(self.members.to_strings()) + "}"


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
    add and one lookup of the packed vectors (_packed_roots)."""
    roots = positive_roots(n)
    packed, index, _bias = _packed_roots(n)
    meets: list[list[int]] = [[] for _ in range(n + 1)]  # the roots with k in their support
    for b, r in enumerate(roots):
        for k in {r.i, r.j}:
            meets[k].append(b)
    out = []
    for a, ra in enumerate(roots):
        tried = sorted({*meets[ra.i], *meets[ra.j]})
        out.append(
            tuple((b, c) for b in tried if (c := index.get(packed[a] + packed[b])) is not None)
        )
    return tuple(out)


@lru_cache(maxsize=None)
def _packed_roots(n: int) -> tuple[tuple[int, ...], dict[int, int], int]:
    """(P, index, bias): each root's coefficient vector as one int, coordinate
    k a signed field of W = (3n).bit_length() bits at bit (k - 1)W; the map
    back from P[b] to b; and the bias, n - 1 in every field.  The digits of a
    sum of two roots lie in [-2, 4], seven values, and W >= 3 from rank 2 on
    (rank 1 has one coordinate), so the sum's value fixes its digits, and
    index.get(P[a] + P[b]) is the index of a + b, or None when that is no
    root.  A subset's weight has its coordinates in [-(n - 1), 2n], so with
    the bias every field is a digit in [0, 3n - 1], which _coordinates reads."""
    width = (3 * n).bit_length()
    packed = tuple(
        (1 << (r.i - 1) * width) + ((-1 if r.kind == DIFF else 1) << (r.j - 1) * width)
        for r in positive_roots(n)
    )
    bias = sum((n - 1) << k * width for k in range(n))
    return packed, {p: b for b, p in enumerate(packed)}, bias


def _coordinates(n: int, key: int) -> tuple[int, ...]:
    """The coordinates on e_1..e_n of a biased sum, the bias plus packed root
    vectors (_packed_roots): the one decoder of the format."""
    width = (3 * n).bit_length()
    field, out = (1 << width) - 1, []
    for _ in range(n):
        out.append((key & field) - (n - 1))
        key >>= width
    return tuple(out)


def _coordinate(n: int, key: int, k: int) -> int:
    """Coordinate k + 1 of a biased sum, _coordinates(n, key)[k], read from
    its one field."""
    width = (3 * n).bit_length()
    return (key >> k * width & (1 << width) - 1) - (n - 1)


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


def order_certificate(n: int) -> tuple[int, int, dict[str, int]]:
    """(checked, distinct, faults) of the exact certificate that a sums-only
    subset passes is_abelian_ideal_combinatorial exactly when it is upward
    closed under precedes: the walked sets it decided, how many of them are
    distinct, and its failure counts.
    Exclusion half: each b addable to a sums-plus-longs root is a difference,
    so no sums-only subset contains one.  Order half: the predicate is then
    closure under a -> g, which picks the up-sets of precedes exactly when the
    reflexive-transitive closure of a -> g (one reachability bitmask per root)
    is precedes.

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
    walked = Counter(mask for _profile, mask in _staircases(n))  # dropped on return
    rejected = sum(
        times
        for mask, times in walked.items()
        if mask >> nd << nd != mask
        or any(reach[a] & ~mask or sums_addable[a] & mask for a in _mask_key(mask))
    )
    return walked.total(), len(walked), {
        "exclusion_violations": sum(b >= nd for a in phi1 for b, _g in addable[a]),
        "order_mismatches": sum(reach[a] != dominance[a] for a in phi1),
        "ideals_rejected": rejected,
    }


def add_order_records(report: VerificationReport) -> None:
    """Add verify's ideal-count and increasing-vs-root-addition, both from
    one order_certificate at the report's rank."""
    n = report.rank
    checked, count, faults = order_certificate(n)
    # as many distinct sets as the certificate decided: no ideal is walked twice
    repeated = {"walked": checked} if checked != count else {}
    report.add(
        "ideal-count",
        "the number of abelian ideals equals 2^rank",
        count == checked == 1 << n,
        {"count": count, "expected": 1 << n, **repeated},
    )
    report.add(
        "increasing-vs-root-addition",
        "a sums-only subset is upward closed exactly when it passes the "
        "root-addition ideal criterion",
        not any(faults.values()),
        {"mode": "certificate", "subsets_checked": checked, **faults},
    )


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
