"""Root- and element-level test oracles: the definitional constructions that
the package's bit-level code is checked against, and the constructors that
only tests call.  No command runs any of these.

- coeffs, dotted_sum and sum_root: roots as coefficient vectors, and their
  sums, from which ideals._addable and the packed vectors of
  ideals._packed_roots must follow;
- SignedRoot and act_on_root: the action of a signed permutation on the
  positive roots, from which the inversion sets follow;
- perm_from_inversions and recompose: the inverses of perm_inversions and
  standard_form;
- split, from_roots, from_members, from_profile (with profile_valid) and
  constant: a RootSet, an IncreasingSet or a structure constant built or read
  the definitional way;
- zero_matrix, is_zero, matmul, add, sub, scale and bracket: exact sparse
  arithmetic on liealg.IntMatrix, from which the structure table's brackets
  must follow.
"""

from typing import Iterable, Optional

from spcohom.elements import Perm, SignedPerm
from spcohom.ideals import IncreasingSet, _profile_from_mask
from spcohom.liealg import IntMatrix
from spcohom.roots import (
    DIFF,
    LONG,
    SUM,
    Frozen,
    Root,
    RootSet,
    check_rank,
    diff,
    long,
    num_diffs,
    root_index,
    _mask_from_profile,
    _set,
)
from spcohom.weyl import _word_from_inversion_mask


def coeffs(root: Root, n: int) -> tuple[int, ...]:
    """Coefficient vector of root on the e_1..e_n basis."""
    v = [0] * n
    if root.kind == DIFF:
        v[root.i - 1] = 1
        v[root.j - 1] = -1
    elif root.kind == SUM:
        v[root.i - 1] = 1
        v[root.j - 1] = 1
    else:
        v[root.i - 1] = 2
    return tuple(v)


def sum_root(i: int, j: int) -> Root:
    """e_i + e_j for any i != j (normalized), or the long root 2*e_i when i == j."""
    if i == j:
        return Root(LONG, i, i)
    if i > j:
        i, j = j, i
    return Root(SUM, i, j)


def dotted_sum(alpha: Root, beta: Root, n: int) -> Optional[Root]:
    """alpha + beta if the vector sum is again a positive root of rank n, else None."""
    check_rank(n)
    s = tuple(a + b for a, b in zip(coeffs(alpha, n), coeffs(beta, n)))
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


def act_on_root(w: SignedPerm, alpha: Root) -> SignedRoot:
    """The image of a positive root under w, as a signed positive root."""
    n = w.rank
    if alpha.max_index > n:
        raise ValueError(f"root {alpha} does not live in rank {n}")
    u = w.images[alpha.i - 1]
    v = w.images[alpha.j - 1]
    if alpha.kind == DIFF:
        v = -v
    p, q = abs(u), abs(v)
    if p == q:
        return SignedRoot(1 if u > 0 else -1, long(p))
    if u > 0 and v > 0:
        return SignedRoot(1, sum_root(p, q))
    if u < 0 and v < 0:
        return SignedRoot(-1, sum_root(p, q))
    if u > 0:
        # e_p - e_q
        return SignedRoot(1, diff(p, q)) if p < q else SignedRoot(-1, diff(q, p))
    # e_q - e_p
    return SignedRoot(1, diff(q, p)) if q < p else SignedRoot(-1, diff(p, q))


def perm_from_inversions(s: RootSet, n: int) -> Optional[Perm]:
    """The unique permutation with the given inversion set, or None when the
    set is not an inversion set of any permutation."""
    if s.rank != n:
        raise ValueError("rank mismatch")
    if s.mask >> num_diffs(n):
        raise ValueError("inversion sets contain difference roots only")
    word = _word_from_inversion_mask(s.mask, n)
    return None if word is None else Perm(word)


def recompose(sf) -> SignedPerm:
    """The element of a standard form: the inverse of elements.standard_form."""
    return SignedPerm.from_perm_and_negated(sf.sigma0, sf.j_list)


def split(n: int) -> tuple[RootSet, RootSet]:
    """The partition of the positive roots into differences and sums-plus-longs."""
    check_rank(n)
    nd = num_diffs(n)
    full = (1 << n * n) - 1
    phi0 = (1 << nd) - 1
    return RootSet(n, phi0), RootSet(n, full & ~phi0)


def from_roots(n: int, roots: Iterable[Root]) -> RootSet:
    """The RootSet of rank n holding the given roots."""
    idx = root_index(n)
    m = 0
    for r in roots:
        m |= 1 << idx[r]
    return RootSet(n, m)


def from_members(n: int, members: RootSet) -> IncreasingSet:
    """The IncreasingSet of an upward-closed RootSet, parsed by
    ideals._profile_from_mask; raises ValueError on any other set."""
    if members.rank != n:
        raise ValueError("rank mismatch")
    if members.mask & (1 << num_diffs(n)) - 1:
        raise ValueError("difference roots cannot belong to an upward-closed set")
    profile = _profile_from_mask(members.mask, n)
    if profile is None:
        raise ValueError("member set is not upward closed")
    return IncreasingSet(n, members, profile)


def profile_valid(profile, n: int) -> bool:
    """Whether profile is a staircase profile of rank n: the one staircase
    rule is ideals._profile_from_mask's, applied to the set the profile spans."""
    return (
        len(profile) == n
        and max(profile) <= n
        and _profile_from_mask(_mask_from_profile(profile, n), n) == tuple(profile)
    )


def from_profile(n: int, profile: tuple[int, ...]) -> IncreasingSet:
    """The IncreasingSet of a staircase profile; raises ValueError unless
    profile_valid."""
    check_rank(n)
    if not profile_valid(profile, n):
        raise ValueError(f"{profile} is not a staircase profile for rank {n}")
    return IncreasingSet(n, RootSet(n, _mask_from_profile(profile, n)), tuple(profile))


def constant(table, a: int, b: int) -> Optional[tuple[int, int]]:
    """(gamma_index, c) with [e_a, e_b] = c e_gamma in a liealg.StructureTable,
    or None when the bracket vanishes."""
    return table.entries.get((a, b))


def zero_matrix(d: int) -> IntMatrix:
    return IntMatrix(d, ())


def is_zero(x: IntMatrix) -> bool:
    return not x.entries


def _same_dim(x: IntMatrix, y: IntMatrix) -> int:
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    return x.dim


def matmul(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """The product XY, joining each entry (r, k) of X with row k of Y."""
    d = _same_dim(x, y)
    rows: dict[int, list[tuple[int, int]]] = {}
    for (k, c), b in y.entries:
        rows.setdefault(k, []).append((c, b))
    out: dict[tuple[int, int], int] = {}
    for (r, k), a in x.entries:
        for c, b in rows.get(k, ()):
            out[r, c] = out.get((r, c), 0) + a * b
    return IntMatrix.from_entries(d, out)


def add(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    d = _same_dim(x, y)
    out = dict(x.entries)
    for k, v in y.entries:
        out[k] = out.get(k, 0) + v
    return IntMatrix.from_entries(d, out)


def scale(x: IntMatrix, c: int) -> IntMatrix:
    return IntMatrix.from_entries(x.dim, {k: c * v for k, v in x.entries})


def sub(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    return add(x, scale(y, -1))


def bracket(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """The commutator XY - YX, exact."""
    return sub(matmul(x, y), matmul(y, x))
