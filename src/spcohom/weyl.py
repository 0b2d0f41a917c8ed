"""The hyperoctahedral Weyl group of C_n: signed permutations of n letters.

An element w is stored through its signed one-line images: w sends the basis
vector e_m to sign * e_p where images[m-1] = +-p.  Equivalently w is a plain
permutation followed by sign flips on a set J of output values, which is the
factorization w = r_{j_1} ... r_{j_k} * sigma_0 used throughout (r_v flips
the sign of the value v, sigma_0 acts first).
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Iterator, Optional

from .errors import ConsistencyError
from .roots import (
    DIFF,
    Frozen,
    Root,
    RootSet,
    SignedRoot,
    check_cap,
    check_rank,
    diff,
    long,
    num_diffs,
    sum_root,
    _index_tables,
    _set,
)


class Perm(Frozen):
    """A permutation of {1..n} in one-line notation: images[m-1] = sigma(m)."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if n < 1 or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        _set(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        check_rank(n)
        return cls(tuple(range(1, n + 1)))

    @property
    def rank(self) -> int:
        return len(self.images)

    def __call__(self, m: int) -> int:
        return self.images[m - 1]

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for m, p in enumerate(self.images, start=1):
            inv[p - 1] = m
        return Perm(tuple(inv))

    def compose(self, other: "Perm") -> "Perm":
        """self after other: (self.compose(other))(m) == self(other(m))."""
        return Perm(tuple(self.images[p - 1] for p in other.images))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.images)) + ")"


class SignedPerm(Frozen):
    """A signed permutation; images[m-1] = +-p means e_m maps to +-e_p."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if n < 1 or sorted(abs(v) for v in images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a signed permutation of 1..{n}")
        _set(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        check_rank(n)
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def reflection(cls, i: int, n: int) -> "SignedPerm":
        """The generator r_i, flipping the sign of the value i."""
        check_rank(n)
        if not 1 <= i <= n:
            raise ValueError(f"reflection index {i} out of range for rank {n}")
        return cls(tuple(-v if v == i else v for v in range(1, n + 1)))

    @classmethod
    def from_perm_and_negated(cls, perm: Perm, negated) -> "SignedPerm":
        neg = frozenset(negated)
        for v in neg:
            if not 1 <= v <= perm.rank:
                raise ValueError(f"negated value {v} out of range")
        return cls(tuple(-p if p in neg else p for p in perm.images))

    @property
    def rank(self) -> int:
        return len(self.images)

    @property
    def perm(self) -> Perm:
        """The underlying unsigned permutation sigma_0."""
        return Perm(tuple(abs(v) for v in self.images))

    @property
    def negated(self) -> frozenset[int]:
        """The set J of output values whose sign is flipped."""
        return frozenset(-v for v in self.images if v < 0)

    def __call__(self, m: int) -> int:
        return self.images[m - 1]

    def inverse(self) -> "SignedPerm":
        inv = [0] * len(self.images)
        for m, v in enumerate(self.images, start=1):
            inv[abs(v) - 1] = m if v > 0 else -m
        return SignedPerm(tuple(inv))

    def compose(self, other: "SignedPerm") -> "SignedPerm":
        """self after other, acting on e-vectors: (uv)(x) = u(v(x))."""
        out = []
        for v in other.images:
            u = self.images[abs(v) - 1]
            out.append(u if v > 0 else -u)
        return SignedPerm(tuple(out))

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.images)) + "]"


def parse_signed_perm(text: str) -> SignedPerm:
    """Inverse of str(w): accepts '[2,-1,3]'; an entry is an optional '-' and ASCII digits."""
    s = text.strip()
    images = None
    if re.fullmatch(r"\[\s*-?[0-9]+\s*(,\s*-?[0-9]+\s*)*\]", s):
        try:
            images = tuple(map(int, s[1:-1].split(",")))
        except ValueError:  # an entry with more digits than int() converts
            pass
    if images is None:
        raise ValueError(f"cannot parse signed permutation {text!r}")
    return SignedPerm(images)


class StandardForm(Frozen):
    """The factorization w = r_{j_1} ... r_{j_k} * sigma_0 with the j's listed
    in the order they appear in sigma_0's one-line word, so that
    sigma_0^-1(j_1) < sigma_0^-1(j_2) < ... < sigma_0^-1(j_k)."""

    __slots__ = ("j_list", "sigma0")

    def __init__(self, j_list: tuple[int, ...], sigma0: Perm):
        _set(self, "j_list", j_list)
        _set(self, "sigma0", sigma0)


def enumerate_group(n: int) -> Iterator[SignedPerm]:
    """All 2^n * n! signed permutations, sign patterns outer, permutations
    inner in lexicographic order.  Deterministic; refuses ranks above the group cap."""
    check_cap(n, "group enumeration")
    values = tuple(range(1, n + 1))
    for jmask in range(1 << n):
        flip = tuple(-v if jmask >> (v - 1) & 1 else v for v in values)
        for word in itertools.permutations(values):
            yield SignedPerm(tuple(flip[p - 1] for p in word))


def group_order(n: int) -> int:
    check_rank(n)
    out = 1 << n
    for k in range(2, n + 1):
        out *= k
    return out


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


def inversion_set(w: SignedPerm) -> RootSet:
    """The set of positive roots sent into the negatives by w^{-1}, read off
    the rows of _row; its size is the Coxeter length of w."""
    n = w.rank
    return RootSet(n, _inversion_mask(w.images, n))


def _inversion_mask(images: tuple[int, ...], n: int) -> int:
    """Bitmask of the inversion set: the sum, as in _expand, of the rows of
    _row at the positions, flipped where the image is negative."""
    rows = _word_rows(n, [abs(u) for u in images])
    return sum(row[u < 0] for u, row in zip(images, rows))


def length(w: SignedPerm) -> int:
    return _inversion_mask(w.images, w.rank).bit_count()


def perm_inversions(sigma: Perm) -> RootSet:
    """Inversion set of a plain permutation: the differences e_i - e_j with
    i < j whose values appear out of order in sigma's one-line word.  This is
    the closed-form route; it must agree with inversion_set on S_n."""
    n = sigma.rank
    return RootSet(n, _perm_inversion_mask(sigma.images, n))


@lru_cache(maxsize=None)
def _diff_offsets(n: int) -> tuple[int, ...]:
    """off[v] is the bit of e_v - e_(v+1) (num_diffs(n) for the empty row n),
    so that the differences are indexed row-major: d_idx[i][j] = off[i] +
    (j - i - 1) for i < j.  Raises ConsistencyError when they are not."""
    d_idx = _index_tables(n)[0]
    off = (0, *(d_idx[v][v + 1] for v in range(1, n)), num_diffs(n))
    if any(d_idx[i][j] != off[i] + j - i - 1 for i in range(1, n) for j in range(i + 1, n + 1)):
        raise ConsistencyError(f"the differences of rank {n} are not indexed row-major")
    return off


def _perm_row(before: int, v: int, off: tuple[int, ...]) -> int:
    """The inversions e_v - e_u, v < u, that the letter v adds after the
    letters of the value mask before (bit u - 1 for the value u).  Row v of
    the row-major index off (_diff_offsets) has bit u - v - 1 for e_v - e_u,
    so the row is before shifted right by v: one shift."""
    return before >> v << off[v]


def _perm_inversion_mask(word: tuple[int, ...], n: int) -> int:
    """Bitmask of the differences e_v - e_u, v < u, with u before v in word:
    the union of the rows _perm_row gives each letter."""
    off = _diff_offsets(n)
    mask = before = 0
    for v in word:
        mask |= _perm_row(before, v, off)
        before |= 1 << (v - 1)
    return mask


def perm_from_inversions(s: RootSet, n: int) -> Optional[Perm]:
    """The unique permutation with the given inversion set, or None when the
    set is not an inversion set of any permutation."""
    if s.rank != n:
        raise ValueError("rank mismatch")
    if s.mask >> num_diffs(n):
        raise ValueError("inversion sets contain difference roots only")
    word = _word_from_inversion_mask(s.mask, n)
    return None if word is None else Perm(word)


def _word_from_inversion_mask(mask: int, n: int) -> Optional[tuple[int, ...]]:
    """The one-line word of the permutation whose inversion set is the given
    difference-root bitmask, or None when there is none.  This is the
    package's only Lehmer decoder: the popcount of row v of the row-major
    index (_diff_offsets) counts the larger values before v, so inserting
    the values n..1 at those offsets rebuilds the word, which is then
    verified against the mask."""
    off = _diff_offsets(n)
    word: list[int] = []
    for v in range(n, 0, -1):
        word.insert((mask >> off[v] & (1 << (n - v)) - 1).bit_count(), v)
    out = tuple(word)
    return out if _perm_inversion_mask(out, n) == mask else None


def _row(n: int, v: int, later: int) -> tuple[int, int]:
    """(plus, minus): the inversions of the roots whose first slot holds the value v,
    unflipped and flipped, when later is the value mask of the letters after it (bit
    q - 1 for the value q).  Built from the root index; read by _word_rows (for
    _iter_rows and _inversion_mask), _length_histogram and ce._unharmonic_rows."""
    d_idx, s_idx, l_idx = _index_tables(n)
    up, down = 0, 1 << l_idx[v]
    while later:
        low = later & -later
        later ^= low
        q = low.bit_length()
        if q < v:
            up |= 1 << d_idx[q][v]
            down |= 1 << s_idx[q][v]
        else:
            down |= (1 << s_idx[v][q]) | (1 << d_idx[v][q])
    return up, down


def _word_rows(n: int, word) -> list[tuple[int, int]]:
    """(plus, minus) of _row at each position of word, with the letters after it."""
    rows, later = [], 0
    for v in reversed(word):
        rows.append(_row(n, v, later))
        later |= 1 << (v - 1)
    return rows[::-1]


def _iter_rows(n: int):
    """Walk of the whole group for its one reader, the scan's element loop, one
    word at a time in lexicographic order, yielding (word, plus, minus): plus[p] and
    minus[p] are the rows _row gives the value at the 0-based position p and
    the letters after it.  So _expand(plus, minus)[P] is the inversion mask
    of the element of word whose values at the positions in P are negated,
    because for a fixed element the map from a positive root to the
    inversion it contributes is injective, so the rows never overlap and add
    like disjoint bit sets; and because the contribution of the two roots
    supported on positions (i, j) depends only on the sign carried by the
    value at position i."""
    check_rank(n)
    for word in itertools.permutations(range(1, n + 1)):
        yield word, *map(list, zip(*_word_rows(n, word)))


def _row_tables(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """(lo, hi): lo[v][later] and hi[v][later] are the rows _row gives for
    the value v unflipped and flipped, later the value mask of the letters
    after it, built from the root index by subset doubling and not by _row's
    loop, from the bits of the index pairs {v, x} with x = v or x in later.
    Raises ConsistencyError unless the pairs {a, b}, a <= b, split the n^2
    roots, which is what makes rows on distinct pairs disjoint."""
    d_idx, s_idx, l_idx = _index_tables(n)
    lo, hi = [[]], [[]]
    parts = []  # the roots of each pair {a, b}, a <= b
    for v in range(1, n + 1):
        unflipped, flipped = [0] * n, [0] * n  # the bits each later letter q adds
        for q in range(1, v):
            unflipped[q - 1], flipped[q - 1] = 1 << d_idx[q][v], 1 << s_idx[q][v]
        for q in range(v + 1, n + 1):
            flipped[q - 1] = (1 << d_idx[v][q]) + (1 << s_idx[v][q])
        long_v = 1 << l_idx[v]
        parts += [long_v, *flipped[v:]]  # the pairs {v, q}, q > v, hold no unflipped bit
        lo.append(_expand([0] * n, unflipped))
        hi.append([row + long_v for row in _expand([0] * n, flipped)])
    if sum(parts) != (1 << n * n) - 1 or sum(map(int.bit_count, parts)) != n * n:
        raise ConsistencyError(
            f"the root pairs of rank {n} do not split the roots; this indicates a bug"
        )
    return lo, hi


def _expand(plus: list[int], minus: list[int]) -> list[int]:
    """Subset doubling: entry P (bit p for the 0-based position p) is the sum
    of the plus rows with minus[p] in place of plus[p] for each p in P."""
    masks = [sum(plus)]
    for up, down in zip(plus, minus):
        delta = down - up
        masks += [m + delta for m in masks]
    return masks


def _sign_patterns(word: tuple[int, ...]) -> list[int]:
    """Entry P is the flipped-value bitmask (bit v-1 set iff the value v is
    negated) of the element at index P of _expand over word's rows."""
    return _expand([0] * len(word), [1 << (v - 1) for v in word])


def _subset_dp(n: int, width: int, degree: int, rows) -> Optional[list[int]]:
    """The package's only packed subset DP: F(empty) = 1 and, over the subsets
    S of {1..n}, F(S) = sum over v in S, r in rows(v, S - v) of t^|r| F(S - v).
    Returns the coefficients of F({1..n}) of degrees 0..degree, or None as
    soon as rows, read once at each of the n 2^(n-1) pairs (v, S - v),
    returns None.  Each F is packed into one int, width bits a coefficient."""
    poly = [1]
    for s in range(1, 1 << n):
        acc = 0
        for v in range(1, n + 1):
            rest = s & ~(1 << (v - 1))
            if rest != s:
                found = rows(v, rest)
                if found is None:
                    return None
                f = poly[rest]
                for r in found:
                    acc += f << width * r.bit_count()
        poly.append(acc)
    return _unpack(poly[-1], width, degree)


def _unpack(packed: int, width: int, degree: int) -> list[int]:
    """The package's only unpacker: the coefficients of degrees 0..degree of
    a polynomial packed a coefficient per width bits."""
    low = (1 << width) - 1
    return [packed >> width * d & low for d in range(degree + 1)]


def _length_histogram(n: int) -> Optional[list[int]]:
    """Length -> elements over the whole group, as a list over 0..n^2, with
    no walk over permutations: _subset_dp over the suffix sets S of a word,
    F(S) = sum over v in S of (t^|plus| + t^|minus|) F(S - v) with (plus,
    minus) = _row(n, v, S - v).  This is the one pass that certifies the
    rows: it returns None unless each row equals lo[v][later] and
    hi[v][later] of _row_tables.  A length is a sum of row popcounts when the
    n rows of a word are disjoint, which holds because the tables put every
    row on the index pairs {v, x} with x = v or x after v: the value at a
    position is after no later position, so the rows of a word lie on
    distinct pairs."""
    lo, hi = _row_tables(n)

    def rows(v: int, later: int) -> Optional[tuple[int, int]]:
        pair = _row(n, v, later)
        return pair if pair == (lo[v][later], hi[v][later]) else None

    return _subset_dp(n, group_order(n).bit_length(), n * n, rows)


def standard_form(w: SignedPerm) -> StandardForm:
    """Decompose w into sign flips after a permutation, the flipped values
    listed in the order they appear in sigma_0's word."""
    return StandardForm(tuple(-v for v in w.images if v < 0), w.perm)


def recompose(sf: StandardForm) -> SignedPerm:
    return SignedPerm.from_perm_and_negated(sf.sigma0, sf.j_list)
