"""The hyperoctahedral Weyl group of C_n, as the rows of its inversion sets.

An element is written by its one-line word, a permutation of 1..n, and the
set of positions whose value is negated: equivalently a plain permutation
followed by sign flips on a set J of output values, the factorization
w = r_{j_1} ... r_{j_k} * sigma_0 used throughout (r_v flips the sign of
the value v, sigma_0 acts first).  This module holds no element objects:
the value types and the maps on one element (SignedPerm, inversion_set,
standard_form and the rest) are in the elements module, which only
bijection --witness, weyl --list and the tests load.

Inversion sets are unions of rows, read off the row layout (roots._row_starts)
by _row and _perm_row.  Each row is a base row joined with one piece per later
value, and _bad_pieces checks the n^2 pieces against the root index; the
lengths are then counted by set size (_size_dp), with no loop over sets.
"""

import itertools
import math
from typing import Optional

from .errors import ConsistencyError
from .roots import check_rank, _index_tables, _row_starts


def group_order(n: int) -> int:
    check_rank(n)
    out = 1 << n
    for k in range(2, n + 1):
        out *= k
    return out


def _perm_row(n: int, before: int, v: int) -> int:
    """The inversions e_v - e_u, v < u, that the letter v adds after the
    letters of the value mask before (bit u - 1 for the value u).  Row v of
    the differences has bit u - v - 1 for e_v - e_u (roots._row_starts), so
    the row is before shifted right by v: one shift."""
    return before >> v << _row_starts(n)[0][v]


def _perm_inversion_mask(word: tuple[int, ...], n: int) -> int:
    """Bitmask of the differences e_v - e_u, v < u, with u before v in word:
    the union of the rows _perm_row gives each letter."""
    mask = before = 0
    for v in word:
        mask |= _perm_row(n, before, v)
        before |= 1 << (v - 1)
    return mask


def _word_from_inversion_mask(mask: int, n: int) -> Optional[tuple[int, ...]]:
    """The one-line word of the permutation whose inversion set is the given
    difference-root bitmask, or None when there is none.  This is the
    package's only Lehmer decoder: the popcount of row v of the differences
    (roots._row_starts) counts the larger values before v, so inserting the
    values n..1 at those offsets rebuilds the word, which is then verified
    against the mask."""
    diff_start = _row_starts(n)[0]
    word: list[int] = []
    for v in range(n, 0, -1):
        word.insert((mask >> diff_start[v] & (1 << (n - v)) - 1).bit_count(), v)
    out = tuple(word)
    return out if _perm_inversion_mask(out, n) == mask else None


def _row(n: int, v: int, later: int) -> tuple[int, int]:
    """(plus, minus): the inversions of the roots whose first slot holds the value v,
    unflipped and flipped, when later is the value mask of the letters after it (bit
    q - 1 for the value q): the values above v shift into row v's differences and sums
    (roots._row_starts), and each value q below v adds a bit of row q.  Each bit of later
    is shifted or read on its own, so the row is the base row _row(n, v, 0) joined with
    one piece per q in later, as _row(n, v, {q}) shows it (_bad_pieces; tests/test_lint.py
    pins this form).  Read by _word_rows (for _iter_rows and _inversion_mask),
    _bad_pieces, _length_histogram and ce._unharmonic_rows."""
    diff_start, sum_start, long_bit = _row_starts(n)
    above = later >> v
    up, down = 0, 1 << long_bit[v] | above << diff_start[v] | above << sum_start[v]
    below = later & (1 << (v - 1)) - 1
    while below:
        low = below & -below
        below ^= low
        q = low.bit_length()
        up |= 1 << diff_start[q] + v - q - 1
        down |= 1 << sum_start[q] + v - q - 1
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


def _bad_pieces(n: int) -> list[tuple[int, int, int]]:
    """(v, q, flipped) for each side of a piece of _row that differs from the
    root index, in n^2 calls: the base row _row(n, v, 0) (q = 0) must be
    (0, 2e_v), and _row(n, v, {q}) must add to it (e_q - e_v, e_q + e_v) for
    q < v and (0, {e_v - e_q, e_v + e_q}) for q > v.  Each piece of (v, q) lies
    on the pair {v, q}, and a value is after no later position, so with none
    bad the rows of a word lie on distinct pairs.  Raises ConsistencyError
    unless the pairs {a, b}, a <= b, split the n^2 roots, which is what makes
    rows on distinct pairs disjoint."""
    d_idx, s_idx, l_idx = _index_tables(n)
    parts, bad = [], []  # the roots of each pair {a, b}, a <= b
    for v in range(1, n + 1):
        pieces = {0: (0, 0)}
        for q in range(1, v):
            pieces[q] = 1 << d_idx[q][v], 1 << s_idx[q][v]
        for q in range(v + 1, n + 1):
            pieces[q] = 0, (1 << d_idx[v][q]) + (1 << s_idx[v][q])
        long_v = 1 << l_idx[v]
        parts += [long_v, *(pieces[q][1] for q in range(v + 1, n + 1))]
        for q, (up, down) in pieces.items():
            got, want = _row(n, v, 1 << q >> 1), (up, down + long_v)
            bad += [(v, q, f) for f in (0, 1) if got[f] != want[f]]
    if sum(parts) != (1 << n * n) - 1 or sum(map(int.bit_count, parts)) != n * n:
        raise ConsistencyError(
            f"the root pairs of rank {n} do not split the roots; this indicates a bug"
        )
    return bad


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


def _size_dp(n: int, width: int, degree: int, rows) -> list[int]:
    """The package's only packed DP, over set sizes: F(0) = 1 and F(m) =
    F(m - 1) * sum over r = 1..m, row in rows(r, rest), of t^|row|, rest the
    value mask of 1..m without r, which counts the words of any m values when
    a row's popcount depends only on r and m.  Returns F(n)'s coefficients of
    degrees 0..degree.  Each polynomial is packed into one int, width bits a
    coefficient, and the factors are multiplied pairwise, to balance them."""
    polys = []
    for m in range(1, n + 1):
        rests = [(r, (1 << m) - 1 ^ 1 << r - 1) for r in range(1, m + 1)]
        polys.append(sum(1 << width * row.bit_count() for r in rests for row in rows(*r)))
    while len(polys) > 1:
        polys = [math.prod(polys[k : k + 2]) for k in range(0, len(polys), 2)]
    return _unpack(polys[0], width, degree)


def _unpack(packed: int, width: int, degree: int) -> list[int]:
    """The package's only unpacker: the coefficients of degrees 0..degree of
    a polynomial packed a coefficient per width bits, sliced from one string
    of its low width * (degree + 1) binary digits, so it is linear in the
    packed size (a shift per coefficient copies the whole int each time)."""
    size = width * (degree + 1)
    digits = format(packed & (1 << size) - 1, f"0{size}b")
    return [int(digits[k - width : k], 2) for k in range(size, 0, -width)]


def _length_histogram(n: int) -> Optional[list[int]]:
    """Length -> elements over the whole group, as a list over 0..n^2, with no
    walk over permutations, or None when a piece of _row differs from the
    root index (_bad_pieces).  An element's length is the sum of the
    popcounts of its rows, which lie on distinct pairs and so are disjoint.
    With the pieces checked, the rows of the r-th smallest of m values, the
    others after it, have r - 1 bits unflipped and 2m - r flipped whatever the
    values, so over the suffix sets of a word F(m) = F(m - 1) * sum over
    r = 1..m of (t^|plus| + t^|minus|): _size_dp over the rows _row gives."""
    if _bad_pieces(n):
        return None
    return _size_dp(n, group_order(n).bit_length(), n * n, lambda v, later: _row(n, v, later))
