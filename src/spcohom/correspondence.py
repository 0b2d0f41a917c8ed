"""The bijection between signed permutations and (permutation, ideal) pairs.

Every group element w splits canonically: its inversion set meets the
difference roots in the inversion set of a unique plain permutation (the
"symmetric component"), and the remaining sum-type inversions, relabeled
through that permutation's inverse followed by the order-reversing
permutation, always form an upward-closed set (the "ideal component").  The
resulting map w -> (permutation, ideal) is a bijection onto the full product,
which is what verify_bijection checks exhaustively, together with the support
and degree identities that transport the correspondence into cohomology.
This module is the scan and the tables it reads; it builds no element or
pair object.  The same maps for one element (correspondence_pair, from_pair,
cocycle_support, trace_element) are in the pairs module, which a passing
scan never loads: a failing one imports pairs._round_trip, and writes its
witnesses through the elements module, inside verify_bijection.

The definitional maps are normative.  The closed forms read both components
off the standard form w = r_{j_1}...r_{j_k} * sigma_0, with the j's listed in
the order they appear in sigma_0's word: the symmetric component is sigma_0's
word without the j's followed by the j's reversed, and row t of the ideal
runs up to b_t = n + t - sigma_0^-1(j_t).  verify_bijection gates both on
every element.

The scan reports every check for every element: element by element on the
walk's masks, or, for the whole group at once, as one batch of renamings of
the first permutation's checked elements (see the README, "What the
bijection check certifies").  Its failures and witnesses are those of a
per-element evaluation through the same tables and relabels.  The batch
rests on three checks, with no pass over S_n: every gather is an
itemgetter; weyl._length_histogram finds the n^2 pieces of weyl._row equal
to the root index (each piece of (v, q) on the pair {v, q}, and the pairs
split the roots), so the rows of any word are disjoint, its difference
part is inv(g_P(word)) and a DP over set sizes counts the lengths; and the
element loop records no failure on the first permutation, whose word is the
positions plus one, so closed-form-sym there compares each closed-form
gather with its rule.
A permutation is determined by its inversion set, so the symmetric
component of every element is g_P(word), and _phi1_grid reads the checked
row layout, so compiled relabels compose like value maps and relabelling
through pi and then through rho = pi^-1 moves no bit.  If any check fails,
every permutation runs the element loop.  The scan runs in one process.

A relabel has one builder, _relabel_gather, which compiles a value map
straight to its gather; _sym_entry hands the scan and the pairs module the
same compiled relabel.
"""

from bisect import insort
from collections import Counter
from functools import lru_cache
from itertools import islice
from operator import itemgetter
from typing import Optional, Sequence

from .errors import ConsistencyError
from .report import VerificationReport
from .roots import check_cap, num_diffs, _mask_from_profile, _row_starts, _staircases
from .weyl import (
    group_order,
    _expand,
    _iter_rows,
    _length_histogram,
    _sign_patterns,
    _word_from_inversion_mask,
)


def _gather(idx: Sequence[int]) -> itemgetter:
    """g(seq) is tuple(seq[i] for i in idx), or a str for a str.  A single
    index gets a one-item slice, since itemgetter(i) returns a scalar."""
    return itemgetter(*idx) if len(idx) > 1 else itemgetter(slice(idx[0], idx[0] + 1))


@lru_cache(maxsize=None)
def _phi1_grid(n: int) -> tuple[list[list[Optional[int]]], tuple[int, ...], tuple[int, ...]]:
    """(grid, rows, cols): the sums-plus-longs root at index k, counted from
    bit num_diffs(n), is e_i + e_j (2e_i when i == j) with i = rows[k] <=
    j = cols[k], and grid[i][j] = grid[j][i] = k; row and column 0 of the
    grid hold None.  Both are read off the row layout (roots._row_starts),
    whose check puts each pair i <= j at a bit of its own, so they are
    inverse bijections and compiled relabels compose the way value maps do."""
    _diff_start, sum_start, long_bit = _row_starts(n)
    nd, width = num_diffs(n), n * (n + 1) // 2
    grid: list[list[Optional[int]]] = [[None] * (n + 1) for _ in range(n + 1)]
    rows, cols = [0] * width, [0] * width
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            k = (long_bit[i] if i == j else sum_start[i] + j - i - 1) - nd
            grid[i][j] = grid[j][i] = k
            rows[k], cols[k] = i, j
    return grid, tuple(rows), tuple(cols)


def _relabel_gather(value_map: Sequence[int], n: int) -> itemgetter:
    """The relabel that sends both indices of each sums-plus-longs root
    through value_map[v], compiled into the gather that _apply_relabel
    applies: output digit L-1-t of the binary string takes input digit L-1-k
    when the root at index k goes to the root at index t.  The gather is
    exact only for a bit permutation, so anything else is an error."""
    grid, rows, cols = _phi1_grid(n)
    last = len(rows) - 1
    src: list[Optional[int]] = [None] * len(rows)
    if min(value_map[1:]) >= 1:  # a value below 1 indexes the grid's end or its None row
        try:
            for k, i, j in zip(range(last, -1, -1), rows, cols):
                src[last - grid[value_map[i]][value_map[j]]] = k
        except IndexError:
            pass
    if None in src:
        raise ConsistencyError(
            f"the value map {tuple(value_map[1:])} permutes no sums-plus-longs "
            f"of rank {n}; this indicates a bug"
        )
    return _gather(src)


def _apply_relabel(gather: itemgetter, mask: int, n: int) -> int:
    """Relabel a mask's sums-plus-longs bits through a gather that
    _relabel_gather compiled; its difference bits are dropped.  Only the
    n(n+1)/2 sums-plus-longs digits are gathered: a bit above the n^2 roots
    would lengthen the digit string and shift every digit."""
    nd, width = num_diffs(n), n * (n + 1) // 2
    return int("".join(gather(format((mask >> nd) & ((1 << width) - 1), f"0{width}b"))), 2) << nd


def _position_map(word: Sequence[int]) -> tuple[int, ...]:
    """The value map pi(v) = n + 1 - pos(v) (pi[0] = 0) of a word: the
    relabel that takes the sum inversions of an element whose symmetric
    component has this word into its ideal."""
    n = len(word)
    pi = [0] * (n + 1)
    for p, v in enumerate(word):
        pi[v] = n - p
    return tuple(pi)


def _sym_entry(phi0: int, n: int) -> Optional[tuple[tuple[int, ...], itemgetter]]:
    """(word, fwd) for the permutation whose inversion set is the
    difference-root bitmask phi0, or None when it is no inversion set; fwd is
    the compiled relabel of word's _position_map."""
    word = _word_from_inversion_mask(phi0, n)
    if word is None:
        return None
    return word, _relabel_gather(_position_map(word), n)


def _closed_form_entry(pset: int, n: int) -> tuple[itemgetter, int]:
    """Both closed forms for the set P of flipped positions (bit p for the
    0-based position p): (gather, ideal mask), where gather(sigma_0's word) is
    the unflipped values followed by the flipped ones reversed, and row t of
    the ideal runs up to b_t = n + t - p_t for the t-th flipped position p_t
    (1-based), inverting the placement in _recipes.  As p_t <= n - k + t,
    b_t >= k >= t, so the rows form a staircase."""
    flipped = [p for p in range(n) if pset >> p & 1]
    kept = [p for p in range(n) if not pset >> p & 1]
    bounds = [n + t - p for t, p in enumerate(flipped)]
    return _gather(kept + flipped[::-1]), _mask_from_profile(bounds, n)


@lru_cache(maxsize=None)
def _closed_forms(n: int) -> tuple[tuple[itemgetter, int], ...]:
    """Entry P is _closed_form_entry(P, n), the canonical entry of P."""
    return tuple(_closed_form_entry(pset, n) for pset in range(1 << n))


@lru_cache(maxsize=None)
def _recipes(n: int) -> dict[int, Optional[tuple[itemgetter, int]]]:
    """The direct inverse recipe, per upward-closed set: ideal mask ->
    (gather, k), or None if the placement is malformed.  The recipe flips the
    k values at the tail of the permutation word, one per nonempty staircase
    row, puts the t-th, word[n - t], at position n + t - b_t for the t-th
    bound b_t, and fills the other positions with the rest of the word in
    order; gather(word) is the unsigned word it builds.  The sets and their
    profiles come from the one staircase walk, ideals._staircases."""
    out: dict[int, Optional[tuple[itemgetter, int]]] = {}
    for profile, mask in _staircases(n):
        k = sum(b > t for t, b in enumerate(profile))
        places = [n + t - b for t, b in enumerate(profile[:k], start=1)]
        if any(not p < q <= n for p, q in zip([0] + places, places)):
            out[mask] = None
            continue
        slot = {p: n - t for t, p in enumerate(places, start=1)}
        rest = iter(range(n - k))
        out[mask] = _gather([slot[p] if p in slot else next(rest) for p in range(1, n + 1)]), k
    return out


def _construct(sigma_word: tuple[int, ...], ximask: int, n: int) -> Optional[tuple]:
    """The direct inverse recipe applied to a pair key: (unsigned word,
    flipped-value bitmask), or None when _recipes has no placement."""
    recipe = _recipes(n).get(ximask)
    if recipe is None:
        return None
    gather, k = recipe
    return gather(sigma_word), sum(1 << v - 1 for v in sigma_word[n - k :])


# witnesses reported per failing check
_MAX_WITNESSES = 5

# the per-element checks: counter key -> (check id, description)
_ELEMENT_CHECKS = {
    "sym_fail": (
        "sym-component-inversions",
        "the difference inversions of every element form the inversion set "
        "of its permutation component",
    ),
    "incr_fail": (
        "ideal-component-increasing",
        "the relabeled sum inversions of every element are upward closed",
    ),
    "support_fail": (
        "support-identity",
        "permutation inversions joined with the relabeled ideal recover the "
        "whole inversion set",
    ),
    "degree_fail": (
        "degree-additivity",
        "length equals permutation length plus ideal dimension",
    ),
    "construct_fail": (
        "constructive-inverse",
        "the direct inverse recipe rebuilds every element from its pair",
    ),
    "closed_sym_fail": (
        "closed-form-sym",
        "the word of sigma_0 without the flipped values, followed by the "
        "flipped values in reversed word order, is the symmetric component",
    ),
    "closed_ideal_fail": (
        "closed-form-ideal",
        "the staircase with row t up to n + t - sigma_0^-1(j_t), the flipped "
        "values j_t in word order, is the ideal component",
    ),
}


def _gathers_are_position_maps(n: int) -> bool:
    """Whether the gathers let the scan pass permutations as batches.
    Renaming values commutes only with gathers that are pure position maps,
    so every recipe gather and every closed-form gather must be an
    itemgetter.  That each closed-form gather lists the positions outside its
    P in order, then those in P reversed, the element loop checks on the
    first permutation (closed-form-sym), whose word is the positions plus
    one.  Builds _recipes(n) and _closed_forms(n)."""
    gathers = [recipe[0] for recipe in _recipes(n).values() if recipe is not None]
    gathers += [gather for gather, _ideal in _closed_forms(n)]
    return all(type(gather) is itemgetter for gather in gathers)


def _scan_chunk(n: int, perms: Optional[int]) -> dict:
    """Check every element of the first perms permutations of the walk, or
    of the whole group when perms is None, one by one, on the masks of the
    walk.

    Returns the failure counts, per check the sorted list of its
    _MAX_WITNESSES smallest failing (word, jmask), the length histogram and
    the pair keys of the elements whose round trip through the direct
    inverse failed, plus the number of permutations checked.
    """
    phi0_all = (1 << num_diffs(n)) - 1
    recipes = _recipes(n)
    canonical = _closed_forms(n)
    # per symmetric component's inversion mask phi0: (eta, compiled pi
    # relabel, compiled rho relabel), or None when phi0 is no inversion set.
    # The walk of the whole group meets each phi0 on 2^n elements and keeps
    # every entry; one permutation meets it on one pair of sign patterns (the
    # last position has no later value, so flipping it adds no difference
    # root), and its entries are dropped with their pair.
    entries: dict[int, Optional[tuple]] = {}
    keep = perms is None
    counts = dict.fromkeys(_ELEMENT_CHECKS, 0)
    witnesses: dict[str, list] = {key: [] for key in _ELEMENT_CHECKS}

    def fail(key: str, word: tuple[int, ...], jmask: int) -> None:
        counts[key] += 1
        kept = witnesses[key]
        insort(kept, (word, jmask))
        del kept[_MAX_WITNESSES:]

    hist: Counter[int] = Counter()
    failed_keys: set[tuple[tuple[int, ...], int]] = set()
    checked = 0
    half = 1 << (n - 1)

    for word, plus, minus in islice(_iter_rows(n), perms):
        checked += 1
        masks = _expand(plus, minus)
        hist.update(map(int.bit_count, masks))
        jmasks = _sign_patterns(word)
        for low in range(half):
            for pset in (low, low + half):
                jmask, mask = jmasks[pset], masks[pset]
                phi0 = mask & phi0_all
                if phi0 not in entries:
                    entry = _sym_entry(phi0, n)
                    entries[phi0] = entry and (*entry, _relabel_gather((0, *reversed(entry[0])), n))
                entry = entries[phi0]
                if entry is None:
                    fail("sym_fail", word, jmask)
                    continue
                eta_word, fwd, bwd = entry
                gather, ideal = canonical[pset]
                ximask = _apply_relabel(fwd, mask, n)
                if ximask not in recipes:
                    fail("incr_fail", word, jmask)
                    continue
                if mask.bit_count() != phi0.bit_count() + ximask.bit_count():
                    fail("degree_fail", word, jmask)
                if _construct(eta_word, ximask, n) != (word, jmask):
                    fail("construct_fail", word, jmask)
                    failed_keys.add((eta_word, ximask))
                if ideal != ximask:
                    fail("closed_ideal_fail", word, jmask)
                # support identity: relabel the ideal back through rho = pi^-1
                if phi0 | _apply_relabel(bwd, ximask, n) != mask:
                    fail("support_fail", word, jmask)
                if gather(word) != eta_word:
                    fail("closed_sym_fail", word, jmask)
            if not keep:
                entries.clear()

    return {
        "counts": counts,
        "witnesses": witnesses,
        "hist": [hist[d] for d in range(n * n + 1)],
        "failed_keys": failed_keys,
        "per_element_perms": checked,
    }


def _scan(n: int) -> dict:
    """The scan of all 2^n n! elements (see the module docstring): failure
    counts, witness items, length histogram, failed pair keys and
    per_element_perms, the number of permutations checked element by
    element.  A passing scan is the first permutation's result with the
    DP's histogram.  A failing one runs the element loop on every
    permutation.
    """
    hist = _gathers_are_position_maps(n) and _length_histogram(n)
    first = hist and _scan_chunk(n, 1)
    if first and not any(first["counts"].values()):
        return {**first, "hist": hist}
    return _scan_chunk(n, None)


def verify_bijection(n: int, *, workers: int = 1) -> VerificationReport:
    """Exhaustively verify the correspondence over all 2^n n! elements.

    Checks, per element: the symmetric component inverts exactly the
    difference inversions, the ideal component is upward closed, the support
    and degree identities hold, and the direct inverse recipe rebuilds the
    element from its pair.  Globally the round trip certifies the bijection:
    a left inverse on every element makes the pair map injective, and since
    |G| = 2^n n! = |S_n x ideals| it is then onto.  The number of distinct
    pairs is exact even where the recipe fails, and pair-onto compares it
    with the size of the product.  The closed forms read off the standard
    form must equal both components on every element.

    workers is accepted and ignored: the scan runs in this process, and
    perfbench/trace_pass.py still passes it, until ROADMAP item 4 replaces
    that replay.
    """
    check_cap(n, "group enumeration")
    scan = _scan(n)
    counts, hist = scan["counts"], scan["hist"]
    total = sum(hist)
    round_trip = total - counts["sym_fail"] - counts["incr_fail"] - counts["construct_fail"]
    # Successful round trips have distinct keys, since the recipe is a
    # function.  A failed element's key k is also the key of a success
    # exactly when pair(construct(k)) == k, so only the other keys are new.
    distinct = round_trip
    if scan["failed_keys"]:
        from .pairs import _round_trip

        distinct += sum(1 for key in scan["failed_keys"] if _round_trip(*key, n) is None)

    order = group_order(n)
    report = VerificationReport(rank=n)
    report.add(
        "pair-injective",
        "the direct inverse recipe is a left inverse of the pair map on every "
        "element, so distinct elements give distinct (permutation, ideal) pairs",
        round_trip == total == order,
        {"elements": total, "distinct_pairs": distinct},
    )
    report.add(
        "pair-onto",
        "the pairs exhaust the product: 2^n * n! distinct values",
        distinct == order,
        {"distinct_pairs": distinct, "product_size": order},
    )
    witnesses = scan["witnesses"]
    if any(witnesses.values()):  # a failing scan: write its witnesses
        from .elements import _witness_str

        witnesses = {key: [_witness_str(*item) for item in kept] for key, kept in witnesses.items()}
    for key, (check_id, description) in _ELEMENT_CHECKS.items():
        detail = {"failures": counts[key], "witnesses": witnesses[key]}
        report.add(check_id, description, counts[key] == 0, detail)
    report.data["elements"] = total
    report.data["distinct_pairs"] = distinct
    report.data["weyl_length_histogram"] = hist
    return report
