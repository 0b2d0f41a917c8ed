"""The bijection between signed permutations and (permutation, ideal) pairs.

Every group element w splits canonically: its inversion set meets the
difference roots in the inversion set of a unique plain permutation (the
"symmetric component"), and the remaining sum-type inversions, relabeled
through that permutation's inverse followed by the order-reversing
permutation, always form an upward-closed set (the "ideal component").  The
resulting map w -> (permutation, ideal) is a bijection onto the full product,
which is what verify_bijection checks exhaustively, together with the support
and degree identities that transport the correspondence into cohomology.

The definitional maps are normative.  The closed forms read both components
off the standard form w = r_{j_1}...r_{j_k} * sigma_0, with the j's listed in
the order they appear in sigma_0's word: the symmetric component is sigma_0's
word without the j's followed by the j's reversed, and row t of the ideal
runs up to b_t = n + t - sigma_0^-1(j_t).  verify_bijection gates both on
every element.
"""

from __future__ import annotations

import math
import os
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import ConsistencyError
from .ideals import IncreasingSet, _profiles, _mask_from_profile
from .report import VerificationReport
from .roots import RootSet, check_rank, num_diffs, positive_roots, _index_tables
from .weyl import (
    DEFAULT_GROUP_CAP,
    Perm,
    SignedPerm,
    StandardForm,
    check_group_cap,
    group_order,
    perm_inversions,
    standard_form,
    _inversion_mask,
    _iter_signed_inversion_masks,
    _perm_inversion_mask,
    _word_from_inversion_mask,
)


@dataclass(frozen=True, slots=True)
class CorrespondencePair:
    """The image of a group element: a plain permutation and an upward-closed set."""

    sym: Perm
    ideal: IncreasingSet


def reversal_perm(n: int) -> Perm:
    """The longest element (n, n-1, ..., 1) of S_n; an involution that
    reverses the dominance order on the sums-plus-longs."""
    check_rank(n)
    return Perm(tuple(range(n, 0, -1)))


@lru_cache(maxsize=None)
def _phi1_bits(n: int) -> dict[tuple[int, int], int]:
    """(i, j) with i <= j -> the one-bit mask of the sums-plus-longs root
    e_i + e_j (2e_i when i == j), in bit order from bit num_diffs(n)."""
    return {(r.i, r.j): 1 << b for b, r in enumerate(positive_roots(n)) if r.in_phi1}


@lru_cache(maxsize=None)
def _increasing_profiles(n: int) -> dict[int, tuple[int, ...]]:
    """Bitmask -> staircase profile for each of the 2^n upward-closed sets."""
    return {_mask_from_profile(p, n): p for p in _profiles(n)}


@lru_cache(maxsize=None)
def _row_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """_row_masks(n)[t][b] is the bitmask of {e_t + e_j : t <= j <= b}."""
    _, s_idx, l_idx = _index_tables(n)
    table: list[tuple[int, ...]] = [()]
    for t in range(1, n + 1):
        row = [0] * (n + 1)
        acc = 1 << l_idx[t]
        row[t] = acc
        for b in range(t + 1, n + 1):
            acc |= 1 << s_idx[t][b]
            row[b] = acc
        table.append(tuple(row))
    return tuple(table)


def _relabel_table(value_map: Sequence[int], n: int) -> tuple[int, ...]:
    """Entry k is the one-bit mask of the sums-plus-longs root at bit
    num_diffs(n) + k with both of its indices sent through value_map[v]."""
    bits = _phi1_bits(n)
    out = []
    for i, j in bits:
        a, b = value_map[i], value_map[j]
        out.append(bits[(a, b) if a <= b else (b, a)])
    return tuple(out)


def _relabel(mask: int, table: tuple[int, ...], nd: int) -> int:
    """Apply a _relabel_table to the sums-plus-longs bits of a mask; its
    difference bits are ignored."""
    out = 0
    m = mask >> nd
    while m:
        low = m & -m
        m ^= low
        out |= table[low.bit_length() - 1]
    return out


def _relabel_phi1(mask: int, value_map: Sequence[int], n: int) -> int:
    """Relabel the indices of a sums-plus-longs bitmask through value_map[v]."""
    return _relabel(mask, _relabel_table(value_map, n), num_diffs(n))


def _sym_entry(
    phi0: int, n: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Everything the correspondence needs from a difference-root bitmask:
    (word, fwd, bwd) for the permutation whose inversion set it is, or None
    when it is no inversion set.  fwd relabels sum inversions into the ideal
    through pi(v) = n + 1 - pos(v), and bwd relabels back through
    rho = pi^-1, rho(v) = word[n - v] (0-based)."""
    word = _word_from_inversion_mask(phi0, n)
    if word is None:
        return None
    pi = [0] * (n + 1)
    for p, v in enumerate(word):
        pi[v] = n - p
    return word, _relabel_table(pi, n), _relabel_table((0, *reversed(word)), n)


def _pair_masks(w: SignedPerm) -> tuple[tuple[int, ...], int]:
    """(sym word, ideal mask) for one element."""
    n = w.rank
    nd = num_diffs(n)
    mask = _inversion_mask(w.images, n)
    phi0 = mask & ((1 << nd) - 1)
    entry = _sym_entry(phi0, n)
    if entry is None:
        raise ConsistencyError(
            f"the short inversions of {w} form no permutation inversion set; "
            "this contradicts the correspondence and indicates a bug"
        )
    word, fwd, _ = entry
    return word, _relabel(mask, fwd, nd)


def sym_component(w: SignedPerm) -> Perm:
    """The unique permutation whose inversion set is the difference part of
    the inversion set of w."""
    return Perm(_pair_masks(w)[0])


def ideal_component(w: SignedPerm) -> IncreasingSet:
    """The sum-type inversions of w, relabeled through the inverse of the
    symmetric component and then reversed; always upward closed."""
    return correspondence_pair(w).ideal


def correspondence_pair(w: SignedPerm) -> CorrespondencePair:
    n = w.rank
    word, ximask = _pair_masks(w)
    profile = _increasing_profiles(n).get(ximask)
    if profile is None:
        raise ConsistencyError(
            f"the relabeled sum inversions of {w} are not upward closed; "
            "this contradicts the correspondence and indicates a bug"
        )
    return CorrespondencePair(Perm(word), IncreasingSet(n, RootSet(n, ximask), profile))


def _value_mask(values) -> int:
    """Bit v-1 set for each value v."""
    mask = 0
    for v in values:
        mask |= 1 << (v - 1)
    return mask


def _closed_form(
    word: tuple[int, ...], jmask: int, rowm: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], int]:
    """(sym word, ideal mask) read off the standard form: sigma_0's word and
    the flipped-value bitmask, with rowm = _row_masks(n).  The t-th flipped
    value j_t in word order sits at position p = sigma_0^-1(j_t); the sym word
    is the unflipped values followed by the flipped ones reversed, and row t
    of the ideal runs up to b_t = n + t - p, the inverse of the placement
    p = n + t - b_t in _construct_from_pair.  Since p >= t, b_t <= n."""
    n = len(word)
    head = []
    tail = []
    mask = 0
    for p, v in enumerate(word, start=1):
        if jmask >> (v - 1) & 1:
            tail.append(v)
            t = len(tail)
            mask |= rowm[t][n + t - p]
        else:
            head.append(v)
    return tuple(head + tail[::-1]), mask


def _closed_form_of(sf: StandardForm) -> tuple[tuple[int, ...], int]:
    n = sf.sigma0.rank
    return _closed_form(sf.sigma0.images, _value_mask(sf.j_list), _row_masks(n))


def sym_component_closed_form(sf: StandardForm) -> Perm:
    """Closed form of the symmetric component: the word of sigma_0 without
    the flipped values, followed by the flipped values in reversed word order."""
    return Perm(_closed_form_of(sf)[0])


def ideal_component_closed_form(sf: StandardForm) -> RootSet:
    """Closed form of the ideal component: row t of the staircase runs from
    the diagonal up to b_t = n + t - sigma_0^-1(j_t), the j's in word order."""
    return RootSet(sf.sigma0.rank, _closed_form_of(sf)[1])


def _construct_from_pair(
    sigma_word: tuple[int, ...], profile: tuple[int, ...], n: int
) -> Optional[tuple[tuple[int, ...], int]]:
    """The direct inverse recipe: read off the flipped values from the tail of
    the permutation word, place the t-th one at position n + t - b_t where b_t
    is the t-th staircase bound, and fill the rest in order.  Returns
    (unsigned word, flipped-value bitmask), or None if the data is malformed.
    """
    k = 0
    for t in range(1, n + 1):
        if profile[t - 1] >= t:
            k += 1
        else:
            break
    jlist = [sigma_word[n - t] for t in range(1, k + 1)]
    out = [0] * n
    prev = 0
    for t in range(1, k + 1):
        p = n + t - profile[t - 1]
        if not prev < p <= n:
            return None
        out[p - 1] = jlist[t - 1]
        prev = p
    fill = iter(sigma_word[: n - k])
    for idx in range(n):
        if out[idx] == 0:
            out[idx] = next(fill)
    return tuple(out), _value_mask(jlist)


def _signed_images(word: tuple[int, ...], jmask: int) -> tuple[int, ...]:
    """Signed one-line images from the unsigned word and the flipped-value bitmask."""
    return tuple(-v if jmask >> (v - 1) & 1 else v for v in word)


def from_pair(sigma: Perm, psi: IncreasingSet) -> SignedPerm:
    """The unique group element whose correspondence pair is (sigma, psi).

    Builds the candidate with the direct inverse recipe and validates it by
    recomputing its pair.  verify_bijection certifies the recipe on every
    element, so a candidate that fails validation is a bug.
    """
    if sigma.rank != psi.rank:
        raise ValueError("rank mismatch between permutation and ideal")
    n = sigma.rank
    built = _construct_from_pair(sigma.images, psi.profile, n)
    if built is not None:
        cand = SignedPerm(_signed_images(*built))
        if _pair_masks(cand) == (sigma.images, psi.members.mask):
            return cand
    raise ConsistencyError(
        f"the direct inverse recipe builds no element mapping to ({sigma}, {psi}); "
        "the correspondence is broken"
    )


def cocycle_support(sigma: Perm, psi: IncreasingSet) -> RootSet:
    """The roots indexing the wedge factors of the cocycle attached to
    (sigma, psi): the inversions of sigma joined with psi relabeled through
    sigma composed with the reversal.  The two parts are disjoint since one
    consists of differences and the other of sums."""
    if sigma.rank != psi.rank:
        raise ValueError("rank mismatch between permutation and ideal")
    n = sigma.rank
    inv = _perm_inversion_mask(sigma.images, n)
    relabeled = _relabel_phi1(psi.members.mask, (0, *reversed(sigma.images)), n)
    return RootSet(n, inv | relabeled)


class _TopK:
    """Keeps the k smallest items seen (lexicographic), deterministically."""

    def __init__(self, k: int):
        self.k = k
        self.items: list = []

    def offer(self, item) -> None:
        if len(self.items) < self.k:
            insort(self.items, item)
        elif item < self.items[-1]:
            insort(self.items, item)
            self.items.pop()

    def merge(self, other_items) -> None:
        for item in other_items:
            self.offer(item)


def _witness_str(word: tuple[int, ...], jmask: int) -> str:
    return "[" + ",".join(map(str, _signed_images(word, jmask))) + "]"


def _scan_chunk(n: int, start: Optional[int], stop: Optional[int], max_witnesses: int) -> dict:
    """Exhaustively check one slice of the group (by permutation index range).

    Returns plain sums, bounded witness lists and the pair keys of the
    elements whose round trip through the direct inverse failed, all of which
    merge associatively across chunks, plus the size of the chunk's memo.
    """
    nd = num_diffs(n)
    phi0_all = (1 << nd) - 1
    incr_profiles = _increasing_profiles(n)
    rowm = _row_masks(n)
    # phi0 -> _sym_entry(phi0, n); phi0 is the inversion mask of the symmetric
    # component, so there are at most n! keys
    memo: dict[int, Optional[tuple]] = {}

    counts = {
        "elements": 0,
        "sym_fail": 0,
        "incr_fail": 0,
        "support_fail": 0,
        "degree_fail": 0,
        "round_trip": 0,
        "construct_fail": 0,
        "closed_sym_fail": 0,
        "closed_ideal_fail": 0,
    }
    witnesses = {key: _TopK(max_witnesses) for key in counts if key.endswith("_fail")}
    hist = [0] * (n * n + 1)
    failed_keys: set[tuple[tuple[int, ...], int]] = set()

    source = _iter_signed_inversion_masks(n, perm_start=start or 0, perm_stop=stop)

    for word, jmask, mask in source:
        counts["elements"] += 1
        hist[mask.bit_count()] += 1
        element = (word, jmask)

        phi0 = mask & phi0_all
        try:
            entry = memo[phi0]
        except KeyError:
            entry = memo[phi0] = _sym_entry(phi0, n)
        if entry is None:
            counts["sym_fail"] += 1
            witnesses["sym_fail"].offer(element)
            continue
        eta_word, fwd, bwd = entry

        # ideal component: relabel the sum inversions through pi
        ximask = _relabel(mask, fwd, nd)

        profile = incr_profiles.get(ximask)
        if profile is None:
            counts["incr_fail"] += 1
            witnesses["incr_fail"].offer(element)
            continue

        # support identity: relabel the ideal back through rho = pi^-1
        back = _relabel(ximask, bwd, nd)
        if phi0 | back != mask:
            counts["support_fail"] += 1
            witnesses["support_fail"].offer(element)

        if mask.bit_count() != phi0.bit_count() + ximask.bit_count():
            counts["degree_fail"] += 1
            witnesses["degree_fail"].offer(element)

        if _construct_from_pair(eta_word, profile, n) == element:
            counts["round_trip"] += 1
        else:
            counts["construct_fail"] += 1
            witnesses["construct_fail"].offer(element)
            failed_keys.add((eta_word, ximask))

        sym_cf, ideal_cf = _closed_form(word, jmask, rowm)
        if sym_cf != eta_word:
            counts["closed_sym_fail"] += 1
            witnesses["closed_sym_fail"].offer(element)
        if ideal_cf != ximask:
            counts["closed_ideal_fail"] += 1
            witnesses["closed_ideal_fail"].offer(element)

    return {
        "counts": counts,
        "witnesses": {k: w.items for k, w in witnesses.items()},
        "hist": hist,
        "failed_keys": failed_keys,
        "memo_size": len(memo),
    }


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _is_round_trip_key(sigma_word: tuple[int, ...], ximask: int, n: int) -> bool:
    """Whether pair(construct(k)) == k for the pair key k = (sigma_word, ximask)."""
    built = _construct_from_pair(sigma_word, _increasing_profiles(n)[ximask], n)
    if built is None:
        return False
    try:
        return _pair_masks(SignedPerm(_signed_images(*built))) == (sigma_word, ximask)
    except (ValueError, ConsistencyError):  # the recipe built no valid element
        return False


def verify_bijection(
    n: int,
    *,
    workers: int = 1,
    cap: int = DEFAULT_GROUP_CAP,
    max_witnesses: int = 5,
) -> VerificationReport:
    """Exhaustively verify the correspondence over all 2^n n! elements.

    Checks, per element: the symmetric component inverts exactly the
    difference inversions, the ideal component is upward closed, the support
    and degree identities hold, and the direct inverse recipe rebuilds the
    element from its pair.  Globally the round trip certifies the bijection:
    a left inverse on every element makes the pair map injective, and since
    |G| = 2^n n! = |S_n x ideals| it is then onto.  The number of distinct
    pairs is exact even where the recipe fails, and pair-onto compares it
    with the size of the product.  The closed forms read off the standard
    form must equal both components on every element.  Workers are
    capped by the number of permutations and of CPUs this process may run on.
    """
    check_group_cap(n, cap)
    if workers < 1:
        raise ValueError("workers must be >= 1")

    nperms = math.factorial(n)
    workers = min(workers, nperms, _usable_cpus())
    if workers == 1:
        partials = [_scan_chunk(n, None, None, max_witnesses)]
    else:
        import multiprocessing

        step = -(-nperms // workers)
        ranges = [(lo, min(lo + step, nperms)) for lo in range(0, nperms, step)]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(len(ranges)) as pool:
            partials = pool.starmap(
                _scan_chunk, [(n, lo, hi, max_witnesses) for lo, hi in ranges]
            )

    counts = {k: sum(p["counts"][k] for p in partials) for k in partials[0]["counts"]}
    witnesses = {}
    for key in partials[0]["witnesses"]:
        top = _TopK(max_witnesses)
        for p in partials:
            top.merge(p["witnesses"][key])
        witnesses[key] = [_witness_str(*item) for item in top.items]
    hist = [sum(p["hist"][d] for p in partials) for d in range(n * n + 1)]
    # Successful round trips have distinct keys, since the recipe is a
    # function.  A failed element's key k is also the key of a success
    # exactly when pair(construct(k)) == k, so only the other keys are new.
    failed_keys = set().union(*(p["failed_keys"] for p in partials))
    distinct = counts["round_trip"] + sum(
        1 for key in failed_keys if not _is_round_trip_key(*key, n)
    )

    order = group_order(n)
    total = counts["elements"]
    report = VerificationReport(rank=n)
    report.add(
        "pair-injective",
        "the direct inverse recipe is a left inverse of the pair map on every "
        "element, so distinct elements give distinct (permutation, ideal) pairs",
        counts["round_trip"] == total == order,
        {"elements": total, "distinct_pairs": distinct},
    )
    report.add(
        "pair-onto",
        "the pairs exhaust the product: 2^n * n! distinct values",
        distinct == order,
        {"distinct_pairs": distinct, "product_size": order},
    )
    report.add(
        "sym-component-inversions",
        "the difference inversions of every element form the inversion set "
        "of its permutation component",
        counts["sym_fail"] == 0,
        {"failures": counts["sym_fail"], "witnesses": witnesses["sym_fail"]},
    )
    report.add(
        "ideal-component-increasing",
        "the relabeled sum inversions of every element are upward closed",
        counts["incr_fail"] == 0,
        {"failures": counts["incr_fail"], "witnesses": witnesses["incr_fail"]},
    )
    report.add(
        "support-identity",
        "permutation inversions joined with the relabeled ideal recover the "
        "whole inversion set",
        counts["support_fail"] == 0,
        {"failures": counts["support_fail"], "witnesses": witnesses["support_fail"]},
    )
    report.add(
        "degree-additivity",
        "length equals permutation length plus ideal dimension",
        counts["degree_fail"] == 0,
        {"failures": counts["degree_fail"], "witnesses": witnesses["degree_fail"]},
    )
    report.add(
        "constructive-inverse",
        "the direct inverse recipe rebuilds every element from its pair",
        counts["construct_fail"] == 0,
        {"failures": counts["construct_fail"], "witnesses": witnesses["construct_fail"]},
    )
    report.add(
        "closed-form-sym",
        "the word of sigma_0 without the flipped values, followed by the "
        "flipped values in reversed word order, is the symmetric component",
        counts["closed_sym_fail"] == 0,
        {"failures": counts["closed_sym_fail"], "witnesses": witnesses["closed_sym_fail"]},
    )
    report.add(
        "closed-form-ideal",
        "the staircase with row t up to n + t - sigma_0^-1(j_t), the flipped "
        "values j_t in word order, is the ideal component",
        counts["closed_ideal_fail"] == 0,
        {"failures": counts["closed_ideal_fail"], "witnesses": witnesses["closed_ideal_fail"]},
    )
    report.data["elements"] = total
    report.data["distinct_pairs"] = distinct
    report.data["weyl_length_histogram"] = hist[: n * n + 1]
    return report


def trace_element(w: SignedPerm) -> dict:
    """A single-element walkthrough of the correspondence, JSON-friendly."""
    n = w.rank
    inv = RootSet(n, _inversion_mask(w.images, n))
    pair = correspondence_pair(w)
    sf = standard_form(w)
    support = cocycle_support(pair.sym, pair.ideal)
    cf_sym = sym_component_closed_form(sf)
    cf_ideal = ideal_component_closed_form(sf)
    return {
        "element": str(w),
        "length": len(inv),
        "inversion_set": inv.to_strings(),
        "standard_form": {
            "flipped_values": list(sf.j_list),
            "permutation": list(sf.sigma0.images),
        },
        "sym_component": list(pair.sym.images),
        "ideal_component": pair.ideal.members.to_strings(),
        "ideal_profile": list(pair.ideal.profile),
        "ideal_dimension": pair.ideal.dimension,
        "support": support.to_strings(),
        "support_matches_inversions": support.mask == inv.mask,
        "degree_additive": len(inv)
        == len(pair.ideal.members) + len(perm_inversions(pair.sym)),
        "closed_form_sym": list(cf_sym.images),
        "closed_form_sym_agrees": cf_sym == pair.sym,
        "closed_form_ideal": cf_ideal.to_strings(),
        "closed_form_ideal_agrees": cf_ideal.mask == pair.ideal.members.mask,
    }
