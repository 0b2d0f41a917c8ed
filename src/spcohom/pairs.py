"""The correspondence one element at a time: the pair of an element, the
element of a pair, and the single-element trace of bijection --witness.

correspondence_pair(w) is (sym_component(w), ideal_component(w)), read off
w's inversion mask through the scan's tables (correspondence._sym_entry and
the relabel tables); from_pair inverts it with the scan's recipe
(correspondence._construct) and validates the candidate by recomputing its
pair.  The closed forms read both components off the standard form, through
the scan's correspondence._closed_form_entry for this element alone.  The
scan needs none of this on a passing run: only bijection --witness, a failing
scan (_round_trip, for the pair keys of failed round trips) and the tests
load this module.  The scan's tables are read through the correspondence
module, so a table replaced there is the one both the scan and these maps
read.
"""

from typing import Optional, Sequence

from . import correspondence
from .elements import (
    Perm,
    SignedPerm,
    StandardForm,
    perm_inversions,
    standard_form,
    _inversion_mask,
    _signed_images,
)
from .errors import ConsistencyError
from .ideals import IncreasingSet, _profile_from_mask
from .roots import Frozen, RootSet, num_diffs, _set
from .weyl import _perm_inversion_mask


class CorrespondencePair(Frozen):
    """The image of a group element: a plain permutation and an upward-closed set."""

    __slots__ = ("sym", "ideal")

    def __init__(self, sym: Perm, ideal: IncreasingSet):
        _set(self, "sym", sym)
        _set(self, "ideal", ideal)


def _relabel(mask: int, table: Sequence[int], n: int) -> int:
    """Relabel a mask's sums-plus-longs bits through a table; drop its difference bits."""
    return correspondence._apply_relabel(correspondence._relabel_gather(table), mask, n)


def _pair_masks(w: SignedPerm) -> tuple[tuple[int, ...], int, int]:
    """(sym word, ideal mask, inversion mask) for one element."""
    n = w.rank
    mask = _inversion_mask(w.images, n)
    entry = correspondence._sym_entry(mask & ((1 << num_diffs(n)) - 1), n)
    if entry is None:
        raise ConsistencyError(
            f"the short inversions of {w} form no permutation inversion set; "
            "this contradicts the correspondence and indicates a bug"
        )
    word, pi = entry
    return word, _relabel(mask, correspondence._relabel_table(pi, n), n), mask


def sym_component(w: SignedPerm) -> Perm:
    """The unique permutation whose inversion set is the difference part of
    the inversion set of w."""
    return Perm(_pair_masks(w)[0])


def ideal_component(w: SignedPerm) -> IncreasingSet:
    """The sum-type inversions of w, relabeled through the inverse of the
    symmetric component and then reversed; always upward closed."""
    return correspondence_pair(w).ideal


def correspondence_pair(w: SignedPerm) -> CorrespondencePair:
    return _pair_and_mask(w)[0]


def _pair_and_mask(w: SignedPerm) -> tuple[CorrespondencePair, int]:
    """(pair, inversion mask) for one element, the mask evaluated once."""
    n = w.rank
    word, ximask, mask = _pair_masks(w)
    profile = _profile_from_mask(ximask, n)
    if profile is None:
        raise ConsistencyError(
            f"the relabeled sum inversions of {w} are not upward closed; "
            "this contradicts the correspondence and indicates a bug"
        )
    return CorrespondencePair(Perm(word), IncreasingSet(n, RootSet(n, ximask), profile)), mask


def _closed_form_of(sf: StandardForm) -> tuple[tuple[int, ...], int]:
    """(sym word, ideal mask) read off the standard form; builds only this
    element's entry, so tracing one element costs O(n^2) at any rank."""
    word = sf.sigma0.images
    flipped = set(sf.j_list)
    pset = sum(1 << p for p, v in enumerate(word) if v in flipped)
    gather, ideal = correspondence._closed_form_entry(pset, len(word))
    return gather(word), ideal


def sym_component_closed_form(sf: StandardForm) -> Perm:
    """Closed form of the symmetric component: the word of sigma_0 without
    the flipped values, followed by the flipped values in reversed word order."""
    return Perm(_closed_form_of(sf)[0])


def ideal_component_closed_form(sf: StandardForm) -> RootSet:
    """Closed form of the ideal component: row t of the staircase runs from
    the diagonal up to b_t = n + t - sigma_0^-1(j_t), the j's in word order."""
    return RootSet(sf.sigma0.rank, _closed_form_of(sf)[1])


def from_pair(sigma: Perm, psi: IncreasingSet) -> SignedPerm:
    """The unique group element whose correspondence pair is (sigma, psi).

    Builds the candidate with the direct inverse recipe and validates it by
    recomputing its pair.  verify_bijection certifies the recipe on every
    element, so a candidate that fails validation is a bug.
    """
    if sigma.rank != psi.rank:
        raise ValueError("rank mismatch between permutation and ideal")
    w = _round_trip(sigma.images, psi.members.mask, sigma.rank)
    if w is None:
        raise ConsistencyError(
            f"the direct inverse recipe builds no element mapping to ({sigma}, {psi}); "
            "the correspondence is broken"
        )
    return w


def cocycle_support(sigma: Perm, psi: IncreasingSet) -> RootSet:
    """The roots indexing the wedge factors of the cocycle attached to
    (sigma, psi): the inversions of sigma joined with psi relabeled through
    sigma composed with the reversal.  The two parts are disjoint since one
    consists of differences and the other of sums."""
    if sigma.rank != psi.rank:
        raise ValueError("rank mismatch between permutation and ideal")
    n = sigma.rank
    inv = _perm_inversion_mask(sigma.images, n)
    rho = correspondence._rho_table(sigma.images, n)
    return RootSet(n, inv | _relabel(psi.members.mask, rho, n))


def _round_trip(sigma_word: tuple[int, ...], ximask: int, n: int) -> Optional[SignedPerm]:
    """construct(k) for the pair key k = (sigma_word, ximask) when
    pair(construct(k)) == k, else None."""
    built = correspondence._construct(sigma_word, ximask, n)
    if built is None:
        return None
    try:
        w = SignedPerm(_signed_images(*built))
        return w if _pair_masks(w)[:2] == (sigma_word, ximask) else None
    except (ValueError, ConsistencyError):  # the recipe built no valid element
        return None


def trace_element(w: SignedPerm) -> dict:
    """A single-element walkthrough of the correspondence, JSON-friendly."""
    n = w.rank
    pair, mask = _pair_and_mask(w)
    inv = RootSet(n, mask)
    sf = standard_form(w)
    support = cocycle_support(pair.sym, pair.ideal)
    cf_word, cf_mask = _closed_form_of(sf)
    cf_sym, cf_ideal = Perm(cf_word), RootSet(n, cf_mask)
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
