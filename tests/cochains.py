"""Cochain-level test oracles: sparse cochains, the differential on them, d*
over every decomposition of every root, the inversion set by the action on
the roots, and the inversion-set and pair cocycles.  No command builds any of
these."""

from bisect import bisect_left, insort
from dataclasses import dataclass, field

from spcohom.ce import _d_monomial, _decompositions, _norms
from spcohom.correspondence import _rho_table
from spcohom.ideals import IncreasingSet
from spcohom.roots import _mask_key, num_diffs, positive_roots, root_index
from spcohom.weyl import Perm, SignedPerm, act_on_root, _perm_inversion_mask


@dataclass(frozen=True)
class Cochain:
    """A homogeneous cochain: sparse map from ascending index tuples to
    nonzero integer coefficients."""

    rank: int
    degree: int
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, coeff in self.terms.items():
            if coeff == 0:
                continue
            if len(key) != self.degree:
                raise ValueError(f"monomial {key} does not have degree {self.degree}")
            if list(key) != sorted(set(key)):
                raise ValueError(f"monomial {key} is not strictly ascending")
            clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def monomial(cls, n: int, key: tuple[int, ...], coeff: int = 1) -> "Cochain":
        return cls(n, len(key), {tuple(key): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.rank, self.degree) != (other.rank, other.degree):
            raise ValueError("cochain rank/degree mismatch")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return Cochain(self.rank, self.degree, out)


def differential(cochain: Cochain) -> Cochain:
    """The antiderivation extension of d to arbitrary cochains; d(d(x)) == 0."""
    n = cochain.rank
    out: dict[tuple[int, ...], int] = {}
    for key, coeff in cochain.terms.items():
        for mono, c in _d_monomial(n, key).items():
            out[mono] = out.get(mono, 0) + coeff * c
    return Cochain(n, cochain.degree + 1, out)


def dstar_over_decompositions(n: int, key: tuple[int, ...], scale: int) -> dict:
    """ce.dstar's reference: scale times d* on one monomial, from every
    decomposition (a, b, c) of every root g not in the key, keeping those
    with a and b in the key."""
    dec, norms = _decompositions(n), _norms(n)
    position = {b: t for t, b in enumerate(key)}
    out: dict[tuple[int, ...], int] = {}
    for g, row in enumerate(dec):
        if g in position:
            continue
        for a, b, c in row:
            ta, tb = position.get(a), position.get(b)
            if ta is None or tb is None:
                continue
            rest = tuple(x for x in key if x != a and x != b)
            s = bisect_left(rest, g)
            # iota_a, then iota_b one place lower (a < b), then eps_g at s
            sign = -1 if (ta + tb - 1 + s) & 1 else 1
            coeff = c * norms[g] * (scale // (norms[a] * norms[b]))
            out[rest[:s] + (g,) + rest[s:]] = -sign * coeff
    return out


def action_mask(w: SignedPerm) -> int:
    """The inversion set's reference, from its definition: the bitmask of
    -w(beta) over the positive roots beta with w(beta) negative."""
    index = root_index(w.rank)
    mask = 0
    for beta in positive_roots(w.rank):
        image = act_on_root(w, beta)
        if image.sign < 0:
            mask |= 1 << index[image.root]
    return mask


def monomial_cocycle(w: SignedPerm) -> Cochain:
    """The wedge of the duals of the inversion set of w, coefficient 1, in
    canonical order; a closed cochain whose class is a cohomology basis
    element."""
    return Cochain.monomial(w.rank, _mask_key(action_mask(w)))


def _sort_parity(seq: list[int]) -> tuple[tuple[int, ...], int]:
    """Sort distinct integers, returning the parity of the permutation used."""
    out: list[int] = []
    sign = 1
    for x in seq:
        pos = bisect_left(out, x)
        if (len(out) - pos) & 1:
            sign = -sign
        insort(out, x)
    return tuple(out), sign


def pair_cocycle(sigma: Perm, psi: IncreasingSet) -> Cochain:
    """The cocycle attached to a (permutation, ideal) pair: the wedge of the
    inversion duals of sigma (canonical order) followed by the relabeled
    ideal duals, in the order induced by their originals; the coefficient is
    the parity of sorting all factors into the canonical order."""
    if sigma.rank != psi.rank:
        raise ValueError("rank mismatch between permutation and ideal")
    n = sigma.rank
    factors = _mask_key(_perm_inversion_mask(sigma.images, n))
    nd = num_diffs(n)
    rho = _rho_table(sigma.images, n)
    relabeled = [nd + rho[b - nd] for b in _mask_key(psi.members.mask)]
    key, sign = _sort_parity(list(factors) + relabeled)
    return Cochain.monomial(n, key, sign)
