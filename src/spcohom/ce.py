"""The exterior-algebra cochain complex of the nilradical, over exact arithmetic.

A p-cochain is a linear combination of wedge monomials f_{a_1} ^ ... ^ f_{a_p}
indexed by ascending tuples of positive-root indices.  The differential acts
on a generator dual to a root g by

    d f_g = - sum_{a < b, a+b = g} c_{a,b} f_a ^ f_b

with the structure constants taken from the matrix realization, and extends
as an antiderivation.  It preserves the integer weight vector of a monomial
(the sum of its roots), so the complex splits into small blocks.  Block ranks
are computed by sparse elimination modulo a prime and certified exact over Q
weight by weight; the weights that carry cohomology are ranked again by
fraction-free (Bareiss) elimination over the integers (see ChainComplex).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .correspondence import from_pair, _relabel_phi1
from .errors import RankCapError
from .ideals import IncreasingSet, enumerate_increasing
from .liealg import structure_table
from .report import VerificationReport
from .roots import check_rank, positive_roots
from .weyl import (
    Perm,
    SignedPerm,
    group_order,
    _inversion_mask,
    _iter_signed_inversion_masks,
    _perm_inversion_mask,
)

DEFAULT_COHOMOLOGY_CAP = 4
_PRIME = 2**31 - 1


@dataclass(frozen=True)
class Cochain:
    """A homogeneous cochain: sparse map from ascending index tuples to
    nonzero exact coefficients (int or Fraction)."""

    rank: int
    degree: int
    terms: dict[tuple[int, ...], int | Fraction] = field(default_factory=dict)

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
    def monomial(cls, n: int, key: tuple[int, ...], coeff: int | Fraction = 1) -> "Cochain":
        return cls(n, len(key), {tuple(key): coeff})

    @classmethod
    def zero(cls, n: int, degree: int) -> "Cochain":
        return cls(n, degree, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.rank, self.degree) != (other.rank, other.degree):
            raise ValueError("cochain rank/degree mismatch")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return Cochain(self.rank, self.degree, out)

    def scale(self, c: int | Fraction) -> "Cochain":
        return Cochain(self.rank, self.degree, {k: c * v for k, v in self.terms.items()})

    def weight(self) -> tuple[int, ...] | None:
        """The common weight vector of the monomials, None for 0 or mixed."""
        weights = {_subset_weight(self.rank, key) for key in self.terms}
        if len(weights) == 1:
            return next(iter(weights))
        return None


@lru_cache(maxsize=None)
def _root_weights(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(r.coeffs(n) for r in positive_roots(n))


def _subset_weight(n: int, key: tuple[int, ...]) -> tuple[int, ...]:
    weights = _root_weights(n)
    acc = [0] * n
    for b in key:
        w = weights[b]
        for k in range(n):
            acc[k] += w[k]
    return tuple(acc)


@lru_cache(maxsize=None)
def _decompositions(n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each root index g: all (a, b, c) with a < b, [e_a, e_b] = c e_g."""
    table = structure_table(n)
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n * n)]
    for (a, b), (g, c) in table.entries.items():
        if a < b:
            out[g].append((a, b, c))
    return tuple(tuple(sorted(row)) for row in out)


def _d_monomial(n: int, key: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Differential of a single monomial with coefficient 1."""
    dec = _decompositions(n)
    out: dict[tuple[int, ...], int] = {}
    for t, g in enumerate(key):
        rest = key[:t] + key[t + 1 :]
        sign_t = -1 if t & 1 else 1
        for a, b, c in dec[g]:
            ia = bisect_left(rest, a)
            if ia < len(rest) and rest[ia] == a:
                continue
            ib = bisect_left(rest, b)
            if ib < len(rest) and rest[ib] == b:
                continue
            merged = rest[:ia] + (a,) + rest[ia:ib] + (b,) + rest[ib:]
            coeff = -c * sign_t if (ia + ib) % 2 == 0 else c * sign_t
            out[merged] = out.get(merged, 0) + coeff
    return {k: v for k, v in out.items() if v}


def differential(cochain: Cochain) -> Cochain:
    """The antiderivation extension of d to arbitrary cochains; d(d(x)) == 0."""
    n = cochain.rank
    out: dict[tuple[int, ...], int | Fraction] = {}
    for key, coeff in cochain.terms.items():
        for mono, c in _d_monomial(n, key).items():
            out[mono] = out.get(mono, 0) + coeff * c
    return Cochain(n, cochain.degree + 1, out)


def _rank_int(matrix: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            row_r = m[r]
            row_p = m[rank]
            for c2 in range(col, ncols):
                row_r[c2] = (row_r[c2] * pivot - factor * row_p[c2]) // prev
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_mod_p(columns: list[dict[int, int]], prime: int) -> int:
    """Rank over F_prime of the integer matrix with these sparse columns, each
    a {row: coefficient} dict; the entries are reduced modulo prime first."""
    pivots: dict[int, dict[int, int]] = {}
    for column in columns:
        col = {r: v % prime for r, v in column.items() if v % prime}
        while col:
            lead = max(col)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(col[lead], -1, prime)
                pivots[lead] = {r: v * inv % prime for r, v in col.items()}
                break
            f = col[lead]
            for r, v in pivot.items():
                x = (col.get(r, 0) - f * v) % prime
                if x:
                    col[r] = x
                else:
                    del col[r]
    return len(pivots)


class ChainComplex:
    """The whole complex for one rank, split into (degree, weight) blocks.

    Blocks hold ordered monomial bases.  The ranks of d are exact integers,
    computed one weight mu at a time:

    * every block of weight mu is ranked modulo the prime _PRIME by sparse
      elimination on columns built straight from the differential;
    * rank_Q >= rank_Fp for an integer matrix, so H_Q <= H_Fp in every
      degree.  If the weight-mu subcomplex is acyclic mod p in every degree,
      it is acyclic over Q, and then its ranks over Q are forced by the
      dimensions, r_p = dim_p - r_{p-1} from r_{-1} = 0, which are exactly the
      ranks mod p;
    * otherwise every block of weight mu is ranked again over the integers by
      Bareiss elimination on its dense matrix (the exact path), and mu joins
      exact_weights.

    All cohomology sits in the weights rho - w rho (Kostant); at
    p = 2^31 - 1 the exact path takes just those weights (2^n n! of them)
    through rank 4.  Building the full
    monomial list costs 2^(n^2), which is why ranks above the cohomology cap
    are refused.
    """

    def __init__(self, n: int, cap: int = DEFAULT_COHOMOLOGY_CAP):
        check_rank(n)
        if n > cap:
            raise RankCapError(f"rank {n} exceeds the cohomology cap {cap}")
        self.rank = n
        self.blocks: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
        self.position: dict[tuple[int, ...], int] = {}
        self.exact_weights: set[tuple[int, ...]] = set()
        self._ranks: dict[tuple[int, tuple[int, ...]], int] = {}
        n2 = n * n
        for mask in range(1 << n2):
            key = _mask_key(mask)
            block = (len(key), _subset_weight(n, key))
            basis = self.blocks.setdefault(block, [])
            self.position[key] = len(basis)
            basis.append(key)
        self._degrees: dict[tuple[int, ...], list[int]] = {}
        for p, weight in sorted(self.blocks):
            self._degrees.setdefault(weight, []).append(p)

    def matrix(self, block: tuple[int, tuple[int, ...]]) -> list[list[int]]:
        """The dense matrix of d out of a block: rows indexed by the target
        block basis, columns by the source basis."""
        p, weight = block
        source = self.blocks.get(block, [])
        target = self.blocks.get((p + 1, weight), [])
        mat = [[0] * len(source) for _ in range(len(target))]
        for col, key in enumerate(source):
            for mono, c in _d_monomial(self.rank, key).items():
                mat[self.position[mono]][col] = c
        return mat

    def _rank_weight(self, weight: tuple[int, ...]) -> None:
        """Rank d out of every block of one weight, exactly (class docstring)."""
        n, position, prime = self.rank, self.position, _PRIME
        degrees = self._degrees[weight]
        ranks = {
            p: _rank_mod_p(
                [
                    {position[mono]: c for mono, c in _d_monomial(n, key).items()}
                    for key in self.blocks[(p, weight)]
                ],
                prime,
            )
            for p in degrees
        }
        if any(
            len(self.blocks[(p, weight)]) != ranks[p] + ranks.get(p - 1, 0)
            for p in degrees
        ):
            self.exact_weights.add(weight)
            for p in degrees:
                mat = self.matrix((p, weight))
                ranks[p] = _rank_int(mat) if mat and mat[0] else 0
        for p in degrees:
            self._ranks[(p, weight)] = ranks[p]

    def rank_d(self, block: tuple[int, tuple[int, ...]]) -> int:
        if block not in self.blocks:
            return 0
        if block not in self._ranks:
            self._rank_weight(block[1])
        return self._ranks[block]

    def betti(self) -> list[int]:
        n2 = self.rank**2
        dims = [0] * (n2 + 1)
        ranks = [0] * (n2 + 1)
        for (p, _w), basis in self.blocks.items():
            dims[p] += len(basis)
        for block in self.blocks:
            ranks[block[0]] += self.rank_d(block)
        return [
            dims[p] - ranks[p] - (ranks[p - 1] if p else 0)
            for p in range(n2 + 1)
        ]

    def block_summary(self) -> list[tuple[int, tuple[int, ...], int, int]]:
        """(degree, weight, dimension, rank of d) per block, stable order."""
        out = []
        for block in sorted(self.blocks):
            p, w = block
            out.append((p, w, len(self.blocks[block]), self.rank_d(block)))
        return out


def _mask_key(mask: int) -> tuple[int, ...]:
    key = []
    while mask:
        low = mask & -mask
        key.append(low.bit_length() - 1)
        mask ^= low
    return tuple(key)


def betti_numbers(n: int, cap: int = DEFAULT_COHOMOLOGY_CAP) -> list[int]:
    """Exact Betti numbers of the nilradical, degree 0 through n^2."""
    return ChainComplex(n, cap=cap).betti()


def monomial_cocycle(w: SignedPerm) -> Cochain:
    """The wedge of the duals of the inversion set of w, coefficient 1, in
    canonical order; a closed cochain whose class is a cohomology basis
    element."""
    n = w.rank
    return Cochain.monomial(n, _mask_key(_inversion_mask(w.images, n)))


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
    rho = [0] * (n + 1)
    for v in range(1, n + 1):
        rho[v] = sigma.images[n - v]
    relabeled = [
        _mask_key(_relabel_phi1(1 << b, rho, n))[0]
        for b in _mask_key(psi.members.mask)
    ]
    key, sign = _sort_parity(list(factors) + relabeled)
    return Cochain.monomial(n, key, sign)


def verify_cohomology_basis(
    n: int,
    cap: int = DEFAULT_COHOMOLOGY_CAP,
    complex_: ChainComplex | None = None,
) -> VerificationReport:
    """Check that the inversion-set cocycles form a cohomology basis and that
    the pair cocycles reproduce them up to sign.

    Per degree p: every inversion-set monomial is closed; the number with
    |inversions| = p equals the p-th Betti number; and the stacked matrix of
    those monomials next to the image of d has full expected rank, so their
    classes are independent modulo exact cochains.  Finally each pair
    (permutation, ideal) yields a cocycle equal, up to sign, to the
    inversion-set cocycle of the element the pair corresponds to.
    """
    check_rank(n)
    cx = complex_ if complex_ is not None else ChainComplex(n, cap=cap)
    report = VerificationReport(rank=n)
    betti = cx.betti()
    n2 = n * n

    not_closed = 0
    weights_seen: dict[tuple[int, ...], int] = {}
    weight_collisions = 0
    cocycles_by_block: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
    counts = [0] * (n2 + 1)
    order = group_order(n)
    for _word, _jmask, mask in _iter_signed_inversion_masks(n):
        key = _mask_key(mask)
        counts[len(key)] += 1
        if _d_monomial(n, key):
            not_closed += 1
        weight = _subset_weight(n, key)
        if weight in weights_seen:
            weight_collisions += 1
        weights_seen[weight] = weights_seen.get(weight, 0) + 1
        cocycles_by_block.setdefault((len(key), weight), []).append(key)

    report.add(
        "cocycles-closed",
        "every inversion-set wedge monomial is a cocycle",
        not_closed == 0,
        {"not_closed": not_closed, "elements": order},
    )
    report.add(
        "class-count-per-degree",
        "the number of elements of each length equals the Betti number",
        counts == betti,
        {"counts": counts, "betti": betti},
    )

    independence_failures = []
    for block, keys in sorted(cocycles_by_block.items()):
        p, weight = block
        if p == 0:
            continue
        image_rank = cx.rank_d((p - 1, weight))
        rows = [row[:] for row in cx.matrix((p - 1, weight))]
        for key in keys:
            r0 = cx.position[key]
            for r, row in enumerate(rows):
                row.append(1 if r == r0 else 0)
        got = _rank_int(rows) if rows and rows[0] else 0
        if got != image_rank + len(keys):
            independence_failures.append([p, list(weight)])
    report.add(
        "classes-independent",
        "inversion-set cocycles are independent modulo exact cochains, "
        "blockwise by weight",
        not independence_failures,
        {"failed_blocks": independence_failures},
    )

    pair_failures = 0
    degree_failures = 0
    checked_pairs = 0
    ideals = list(enumerate_increasing(n))
    for word in itertools.permutations(range(1, n + 1)):
        sigma = Perm(word)
        sigma_length = _perm_inversion_mask(word, n).bit_count()
        for psi in ideals:
            checked_pairs += 1
            w = from_pair(sigma, psi)
            lc = pair_cocycle(sigma, psi)
            mc = monomial_cocycle(w)
            ((lkey, lcoeff),) = lc.terms.items()
            ((mkey, _mcoeff),) = mc.terms.items()
            if lc.degree != sigma_length + psi.dimension:
                degree_failures += 1
            if lkey != mkey or lcoeff not in (1, -1):
                pair_failures += 1
    report.add(
        "pair-cocycles-match",
        "each pair cocycle equals the inversion-set cocycle of its element, "
        "up to sign",
        pair_failures == 0,
        {"checked": checked_pairs, "mismatches": pair_failures},
    )
    report.add(
        "pair-cocycle-degree",
        "the degree of a pair cocycle is permutation length plus ideal dimension",
        degree_failures == 0,
        {"checked": checked_pairs, "mismatches": degree_failures},
    )

    report.data["betti"] = betti
    report.data["class_counts"] = counts
    report.data["cocycle_weights_all_distinct"] = weight_collisions == 0
    return report
