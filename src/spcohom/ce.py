"""The exterior-algebra cochain complex of the nilradical, over the integers.

A p-cochain is a linear combination of wedge monomials f_{a_1} ^ ... ^ f_{a_p}
indexed by ascending tuples of positive-root indices.  The differential acts
on a generator dual to a root g by

    d f_g = - sum_{a < b, a+b = g} c_{a,b} f_a ^ f_b

with the structure constants taken from the matrix realization, and extends
as an antiderivation.  It preserves the integer weight vector of a monomial
(the sum of its roots), so the complex splits into one subcomplex per weight.

The cohomology is certified by Kostant's Laplacian, not by elimination.  Give
the monomials the product metric with |f_a|^2 = 1/|e_a|^2, where
|e_a|^2 = tr(e_a e_a^T) is 2 for e_i +- e_j and 1 for 2e_i, and let d* be the
adjoint of d.  Then L = d d* + d* d acts on the monomials of weight mu as the
scalar c(mu) = (|rho|^2 - |rho - mu|^2) / 4 with rho = (n, ..., 1).  The
laplacian-scalar record checks this on every monomial of degree <= 2, which
proves it on every cochain: d has order 1 and d* order 2 as operators on the
exterior algebra, so L - c has order <= 2 and vanishes once it vanishes in
degrees <= 2 (ROADMAP item 3).  The check stays in integers: d* carries the
ratios |e_g|^2 / (|e_a|^2 |e_b|^2), so dstar and laplacian return N d* and
N L for the lcm N of the denominators, and the record compares 4 N L x with
N 4c(mu) x.  Given the identity:

* a weight with c(mu) != 0 is acyclic over Q (d*/c is a contracting
  homotopy), so its ranks are forced by the dimensions, r_p = dim_p - r_{p-1};
* on a weight with c(mu) = 0, |dx|^2 + |d*x|^2 = <Lx, x> = 0, so d = 0 there
  and the whole weight is cohomology.

Hence b_p = #{S : |S| = p, c(weight of S) = 0}, which _weight_dp counts over
the roots without listing the 2^(n^2) monomials.  ChainComplex lists them and
ranks every block by Bareiss elimination; it is the exact test oracle at ranks
up to its cap, CAPS["cochain-complex"], and no command builds it.

verify_cohomology_basis checks that each inversion-set monomial is harmonic
on the n 2^n rows of weyl._row, not on the group.  Closedness then follows
from laplacian-scalar, distinctness from the bijection scan's pair-injective,
and the count per degree from its histogram.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import lru_cache, partial

from . import weyl
from .correspondence import _MAX_WITNESSES, _witness_str, verify_bijection
from .liealg import root_vector, structure_table
from .report import CheckRecord, VerificationReport
from .roots import CAPS, _mask_key, check_cap, positive_roots

# An alias that only perfbench/trace_pass.py's replay reads; refusals read CAPS.
DEFAULT_COHOMOLOGY_CAP = CAPS["cohomology"]


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


def _c4(n: int, weight: tuple[int, ...]) -> int:
    """4 c(mu) = |rho|^2 - |rho - mu|^2 = sum_k mu_k (2 rho_k - mu_k), with
    rho = (n, ..., 1) in the coordinates of _root_weights."""
    return sum(m * (2 * (n - k) - m) for k, m in enumerate(weight))


@lru_cache(maxsize=None)
def _decompositions(n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each root index g: all (a, b, c) with a < b, [e_a, e_b] = c e_g."""
    table = structure_table(n)
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n * n)]
    for (a, b), (g, c) in table.entries.items():
        if a < b:
            out[g].append((a, b, c))
    return tuple(tuple(sorted(row)) for row in out)


@lru_cache(maxsize=None)
def _norms(n: int) -> tuple[int, ...]:
    """|e_a|^2 = tr(e_a e_a^T) in liealg's realization, per root index."""
    return tuple(sum(v * v for _, v in root_vector(n, r).entries) for r in positive_roots(n))


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


def _dstar_scale(n: int) -> int:
    """N, the lcm of |e_a|^2 |e_b|^2 over the decompositions (a, b, c): the
    least integer that makes N d* integral for any positive norms.  It is 4
    in liealg's realization from rank 2 on."""
    norms = _norms(n)
    return math.lcm(*(norms[a] * norms[b] for row in _decompositions(n) for a, b, _c in row))


def dstar(n: int, key: tuple[int, ...], scale: int) -> dict[tuple[int, ...], int]:
    """scale times the adjoint of d on one monomial with coefficient 1, for a
    scale that is a multiple of _dstar_scale(n).

    With eps_a the wedge f_a ^ - and iota_a its contraction, d is
    -sum c eps_a eps_b iota_g over the decompositions (a, b, c) of g, so
    d* = -sum c |e_g|^2 / (|e_a|^2 |e_b|^2) eps_g iota_b iota_a for the metric
    |f_a|^2 = 1/|e_a|^2.  Only pairs a < b of the key contribute.
    """
    entries, norms = structure_table(n).entries, _norms(n)
    out: dict[tuple[int, ...], int] = {}
    for (ta, a), (tb, b) in itertools.combinations(enumerate(key), 2):
        found = entries.get((a, b))
        if found is None or found[0] in key:
            continue
        g, c = found
        rest = key[:ta] + key[ta + 1 : tb] + key[tb + 1 :]
        s = bisect_left(rest, g)
        # iota_a, then iota_b one place lower (a < b), then eps_g at s
        sign = -1 if (ta + tb - 1 + s) & 1 else 1
        coeff = c * norms[g] * (scale // (norms[a] * norms[b]))
        out[rest[:s] + (g,) + rest[s:]] = -sign * coeff
    return out


def laplacian(n: int, key: tuple[int, ...], scale: int) -> dict[tuple[int, ...], int]:
    """scale times (d d* + d* d) of one monomial with coefficient 1, for a
    scale that dstar accepts."""
    out: dict[tuple[int, ...], int] = {}
    star = partial(dstar, scale=scale)
    for first, second in ((star, _d_monomial), (_d_monomial, star)):
        for mid, c1 in first(n, key).items():
            for mono, c2 in second(n, mid).items():
                out[mono] = out.get(mono, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _root_string(n: int, key: tuple[int, ...]) -> str:
    roots = positive_roots(n)
    return " ^ ".join(str(roots[b]) for b in key) or "1"


def add_laplacian_record(report: VerificationReport) -> CheckRecord:
    """Add and return laplacian-scalar: L = c(mu) Id on every monomial of
    degree <= 2 of the report's rank, which certifies it on every cochain
    (module docstring)."""
    n = report.rank
    scale = _dstar_scale(n)
    checked = 0
    failures = []
    for p in range(3):
        for key in itertools.combinations(range(n * n), p):
            checked += 1
            c4 = _c4(n, _subset_weight(n, key))
            scaled = {k: 4 * v for k, v in laplacian(n, key, scale).items()}
            if scaled != ({key: scale * c4} if c4 else {}):
                failures.append(key)
    return report.add(
        "laplacian-scalar",
        "d d* + d* d acts on every monomial of degree <= 2 as the scalar "
        "(|rho|^2 - |rho - mu|^2)/4 of its weight mu, hence on every cochain",
        not failures,
        {
            "checked": checked,
            "failures": len(failures),
            "witnesses": [_root_string(n, key) for key in failures[:_MAX_WITNESSES]],
        },
    )


def _weight_dp(n: int, fold: bool) -> dict[int, int]:
    """Count the subsets S of the positive roots by weight and size.

    Returns {key: poly}, where poly packs the number of subsets of each size p
    into bits p*n^2 and up (every count is below 2^(n^2)).  Without fold, the
    key packs the weight mu: coordinate k plus n - 1 at bits k*B and up, with
    B bits enough for 3n values (every coordinate of a subset weight lies in
    [-(n-1), 2n]).

    The roots are added in groups by their lowest coordinate, so that
    coordinate k is final once group k is in.  With fold, that coordinate then
    leaves the key, and its term mu_k^2 - 2 rho_k mu_k of
    |rho - mu|^2 - |rho|^2 = -4 c(mu) is added to the part of the key above
    bit n*B.  At the end the key is -4c(mu) shifted there, so key 0 holds the
    harmonic subsets; the live keys stay few (tens of thousands at rank 6,
    against 1.4 million weights).
    """
    width = (3 * n).bit_length()
    top = n * width
    field_mask = (1 << width) - 1
    fw = n * n
    groups: list[list[int]] = [[] for _ in range(n)]
    for w in _root_weights(n):
        low = next(k for k, v in enumerate(w) if v)
        groups[low].append(sum(v << (k * width) for k, v in enumerate(w)))
    states = {sum((n - 1) << (k * width) for k in range(n)): 1}
    for k, deltas in enumerate(groups):
        for delta in deltas:
            grown = dict(states)
            for key, poly in states.items():
                key += delta
                grown[key] = grown.get(key, 0) + (poly << fw)
            states = grown
        if fold:
            shift, rho = k * width, n - k
            folded: dict[int, int] = {}
            for key, poly in states.items():
                v = key >> shift & field_mask
                mu = v - (n - 1)
                key += ((mu * mu - 2 * rho * mu) << top) - (v << shift)
                folded[key] = folded.get(key, 0) + poly
            states = folded
    return states


def betti_numbers(n: int) -> list[int]:
    """Exact Betti numbers of the nilradical, degree 0 through n^2: the
    number of subsets of each size whose weight has c = 0, exact given the
    laplacian-scalar certificate."""
    check_cap(n, "cohomology")
    return weyl._unpack(_weight_dp(n, fold=True).get(0, 0), n * n, n * n)


def block_summary(n: int) -> list[tuple[int, tuple[int, ...], int, int]]:
    """(degree, weight, dimension, rank of d) per nonzero block, sorted; the
    ranks are the forced ones of the Laplacian certificate, 0 on weights with
    c = 0 and r_p = dim_p - r_{p-1} elsewhere."""
    width = (3 * n).bit_length()
    field_mask = (1 << width) - 1
    out = []
    for key, poly in _weight_dp(n, fold=False).items():
        weight = tuple((key >> (k * width) & field_mask) - (n - 1) for k in range(n))
        acyclic = _c4(n, weight) != 0
        rank = 0
        for p, dim in enumerate(weyl._unpack(poly, n * n, n * n)):
            rank = dim - rank if acyclic else 0
            if dim:
                out.append((p, weight, dim, rank))
    return sorted(out)


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


class ChainComplex:
    """The whole complex for one rank, split into (degree, weight) blocks.

    Blocks hold ordered monomial bases, and the rank of d out of each block
    is computed exactly by Bareiss elimination on its dense matrix.  This
    lists all 2^(n^2) monomials, so it is the test oracle for the Laplacian
    certificate, not a runtime path: it refuses ranks above the
    cochain-complex cap.  cap is accepted and ignored, because
    perfbench/trace_pass.py still passes one.
    """

    def __init__(self, n: int, cap: object = None):
        check_cap(n, "cochain-complex")
        self.rank = n
        self.blocks: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
        self.position: dict[tuple[int, ...], int] = {}
        self._ranks: dict[tuple[int, tuple[int, ...]], int] = {}
        for mask in range(1 << (n * n)):
            key = _mask_key(mask)
            block = (len(key), _subset_weight(n, key))
            basis = self.blocks.setdefault(block, [])
            self.position[key] = len(basis)
            basis.append(key)

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

    def rank_d(self, block: tuple[int, tuple[int, ...]]) -> int:
        if block not in self.blocks:
            return 0
        if block not in self._ranks:
            mat = self.matrix(block)
            self._ranks[block] = _rank_int(mat) if mat and mat[0] else 0
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


def _unharmonic_rows(n: int) -> tuple[int, list[str]]:
    """(read, witnesses): the number of rows of weyl._row read (value v, later
    set L, B = L below v), and a witness for each row unequal to its table or
    not weighing -|B| at v unflipped, 2 + 2|L| - |B| flipped, and 1 at each q
    in B.  Rows equal to the tables are disjoint, so an element weighs
    rho - mu', mu'_v = +-(|L_v| + 1) a signed permutation of rho."""
    tables, values = weyl._row_tables(n), range(1, n + 1)
    read, failing = 0, []
    for v in values:
        for later in range(1 << n):
            after = [q for q in values if later >> (q - 1) & 1]
            if v in after:
                continue
            below = sum(q < v for q in after)
            word = (*(q for q in values if q != v and q not in after), v, *after)
            local = [int(q < v and q in after) for q in values]
            for flipped, row in enumerate(weyl._row(n, v, later)):
                read += 1
                local[v - 1] = 2 + 2 * len(after) - below if flipped else -below
                table = tables[flipped][v][later]
                if row != table or _subset_weight(n, _mask_key(row)) != tuple(local):
                    failing.append(_witness_str(word, flipped << (v - 1)))
    return read, failing


def verify_cohomology_basis(
    n: int,
    cap: object = None,
    complex_: object = None,
    *,
    bijection: VerificationReport | None = None,
) -> VerificationReport:
    """Check that the inversion-set cocycles form a cohomology basis and that
    the pair cocycles reproduce them up to sign.

    The one fact checked only here, on the rows (_unharmonic_rows), is that
    every inversion-set monomial is harmonic, c(weight) = 0.  The other
    records follow from it and from facts already certified:

    * cocycles-closed: c = 0 gives dx = 0 once laplacian-scalar holds;
    * classes-independent: harmonic monomials are closed and orthogonal to
      the image of d and to each other, so their classes are independent when
      no two are equal.  The scan's pair key is a function of the inversion
      mask, so pair-injective, a left inverse on the keys, makes w -> mask
      injective;
    * class-count-per-degree: the scan's length histogram against the Betti
      numbers.

    The scan is the report of verify_bijection(n), passed as bijection by a
    caller that has already scanned the group, else run here.  pair-injective
    and pair-onto make the pair map a bijection whose inverse is from_pair's
    recipe, and sym-component-inversions makes phi0 = inv(sigma).  So the pair
    cocycle of every (sigma, psi), whose sign is +-1 by construction, is its
    element's cocycle exactly when support-identity holds on every element,
    and has degree |inv(sigma)| + dim psi exactly when degree-additivity does.
    Each pair record passes when its source check and those three pass.

    cap and complex_ are accepted and ignored: perfbench/trace_pass.py still
    passes the cap it compared the rank with and the ChainComplex it timed,
    until ROADMAP item 4 replaces that replay.
    """
    check_cap(n, "cohomology")
    report = VerificationReport(rank=n)
    laplacian_ok = add_laplacian_record(report).passed
    betti = betti_numbers(n)
    if bijection is None:
        bijection = verify_bijection(n)
    scan = {r.check_id: r for r in bijection.records}

    read, failing = _unharmonic_rows(n)
    witnesses = failing[:_MAX_WITNESSES]

    report.add(
        "cocycles-closed",
        "every inversion-set wedge monomial is a cocycle",
        laplacian_ok and not failing,
        {
            "rows": read,
            "not_harmonic": len(failing),
            "laplacian_scalar": laplacian_ok,
        },
    )
    counts = bijection.data["weyl_length_histogram"]
    report.add(
        "class-count-per-degree",
        "the number of elements of each length equals the Betti number",
        counts == betti,
        {"counts": counts, "betti": betti},
    )
    injective = scan["pair-injective"].passed
    report.add(
        "classes-independent",
        "inversion-set cocycles are distinct harmonic monomials, c(weight) = 0, "
        "so their classes are independent",
        not failing and injective,
        {"not_harmonic": len(failing), "pair_injective": injective, "witnesses": witnesses},
    )

    bijective = all(
        scan[c].passed for c in ("pair-injective", "pair-onto", "sym-component-inversions")
    )
    for check_id, source, anchor in (
        (
            "pair-cocycles-match",
            "support-identity",
            "each pair cocycle equals the inversion-set cocycle of its element, up to sign",
        ),
        (
            "pair-cocycle-degree",
            "degree-additivity",
            "the degree of a pair cocycle is permutation length plus ideal dimension",
        ),
    ):
        report.add(
            check_id,
            anchor,
            bijective and scan[source].passed,
            {"checked": bijection.data["elements"], "mismatches": scan[source].detail["failures"]},
        )

    report.data["betti"] = betti
    report.data["class_counts"] = counts
    return report
