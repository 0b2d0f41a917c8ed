"""Integer polynomials and the length generating functions.

Three closed forms drive the counting results here:

  * the length generating function of the signed-permutation group of rank n,
    prod_{i=1..n} (1 + t + ... + t^{2i-1});
  * the inversion generating function of the symmetric group S_n,
    prod_{i=1..n} (1 + t + ... + t^{i-1});
  * their exact quotient prod_{i=1..n} (1 + t^i), which counts upward-closed
    sets (equivalently abelian ideals) by size.

Division is exact-or-fault: a nonzero remainder would falsify the quotient
identity, so it raises instead of truncating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ConsistencyError, RankCapError
from .report import VerificationReport
from .roots import check_rank
from .weyl import check_group_cap, _length_histogram, _perm_inversion_mask

# Highest rank of the poincare command.  Its polynomials have degree n^2 and
# coefficients up to 2^n n!: rank 64 takes 1.5 s, 23 MB and a 1.9 MB report,
# rank 100 took 11 s.
POINCARE_CAP = 64


@dataclass(frozen=True, slots=True)
class IntPolynomial:
    """Dense integer polynomial; coeffs[k] is the coefficient of t^k."""

    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, coeffs) -> "IntPolynomial":
        c = list(coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if not c:
            c = [0]
        return cls(tuple(c))

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def geometric(cls, m: int) -> "IntPolynomial":
        """1 + t + ... + t^(m-1)."""
        return cls((1,) * m)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.from_coeffs(out)

    def div_exact(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact polynomial division; raises ConsistencyError on any remainder."""
        if other.coeffs == (0,):
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            raise ConsistencyError(f"{self} is not divisible by {other}")
        lead = other.coeffs[-1]
        quot = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1]
            if c % lead:
                raise ConsistencyError(f"{self} is not divisible by {other}")
            q = c // lead
            quot[k] = q
            if q:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= q * b
        if any(rem):
            raise ConsistencyError(f"{self} is not divisible by {other}")
        return IntPolynomial.from_coeffs(quot)

    def is_palindromic(self) -> bool:
        return self.coeffs == self.coeffs[::-1]

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0 and len(self.coeffs) > 1:
                continue
            term = "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
            parts.append(str(c) if k == 0 else (term if c == 1 else f"{c}*{term}"))
        return " + ".join(parts)


def check_poincare_cap(n: int) -> None:
    """Refuse the generating functions above rank POINCARE_CAP."""
    check_rank(n)
    if n > POINCARE_CAP:
        raise RankCapError(f"rank {n} exceeds the poincare cap {POINCARE_CAP}")


def weyl_poincare(n: int) -> IntPolynomial:
    """Length generating function of the rank-n signed-permutation group."""
    check_rank(n)
    poly = IntPolynomial.one()
    for i in range(1, n + 1):
        poly = poly * IntPolynomial.geometric(2 * i)
    return poly


def sym_poincare(n: int) -> IntPolynomial:
    """Inversion generating function of S_n."""
    check_rank(n)
    poly = IntPolynomial.one()
    for i in range(1, n + 1):
        poly = poly * IntPolynomial.geometric(i)
    return poly


def ideal_generating(n: int) -> IntPolynomial:
    """prod_{i=1..n} (1 + t^i).  The exact-division check compares it with the
    quotient of the two length generating functions."""
    check_rank(n)
    poly = IntPolynomial.one()
    for i in range(1, n + 1):
        poly = poly * IntPolynomial.from_coeffs([1] + [0] * (i - 1) + [1])
    return poly


def weyl_length_histogram(n: int) -> IntPolynomial:
    """Counted length histogram of the whole signed-permutation group, by the
    DP over suffix sets that the scan's batch uses (weyl._length_histogram)."""
    check_group_cap(n)
    counts = _length_histogram(n)
    if counts is None:
        raise ConsistencyError(
            "a row differs from its table or lies off its root pairs; this indicates a bug"
        )
    return IntPolynomial.from_coeffs(counts)


def sym_inversion_histogram(n: int) -> IntPolynomial:
    """Enumerated inversion histogram of S_n, by the map the Lehmer decoder
    checks against.  Refuses ranks above the group cap, before any permutation."""
    check_group_cap(n)
    counts = [0] * (n * (n - 1) // 2 + 1)
    for word in itertools.permutations(range(1, n + 1)):
        counts[_perm_inversion_mask(word, n).bit_count()] += 1
    return IntPolynomial.from_coeffs(counts)


def add_betti_record(
    report: VerificationReport,
    betti: list[int] | None,
    skipped_detail: dict | None = None,
) -> None:
    """Add the betti-match record: betti against the type-C length generating
    function of the report's rank, or, when betti is None, a skipped record
    carrying skipped_detail."""
    anchor = "Betti numbers of the nilradical equal the type-C length histogram"
    if betti is None:
        report.add("betti-match", anchor, True, skipped_detail, skipped=True)
        return
    formula = list(weyl_poincare(report.rank).coeffs)
    report.add(
        "betti-match",
        anchor,
        list(betti) == formula,
        {"betti": list(betti), "formula": formula},
    )


def add_formula_records(
    report: VerificationReport,
    wp: IntPolynomial,
    sp: IntPolynomial,
    ig: IntPolynomial,
) -> None:
    """Add the checks that need no enumeration: sp * ig == wp, wp / sp == ig
    exactly, and all three generating functions palindromic."""
    product = sp * ig
    report.add(
        "histogram-convolution",
        "type-C length histogram is the product of the S_n histogram "
        "and the ideal dimension histogram",
        product == wp,
        {"product": list(product.coeffs), "weyl": list(wp.coeffs)},
    )

    try:
        quotient = wp.div_exact(sp)
        division_ok = quotient == ig
        division_detail = {"quotient": list(quotient.coeffs)}
    except ConsistencyError as exc:
        division_ok = False
        division_detail = {"error": str(exc)}
    report.add(
        "exact-division",
        "the quotient of the two length generating functions is exactly prod_i (1 + t^i)",
        division_ok,
        division_detail,
    )

    report.add(
        "palindromic",
        "all three generating functions are palindromic",
        wp.is_palindromic() and sp.is_palindromic() and ig.is_palindromic(),
        None,
    )


def verify_identities(
    n: int,
    *,
    weyl_hist: IntPolynomial | None = None,
    include_betti_record: bool = True,
) -> VerificationReport:
    """Compare the enumerated histograms with the closed forms and check the
    product/quotient identities.  A precomputed weyl_hist (e.g. from the
    bijection scan, which walks the same elements anyway) avoids a second
    group enumeration.  include_betti_record adds a skipped betti-match;
    add_betti_record is where the Betti numbers are compared.
    """
    from .ideals import dimension_histogram

    check_rank(n)
    report = VerificationReport(rank=n)
    wp = weyl_poincare(n)
    sp = sym_poincare(n)
    ig = ideal_generating(n)

    if weyl_hist is None:
        weyl_hist = weyl_length_histogram(n)
    report.add(
        "weyl-length-histogram",
        "enumerated signed-permutation length histogram equals the closed product form",
        weyl_hist == wp,
        {"enumerated": list(weyl_hist.coeffs), "formula": list(wp.coeffs)},
    )

    sym_hist = sym_inversion_histogram(n)
    report.add(
        "sym-inversion-histogram",
        "enumerated S_n inversion histogram equals the closed product form",
        sym_hist == sp,
        {"enumerated": list(sym_hist.coeffs), "formula": list(sp.coeffs)},
    )

    ideal_hist = dimension_histogram(n)
    report.add(
        "ideal-dimension-histogram",
        "enumerated ideal dimension histogram equals prod_i (1 + t^i)",
        ideal_hist == ig,
        {"enumerated": list(ideal_hist.coeffs), "formula": list(ig.coeffs)},
    )

    add_formula_records(report, wp, sp, ig)
    if include_betti_record:
        add_betti_record(report, None)

    report.data["weyl_poincare"] = list(wp.coeffs)
    report.data["sym_poincare"] = list(sp.coeffs)
    report.data["ideal_generating"] = list(ig.coeffs)
    return report
