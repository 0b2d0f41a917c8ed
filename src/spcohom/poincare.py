"""Integer polynomials and the length generating functions.

Three closed forms drive the counting results here:

  * the length generating function of the signed-permutation group of rank n,
    prod_{i=1..n} (1 + t + ... + t^{2i-1});
  * the inversion generating function of the symmetric group S_n,
    prod_{i=1..n} (1 + t + ... + t^{i-1});
  * their exact quotient prod_{i=1..n} (1 + t^i), which counts upward-closed
    sets (equivalently abelian ideals) by size.

Each is a product of brackets 1 + t^s + ... + t^(s(m-1)), built only by
_bracket_product; the counted histograms come from weyl._size_dp, over set
sizes, once the rows' pieces are checked against the root index.  The
quotient identity is checked as a product, sym * ideal == weyl, by
IntPolynomial.__mul__, the only dense product, so the check shares no code
with the builders, and with no polynomial division: Z[t] is an integral
domain and the S_n form is nonzero, so the product holds exactly when the
quotient is exactly prod (1 + t^i).
"""

import math

from .errors import ConsistencyError
from .report import VerificationReport
from .roots import Frozen, check_cap, check_rank, num_diffs, _set
from .weyl import _bad_pieces, _length_histogram, _row, _size_dp


class IntPolynomial(Frozen):
    """Dense integer polynomial; coeffs[k] is the coefficient of t^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        _set(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs) -> "IntPolynomial":
        c = list(coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if not c:
            c = [0]
        return cls(tuple(c))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.from_coeffs(out)

    def is_palindromic(self) -> bool:
        return self.coeffs == self.coeffs[::-1]


def _bracket_product(pairs) -> IntPolynomial:
    """prod over the pairs (m, s) of 1 + t^s + ... + t^(s(m-1)).  Each factor
    is applied to the coefficients c so far as a running window sum,
    out[d] = c[d] + out[d - s] - c[d - s m], O(degree) per factor."""
    out = [1]
    for m, s in pairs:
        c = out + [0] * (s * (m - 1))
        out = c[:s]
        for d in range(s, len(c)):
            out.append(c[d] + out[d - s] - (c[d - s * m] if d >= s * m else 0))
    return IntPolynomial.from_coeffs(out)


def weyl_poincare(n: int) -> IntPolynomial:
    """Length generating function of the rank-n signed-permutation group."""
    check_rank(n)
    return _bracket_product((2 * i, 1) for i in range(1, n + 1))


def sym_poincare(n: int) -> IntPolynomial:
    """Inversion generating function of S_n."""
    check_rank(n)
    return _bracket_product((i, 1) for i in range(1, n + 1))


def ideal_generating(n: int) -> IntPolynomial:
    """prod_{i=1..n} (1 + t^i).  The histogram-convolution check shows that it
    is the exact quotient of the two length generating functions."""
    check_rank(n)
    return _bracket_product((2, i) for i in range(1, n + 1))


def _refuse_bad_pieces(n: int) -> None:
    """Raise ConsistencyError naming the first piece of weyl._row that differs
    from the root index (weyl._bad_pieces), q = 0 for the base row."""
    bad = _bad_pieces(n)
    if bad:
        v, q, _flipped = bad[0]
        raise ConsistencyError(
            f"the row piece (v, q) = ({v}, {q}) differs from the root index; this indicates a bug"
        )


def weyl_length_histogram(n: int) -> IntPolynomial:
    """Counted length histogram of the whole signed-permutation group, by the
    DP that the scan's batch reads its lengths from (weyl._length_histogram)."""
    check_cap(n, "group enumeration")
    counts = _length_histogram(n)
    if counts is None:
        _refuse_bad_pieces(n)
    return IntPolynomial.from_coeffs(counts)


def sym_inversion_histogram(n: int) -> IntPolynomial:
    """Counted inversion histogram of S_n, by weyl._size_dp over the unflipped
    rows of weyl._row, once its pieces are checked as for the group.  An
    element with no negated value is a plain permutation, and its inversion
    set is the union of its unflipped rows; with the pieces checked, the
    unflipped row of the r-th smallest of m values, the others after it, has
    r - 1 bits, so F(m) = F(m - 1) * sum over r = 1..m of t^(r - 1).  Refuses
    ranks above the group cap before any row."""
    check_cap(n, "group enumeration")
    _refuse_bad_pieces(n)
    width = math.factorial(n).bit_length()
    return IntPolynomial.from_coeffs(
        _size_dp(n, width, num_diffs(n), lambda v, later: (_row(n, v, later)[0],))
    )


def add_betti_record(
    report: VerificationReport,
    betti: list[int] | None,
    skipped_detail: dict | None = None,
) -> None:
    """Add the betti-match record: betti against the type-C length generating
    function of the report's rank, or, when betti is None, a passing record
    whose detail is {"skipped": true} followed by skipped_detail."""
    anchor = "Betti numbers of the nilradical equal the type-C length histogram"
    if betti is None:
        report.add("betti-match", anchor, True, {"skipped": True, **(skipped_detail or {})})
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
) -> IntPolynomial:
    """Add the checks that need no enumeration, sp * ig == wp and all three
    generating functions palindromic, and return the product sp * ig."""
    product = sp * ig
    report.add(
        "histogram-convolution",
        "type-C length histogram is the product of the S_n histogram "
        "and the ideal dimension histogram, so W_C(t)/W_A(t) is exactly prod_i (1 + t^i)",
        product == wp,
        {"product": list(product.coeffs), "weyl": list(wp.coeffs)},
    )
    report.add(
        "palindromic",
        "all three generating functions are palindromic",
        wp.is_palindromic() and sp.is_palindromic() and ig.is_palindromic(),
        None,
    )
    return product


def verify_identities(
    n: int,
    *,
    weyl_hist: IntPolynomial,
    include_betti_record: bool = True,
) -> VerificationReport:
    """Compare the counted histograms with the closed forms and check the
    product identity.  weyl_hist is the group's counted length histogram,
    the bijection scan's or weyl_length_histogram's (the same DP).
    include_betti_record adds a skipped betti-match; add_betti_record is
    where the Betti numbers are compared.
    """
    from .ideals import dimension_histogram

    check_rank(n)
    report = VerificationReport(rank=n)
    wp = weyl_poincare(n)
    sp = sym_poincare(n)
    ig = ideal_generating(n)

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
