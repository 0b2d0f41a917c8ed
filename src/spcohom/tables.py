"""The reports of the five commands with a tabular form: ideals, weyl,
structure, betti and poincare.

Each function here builds one command's report and its CSV rows from the
library calls the command reads, and returns (report, rows).  cli checks the
command's caps before it imports this module, and the commands with no CSV
form (bijection, classes and verify) never load it, so their start-up
compiles none of this.  Each function imports the modules it calls, so one
command compiles only its own.
"""

from itertools import chain
from typing import Iterator

from .report import VerificationReport


def _listing_csv(items: list[dict]) -> Iterator[list]:
    """A nonempty listing as CSV rows: its keys as the header, then one row
    per item, with list fields joined by spaces as in ideals --list."""
    yield list(items[0])
    for item in items:
        yield [" ".join(map(str, v)) if isinstance(v, list) else v for v in item.values()]


def ideals_report(n: int, listing: bool):
    """The dimension histogram of the 2^n ideals, and every ideal when
    listing."""
    from . import ideals

    hist = ideals.dimension_histogram(n)
    data = {"count": sum(hist.coeffs), "histogram": list(hist.coeffs)}
    report = VerificationReport(n, data=data)
    if not listing:
        return report, chain([["dimension", "count"]], enumerate(hist.coeffs))
    data["ideals"] = [
        {"roots": psi.members.to_strings(), "dimension": psi.dimension}
        for psi in ideals.enumerate_increasing(n)
    ]
    rows = ([item["dimension"], " ".join(item["roots"])] for item in data["ideals"])
    return report, chain([["dimension", "members"]], rows)


def weyl_report(n: int, listing: bool):
    """The group order and the counted length histogram, and every element
    with its length and standard form when listing."""
    from . import poincare, weyl

    hist = poincare.weyl_length_histogram(n)
    data = {"order": weyl.group_order(n), "length_histogram": list(hist.coeffs)}
    report = VerificationReport(n, data=data)
    if not listing:
        return report, chain([["length", "count"]], enumerate(hist.coeffs))
    from . import elements

    items = []
    for w in elements.enumerate_group(n):
        sf = elements.standard_form(w)
        items.append(
            {
                "element": str(w),
                "length": elements.length(w),
                "flipped_values": list(sf.j_list),
                "permutation": list(sf.sigma0.images),
            }
        )
    data["elements"] = items
    return report, _listing_csv(items)


def structure_report(n: int):
    """Every nonzero bracket [e_alpha, e_beta] = c e_gamma of the structure
    table, by root indices."""
    from . import liealg
    from .roots import positive_roots

    entries = liealg.structure_table(n).entries
    roots = positive_roots(n)
    rows = [
        [str(roots[a]), str(roots[b]), str(roots[g]), c]
        for (a, b), (g, c) in sorted(entries.items())
    ]
    report = VerificationReport(n, data={"entries": rows})
    return report, chain([["alpha", "beta", "gamma", "c"]], rows)


def betti_report(n: int, per_weight: bool):
    """The Betti numbers with laplacian-scalar and betti-match, and the
    weight blocks when per_weight."""
    from . import ce, poincare

    betti = ce.betti_numbers(n)
    report = VerificationReport(rank=n)
    ce.add_laplacian_record(report)
    poincare.add_betti_record(report, betti)
    hist = poincare.weyl_length_histogram(n)
    data = report.data = {"betti": betti, "class_counts": list(hist.coeffs)}
    if not per_weight:
        return report, chain([["degree", "betti"]], enumerate(betti))
    data["blocks"] = [
        {"degree": p, "weight": list(w), "dimension": dim, "rank_d": rank}
        for p, w, dim, rank in block_summary(n)
    ]
    return report, _listing_csv(data["blocks"])


def block_summary(n: int) -> list[tuple[int, tuple[int, ...], int, int]]:
    """The weight blocks of betti --per-weight, read off ce's weight DP:
    (degree, weight, dimension, rank of d) per nonzero block, sorted; the
    ranks are the forced ones of the Laplacian certificate, 0 on weights with
    c = 0 and r_p = dim_p - r_{p-1} elsewhere.  Each size polynomial is
    unpacked only up to its top degree."""
    from . import ce, weyl
    from .ideals import _coordinates

    out = []
    for key, poly in ce._weight_dp(n, fold=False).items():
        weight = _coordinates(n, key)
        acyclic = ce._c4(n, weight) != 0
        rank = 0
        for p, dim in enumerate(weyl._unpack(poly, n * n, (poly.bit_length() - 1) // (n * n))):
            rank = dim - rank if acyclic else 0
            if dim:
                out.append((p, weight, dim, rank))
    return sorted(out)


def poincare_report(n: int):
    """The three generating functions and the product sym * ideal, with the
    records that need no enumeration."""
    from . import poincare

    wp = poincare.weyl_poincare(n)
    sp = poincare.sym_poincare(n)
    ig = poincare.ideal_generating(n)
    report = VerificationReport(rank=n)
    product = poincare.add_formula_records(report, wp, sp, ig)
    polys = report.data = {
        "weyl_poincare": list(wp.coeffs),
        "sym_poincare": list(sp.coeffs),
        "ideal_generating": list(ig.coeffs),
        "sym_times_ideal": list(product.coeffs),
    }
    width = len(wp.coeffs)
    rows = ([name] + c + [""] * (width - len(c)) for name, c in polys.items())
    header = ["name"] + [f"c{k}" for k in range(width)]
    return report, chain([header], rows)
