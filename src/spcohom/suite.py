"""The verify command's suite: every certificate of the package in one report.

verify_all adds the order records, the Lie table certificate, the
correspondence scan, the generating-function identities and, at or under the
cohomology cap, the cohomology basis, in dependency order.  cli checks the
group cap before it imports this module, and no other command loads it, so
no other command compiles the orchestration.
"""

from . import correspondence, ideals, liealg, poincare
from .report import VerificationReport
from .roots import CAPS


def verify_all(n: int) -> VerificationReport:
    """The consolidated verification suite at rank n, in dependency order."""
    report = VerificationReport(rank=n)
    ideals.add_order_records(report)
    liealg.add_agreement_record(report)

    brep = correspondence.verify_bijection(n)
    report.extend(brep, prefix="bijection")

    weyl_hist = poincare.IntPolynomial.from_coeffs(brep.data["weyl_length_histogram"])
    prep = poincare.verify_identities(n, weyl_hist=weyl_hist, include_betti_record=False)
    report.extend(prep, prefix="poincare")

    if n <= CAPS["cohomology"]:
        from . import ce

        mrep = ce.verify_cohomology_basis(n, bijection=brep)
        poincare.add_betti_record(report, mrep.data["betti"])
        report.extend(mrep, prefix="classes")
    else:
        cap = {"cohomology_cap": CAPS["cohomology"]}
        poincare.add_betti_record(report, None, cap)
        report.add(
            "classes.basis",
            "inversion-set cocycles give a cohomology basis",
            True,
            {"skipped": True, **cap},
        )
    return report
