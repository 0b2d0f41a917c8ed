"""Command line front end.

Subcommands: ideals, weyl, bijection, structure, betti, classes, poincare,
verify.  JSON is the canonical output (top level {rank, command, checks,
data}); CSV is available for tabular payloads.

Exit codes, one per case; 2, 3 and 130 come with an "error:" message on
stderr, never a traceback, and keep their meaning when stderr cannot be
written:

    0  every check passed
    1  a verification check failed
    2  usage error: bad rank, flag or witness, a cap exceeded, CSV for a
       report, an empty --out, or an --out path or stdout that cannot be
       written
    3  internal error (a bug, not bad input): a ConsistencyError, or any
       other ValueError raised while a command runs
  130  interrupted (Ctrl-C)

All user input is validated, and --witness parsed, in _validate_args before
any work, so inside a command only a RankCapError is a usage error.  That
includes an --out path that is a directory or whose parent is not one; an
--out that still cannot be opened (a permission, say) or a stdout that fails
a write is refused at write time, after the work, with the same message.
Every cap is one entry of roots.CAPS, keyed by the name its message uses, and
every refusal, here or in the library, goes through roots.check_cap, which
reads the entry when it runs: raising a cap means changing that entry alone.
Each command returns one VerificationReport and its CSV rows, and _run alone
writes the report as the document and chooses exit code 1 when one of its
checks failed.

Start-up loads only errors and report.  Each handler imports the modules it
runs, and the writer the one format it writes, so --help compiles no command
module, bijection never compiles ce, liealg or poincare, and verify compiles
ce only at or under the cohomology cap.  A handler checks its caps before
it imports anything but roots, so a refusal compiles no command module.
Every command runs in one process.

Output is deterministic: iteration orders are fixed, nothing is sampled, and
no timing enters a report.  It is written to its destination, the --out file
or stdout, as it is serialized (JSON in joined groups of 4,096 encoder
chunks, CSV through csv.writer), so no command builds its whole output as one
string.  bijection and verify, the two commands perfbench/run.py runs, take
--seed and --workers and read neither, because the harness passes them
(ROADMAP item 4 deletes both); the other commands refuse them, and --workers
below 1 is still refused, as a usage error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, suppress
from itertools import chain, islice
from typing import Iterator, Optional

from .errors import ConsistencyError, InvalidRankError, RankCapError
from .report import VerificationReport


# The commands whose output is a report, which has no tabular form.
NO_CSV = ("bijection", "classes", "verify")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank", type=int, required=True, help="rank n >= 1")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", metavar="PATH", help="write output to a file")
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted and ignored: the scan runs in one process (must be >= 1)",
    )
    scan.add_argument("--seed", type=int, default=0, help="accepted and ignored: no check samples")

    parser = argparse.ArgumentParser(
        prog="spcohom",
        description="Abelian ideals of the Borel of sp(2n) and the cohomology "
        "of its nilradical, verified by exact exhaustive computation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ideals", parents=[common], help="enumerate abelian ideals")
    p.add_argument("--list", dest="list_items", action="store_true")

    p = sub.add_parser("weyl", parents=[common], help="signed-permutation group data")
    p.add_argument("--list", dest="list_items", action="store_true")

    p = sub.add_parser("bijection", parents=[common, scan], help="verify the correspondence")
    p.add_argument("--witness", metavar="ELEM", help="trace one element, e.g. '[2,-1,3]'")

    sub.add_parser("structure", parents=[common], help="structure constants table")

    p = sub.add_parser("betti", parents=[common], help="Betti numbers of the nilradical")
    p.add_argument("--per-weight", dest="per_weight", action="store_true")

    sub.add_parser("classes", parents=[common], help="verify the cohomology basis")
    sub.add_parser("poincare", parents=[common], help="length generating functions")
    sub.add_parser(
        "verify", parents=[common, scan], help="run the full verification suite"
    )
    return parser


def _validate_args(args: argparse.Namespace) -> None:
    """Validate all user input and replace args.witness by the SignedPerm it
    parses to; a ValueError here is a usage error."""
    from .roots import check_cap, check_rank

    if args.out == "":
        raise ValueError("--out needs a file path")
    if args.out is not None:
        from os import path

        if path.isdir(args.out):
            raise ValueError(f"cannot write {args.out}: Is a directory")
        parent = path.dirname(args.out) or "."
        if not path.isdir(parent):
            raise ValueError(f"cannot write {args.out}: {parent} is not a directory")
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    check_rank(args.rank)
    if args.format == "csv" and args.command in NO_CSV:
        raise ValueError(f"command {args.command} has no CSV form")
    if getattr(args, "witness", None) is not None:
        check_cap(args.rank, "witness")
        from .weyl import parse_signed_perm

        witness = parse_signed_perm(args.witness)
        if witness.rank != args.rank:
            raise InvalidRankError(
                f"witness {args.witness} has rank {witness.rank}, expected {args.rank}"
            )
        args.witness = witness


# -- command handlers ---------------------------------------------------------


def _listing_csv(items: list[dict]) -> Iterator[list]:
    """A nonempty listing as CSV rows: its keys as the header, then one row
    per item, with list fields joined by spaces as in ideals --list."""
    yield list(items[0])
    for item in items:
        yield [" ".join(map(str, v)) if isinstance(v, list) else v for v in item.values()]


def _cmd_ideals(args: argparse.Namespace):
    from .roots import check_cap

    n = args.rank
    if args.list_items:
        check_cap(n, "ideals listing")
    check_cap(n, "ideal enumeration")
    from . import ideals

    hist = ideals.dimension_histogram(n)
    data = {"count": sum(hist.coeffs), "histogram": list(hist.coeffs)}
    report = VerificationReport(n, data=data)
    if not args.list_items:
        return report, chain([["dimension", "count"]], enumerate(hist.coeffs))
    data["ideals"] = [
        {"roots": psi.members.to_strings(), "dimension": psi.dimension}
        for psi in ideals.enumerate_increasing(n)
    ]
    rows = ([item["dimension"], " ".join(item["roots"])] for item in data["ideals"])
    return report, chain([["dimension", "members"]], rows)


def _cmd_weyl(args: argparse.Namespace):
    from .roots import check_cap

    n = args.rank
    if args.list_items:
        check_cap(n, "weyl listing")
    check_cap(n, "group enumeration")
    from . import poincare, weyl

    hist = poincare.weyl_length_histogram(n)
    data = {"order": weyl.group_order(n), "length_histogram": list(hist.coeffs)}
    report = VerificationReport(n, data=data)
    if not args.list_items:
        return report, chain([["length", "count"]], enumerate(hist.coeffs))
    elements = []
    for w in weyl.enumerate_group(n):
        sf = weyl.standard_form(w)
        elements.append(
            {
                "element": str(w),
                "length": weyl.length(w),
                "flipped_values": list(sf.j_list),
                "permutation": list(sf.sigma0.images),
            }
        )
    data["elements"] = elements
    return report, _listing_csv(elements)


def _cmd_structure(args: argparse.Namespace):
    from .roots import check_cap, positive_roots

    n = args.rank
    check_cap(n, "structure")
    from . import liealg

    entries = liealg.structure_table(n).entries
    roots = positive_roots(n)
    rows = [
        [str(roots[a]), str(roots[b]), str(roots[g]), c]
        for (a, b), (g, c) in sorted(entries.items())
    ]
    report = VerificationReport(n, data={"entries": rows})
    return report, chain([["alpha", "beta", "gamma", "c"]], rows)


def _cmd_bijection(args: argparse.Namespace):
    from .roots import check_cap

    if args.witness is None:
        check_cap(args.rank, "group enumeration")
    from . import correspondence

    if args.witness is not None:
        return VerificationReport(args.rank, data=correspondence.trace_element(args.witness)), None
    return correspondence.verify_bijection(args.rank), None


def _cmd_betti(args: argparse.Namespace):
    from .roots import check_cap

    n = args.rank
    if args.per_weight:
        check_cap(n, "betti listing")
    check_cap(n, "cohomology")
    from . import ce, poincare

    betti = ce.betti_numbers(n)
    report = VerificationReport(rank=n)
    ce.add_laplacian_record(report)
    poincare.add_betti_record(report, betti)
    hist = poincare.weyl_length_histogram(n)
    data = report.data = {"betti": betti, "class_counts": list(hist.coeffs)}
    if not args.per_weight:
        return report, chain([["degree", "betti"]], enumerate(betti))
    data["blocks"] = [
        {"degree": p, "weight": list(w), "dimension": dim, "rank_d": rank}
        for p, w, dim, rank in ce.block_summary(n)
    ]
    return report, _listing_csv(data["blocks"])


def _cmd_classes(args: argparse.Namespace):
    from .roots import check_cap

    check_cap(args.rank, "cohomology")
    from . import ce

    return ce.verify_cohomology_basis(args.rank), None


def _cmd_poincare(args: argparse.Namespace):
    from .roots import check_cap

    n = args.rank
    check_cap(n, "poincare")
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


def _lie_agreement_record(n: int, report: VerificationReport) -> None:
    """Add lie-vs-combinatorial, a certificate at every rank: the structure
    table's bracket neighbours equal the root-addition pairs, so the two
    ideal predicates agree on all 2^(n^2) subsets.  It costs about 4 ms at
    rank 7 and 5.5 ms at rank 8, building _addable and the structure table
    included."""
    from . import liealg

    mismatches = liealg.neighbor_mismatches(n)
    report.add(
        "lie-vs-combinatorial",
        "matrix-level and root-addition ideal criteria agree",
        mismatches == 0,
        {"mode": "certificate", "subsets_covered": 1 << (n * n), "roots_mismatched": mismatches},
    )


def verify_all(args: argparse.Namespace):
    """The verify command: the consolidated verification suite, in
    dependency order, with no CSV rows.  A rank above the group cap fails
    before the 2^n ideals are listed."""
    from .roots import CAPS, check_cap

    n = args.rank
    check_cap(n, "group enumeration")
    from . import correspondence, ideals, poincare

    report = VerificationReport(rank=n)

    checked, count, faults = ideals.order_certificate(n)
    # as many distinct sets as the certificate decided: no ideal is walked twice
    repeated = {"walked": checked} if checked != count else {}
    report.add(
        "ideal-count",
        "the number of abelian ideals equals 2^rank",
        count == checked == 1 << n,
        {"count": count, "expected": 1 << n, **repeated},
    )
    report.add(
        "increasing-vs-root-addition",
        "a sums-only subset is upward closed exactly when it passes the "
        "root-addition ideal criterion",
        not any(faults.values()),
        {"mode": "certificate", "subsets_checked": checked, **faults},
    )
    _lie_agreement_record(n, report)

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
    return report, None


_HANDLERS = {
    "ideals": _cmd_ideals,
    "weyl": _cmd_weyl,
    "bijection": _cmd_bijection,
    "structure": _cmd_structure,
    "betti": _cmd_betti,
    "classes": _cmd_classes,
    "poincare": _cmd_poincare,
    "verify": verify_all,
}


@contextmanager
def _destination(out: Optional[str]):
    """The --out file, or stdout, written to as the output is serialized and
    flushed before the exit code is chosen.  A stdout that fails a write is
    closed, so that the interpreter's flush at exit does not fail again on
    the bytes still buffered."""
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except OSError:
        with suppress(OSError):
            sys.stdout.close()
        raise


def _error(message: str) -> None:
    """Write message to stderr as one "error:" line.  A stderr that fails the
    write is closed, as _destination closes stdout, so that the exit code
    still names the case and the interpreter's flush at exit does not fail."""
    stderr = sys.stderr
    if stderr is None:  # fd 2 was closed when the interpreter started
        return
    try:
        print(f"error: {message}", file=stderr)
    except OSError:
        with suppress(OSError):
            stderr.close()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        return _run(argv)
    except KeyboardInterrupt:
        _error("interrupted")
        return 130


def _run(argv: Optional[list[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_args(args)
    except ValueError as exc:  # InvalidRankError and RankCapError included
        _error(str(exc))
        return 2
    try:
        report, csv_rows = _HANDLERS[args.command](args)
    except RankCapError as exc:
        _error(str(exc))
        return 2
    except ConsistencyError as exc:
        _error(f"internal consistency error (a bug): {exc}")
        return 3
    except ValueError as exc:
        _error(f"internal error (a bug): {exc}")
        return 3

    try:
        with _destination(args.out) as fh:
            if args.format == "csv":
                import csv

                csv.writer(fh, lineterminator="\n").writerows(csv_rows)
            else:
                import json

                checks, data = report.checks_json(), report.data
                doc = {"rank": args.rank, "command": args.command, "checks": checks, "data": data}
                chunks = json.JSONEncoder(indent=2).iterencode(doc)
                while batch := "".join(islice(chunks, 4096)):
                    fh.write(batch)
                fh.write("\n")
    except OSError as exc:
        _error(f"cannot write {args.out or 'stdout'}: {exc.strerror or exc}")
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
