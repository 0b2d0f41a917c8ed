"""Command line front end.

Subcommands: ideals, weyl, bijection, structure, betti, classes, poincare,
verify.  JSON is the canonical output (top level {rank, command, checks,
data}); CSV is available for tabular payloads.

Exit codes, one per case; 2, 3 and 130 come with an "error:" message on
stderr, never a traceback:

    0  every check passed
    1  a verification check failed
    2  usage error: bad rank, flag or witness, a cap exceeded, CSV for a
       report, or an --out path or stdout that cannot be written
    3  internal error (a bug, not bad input): a ConsistencyError, or any
       other ValueError raised while a command runs
  130  interrupted (Ctrl-C); the scan's workers ignore the interrupt and
       end with the pool

All user input is parsed and validated in _config_from_args, so inside a
command only a RankCapError is a usage error.

Output is deterministic: iteration orders are fixed, nothing is sampled, and
no timing enters a report.  It is written to its destination, the --out file
or stdout, as it is serialized (JSON in joined groups of 4,096 encoder
chunks, CSV through csv.writer), so no command builds its whole output as one
string.  --seed is accepted and read by nothing, because perfbench/run.py
passes it to every command (ROADMAP item 4 deletes it).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Optional

from . import ce, correspondence, ideals, liealg, poincare, weyl
from .errors import ConsistencyError, InvalidRankError, RankCapError
from .report import VerificationReport
from .roots import check_rank, positive_roots
from .weyl import SignedPerm, parse_signed_perm

# Highest rank whose listing is built, per command (--list, or --per-weight
# for betti).  The listing is held in memory while it is written out, so
# these keep peak RSS under about 1 GB (measurements in CHANGES.md): one rank
# more doubles the ideals, multiplies the elements by 16 and the weight
# blocks by 39 (9,791,868 at rank 6).
LIST_CAPS = {"ideals": 17, "weyl": 7, "betti": 5}

# Highest rank of the structure command.  Its table brackets every pair of
# the n^2 positive root vectors, each with at most 2 nonzero matrix entries,
# so time and the report grow about as n^4: rank 14 takes 0.15 s, 21 MB and a
# 0.26 MB report, rank 20 took 0.45 s and 0.81 MB, rank 24 1.0 s and 1.4 MB.
# Neither time nor memory forces 14; a higher cap is left to a measured need.
STRUCTURE_CAP = 14

# Highest rank of bijection --witness.  The trace lists the inversion set and
# its parts, up to n^2 roots each, so time and memory grow at least as n^2:
# rank 256 takes 0.6 s, 46 MB and a 1.7 MB report, rank 500 took 3.8 s and
# 135 MB.
WITNESS_CAP = 256

# The commands whose output is a report, which has no tabular form.
NO_CSV = ("bijection", "classes", "verify")


@dataclass
class RunConfig:
    rank: int
    fmt: str = "json"
    out: Optional[str] = None
    workers: int = 1
    list_items: bool = False
    per_weight: bool = False
    witness: Optional[SignedPerm] = None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank", type=int, required=True, help="rank n >= 1")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", metavar="PATH", help="write output to a file")
    common.add_argument(
        "--seed", type=int, default=0, help="accepted and ignored: no check samples"
    )
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the exhaustive scan (default 1)",
    )

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

    p = sub.add_parser("bijection", parents=[common, workers], help="verify the correspondence")
    p.add_argument("--witness", metavar="ELEM", help="trace one element, e.g. '[2,-1,3]'")

    sub.add_parser("structure", parents=[common], help="structure constants table")

    p = sub.add_parser("betti", parents=[common], help="Betti numbers of the nilradical")
    p.add_argument("--per-weight", dest="per_weight", action="store_true")

    sub.add_parser("classes", parents=[common], help="verify the cohomology basis")
    sub.add_parser("poincare", parents=[common], help="length generating functions")
    sub.add_parser(
        "verify", parents=[common, workers], help="run the full verification suite"
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Parse and validate all user input; a ValueError here is a usage error."""
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    check_rank(args.rank)
    if args.format == "csv" and args.command in NO_CSV:
        raise ValueError(f"command {args.command} has no CSV form")
    witness = getattr(args, "witness", None)
    if witness is not None:
        if args.rank > WITNESS_CAP:
            raise RankCapError(f"rank {args.rank} exceeds the witness cap {WITNESS_CAP}")
        witness = parse_signed_perm(witness)
        if witness.rank != args.rank:
            raise InvalidRankError(
                f"witness {args.witness} has rank {witness.rank}, expected {args.rank}"
            )
    return RunConfig(
        rank=args.rank,
        fmt=args.format,
        out=args.out,
        workers=workers,
        list_items=getattr(args, "list_items", False),
        per_weight=getattr(args, "per_weight", False),
        witness=witness,
    )


def _structure_rows(n: int) -> list[list]:
    table = liealg.structure_table(n)
    roots = positive_roots(n)
    rows = []
    for (a, b) in sorted(table.entries):
        g, c = table.entries[(a, b)]
        rows.append([str(roots[a]), str(roots[b]), str(roots[g]), c])
    return rows


# -- command handlers ---------------------------------------------------------


def _listing_csv(items: list[dict]) -> Iterator[list]:
    """A nonempty listing as CSV rows: its keys as the header, then one row
    per item, with list fields joined by spaces as in ideals --list."""
    yield list(items[0])
    for item in items:
        yield [" ".join(map(str, v)) if isinstance(v, list) else v for v in item.values()]


def _check_list_cap(command: str, n: int) -> None:
    """Refuse a listing above the command's listing cap, before enumerating."""
    cap = LIST_CAPS[command]
    if n > cap:
        raise RankCapError(f"rank {n} exceeds the {command} listing cap {cap}")


def _cmd_ideals(cfg: RunConfig):
    n = cfg.rank
    if cfg.list_items:
        _check_list_cap("ideals", n)
    hist = ideals.dimension_histogram(n)
    data = {"count": sum(hist.coeffs), "histogram": list(hist.coeffs)}
    if not cfg.list_items:
        return 0, [], data, chain([["dimension", "count"]], enumerate(hist.coeffs))
    data["ideals"] = [
        {"roots": psi.members.to_strings(), "dimension": psi.dimension}
        for psi in ideals.enumerate_increasing(n)
    ]
    rows = ([item["dimension"], " ".join(item["roots"])] for item in data["ideals"])
    return 0, [], data, chain([["dimension", "members"]], rows)


def _cmd_weyl(cfg: RunConfig):
    n = cfg.rank
    if cfg.list_items:
        _check_list_cap("weyl", n)
    hist = poincare.weyl_length_histogram(n)
    data = {"order": weyl.group_order(n), "length_histogram": list(hist.coeffs)}
    if not cfg.list_items:
        return 0, [], data, chain([["length", "count"]], enumerate(hist.coeffs))
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
    return 0, [], data, _listing_csv(elements)


def _cmd_structure(cfg: RunConfig):
    if cfg.rank > STRUCTURE_CAP:
        raise RankCapError(f"rank {cfg.rank} exceeds the structure cap {STRUCTURE_CAP}")
    rows = _structure_rows(cfg.rank)
    return 0, [], {"entries": rows}, chain([["alpha", "beta", "gamma", "c"]], rows)


def _cmd_bijection(cfg: RunConfig):
    if cfg.witness is not None:
        return 0, [], correspondence.trace_element(cfg.witness), None
    report = correspondence.verify_bijection(cfg.rank, workers=cfg.workers)
    return (0 if report.passed else 1), report.checks_json(), report.data, None


def _cmd_betti(cfg: RunConfig):
    n = cfg.rank
    if cfg.per_weight:
        _check_list_cap("betti", n)
    betti = ce.betti_numbers(n)
    report = VerificationReport(rank=n)
    ce.add_laplacian_record(report)
    poincare.add_betti_record(report, betti)
    data = {"betti": betti, "class_counts": list(poincare.weyl_length_histogram(n).coeffs)}
    if cfg.per_weight:
        data["blocks"] = [
            {"degree": p, "weight": list(w), "dimension": dim, "rank_d": rank}
            for p, w, dim, rank in ce.block_summary(n)
        ]
        rows = _listing_csv(data["blocks"])
    else:
        rows = chain([["degree", "betti"]], enumerate(betti))
    return (0 if report.passed else 1), report.checks_json(), data, rows


def _cmd_classes(cfg: RunConfig):
    report = ce.verify_cohomology_basis(cfg.rank)
    return (0 if report.passed else 1), report.checks_json(), report.data, None


def _cmd_poincare(cfg: RunConfig):
    n = cfg.rank
    poincare.check_poincare_cap(n)
    wp = poincare.weyl_poincare(n)
    sp = poincare.sym_poincare(n)
    ig = poincare.ideal_generating(n)
    report = VerificationReport(rank=n)
    poincare.add_formula_records(report, wp, sp, ig)
    passed = {r.check_id: r.passed for r in report.records}
    polys = {
        "weyl_poincare": list(wp.coeffs),
        "sym_poincare": list(sp.coeffs),
        "ideal_generating": list(ig.coeffs),
        "sym_times_ideal": list((sp * ig).coeffs),
    }
    data = {
        **polys,
        "identities": {
            "product": passed["histogram-convolution"],
            "exact_division": passed["exact-division"],
        },
    }
    width = len(wp.coeffs)
    rows = ([name] + c + [""] * (width - len(c)) for name, c in polys.items())
    header = ["name"] + [f"c{k}" for k in range(width)]
    return (0 if report.passed else 1), report.checks_json(), data, chain([header], rows)


def _lie_agreement_record(n: int, report: VerificationReport) -> None:
    """Add lie-vs-combinatorial, a certificate at every rank: the structure
    table's bracket neighbours equal the root-addition pairs, so the two
    ideal predicates agree on all 2^(n^2) subsets.  It costs about 6 ms at
    rank 7 and 9 ms at rank 8, most of it building the structure table."""
    mismatches = liealg.neighbor_mismatches(n)
    report.add(
        "lie-vs-combinatorial",
        "matrix-level and root-addition ideal criteria agree",
        mismatches == 0,
        {"mode": "certificate", "subsets_covered": 1 << (n * n), "roots_mismatched": mismatches},
    )


def verify_all(cfg: RunConfig) -> VerificationReport:
    """The consolidated verification suite, in dependency order.  A rank
    above the group cap fails before the 2^n ideals are listed."""
    n = cfg.rank
    weyl.check_group_cap(n)
    report = VerificationReport(rank=n)

    # distinct member sets, so that an ideal listed twice cannot stand in for another
    count = len({ideal.members.mask for ideal in ideals.enumerate_increasing(n)})
    report.add(
        "ideal-count",
        "the number of abelian ideals equals 2^rank",
        count == 1 << n,
        {"count": count, "expected": 1 << n},
    )

    faults = ideals.order_certificate(n)
    report.add(
        "increasing-vs-root-addition",
        "a sums-only subset is upward closed exactly when it passes the "
        "root-addition ideal criterion",
        not any(faults.values()),
        {"mode": "certificate", "subsets_checked": 1 << n, **faults},
    )
    _lie_agreement_record(n, report)

    brep = correspondence.verify_bijection(n, workers=cfg.workers)
    report.extend(brep, prefix="bijection")

    weyl_hist = poincare.IntPolynomial.from_coeffs(brep.data["weyl_length_histogram"])
    prep = poincare.verify_identities(n, weyl_hist=weyl_hist, include_betti_record=False)
    report.extend(prep, prefix="poincare")

    if n <= ce.DEFAULT_COHOMOLOGY_CAP:
        mrep = ce.verify_cohomology_basis(n, bijection=brep)
        poincare.add_betti_record(report, mrep.data["betti"])
        report.extend(mrep, prefix="classes")
    else:
        skipped = {"cohomology_cap": ce.DEFAULT_COHOMOLOGY_CAP}
        poincare.add_betti_record(report, None, skipped)
        report.add(
            "classes.basis",
            "inversion-set cocycles give a cohomology basis",
            True,
            skipped,
            skipped=True,
        )
    return report


def _cmd_verify(cfg: RunConfig):
    report = verify_all(cfg)
    return (0 if report.passed else 1), report.checks_json(), report.data, None


_HANDLERS = {
    "ideals": _cmd_ideals,
    "weyl": _cmd_weyl,
    "bijection": _cmd_bijection,
    "structure": _cmd_structure,
    "betti": _cmd_betti,
    "classes": _cmd_classes,
    "poincare": _cmd_poincare,
    "verify": _cmd_verify,
}


@contextmanager
def _destination(out: Optional[str]):
    """The --out file, or stdout, written to as the output is serialized and
    flushed before the exit code is chosen.  A stdout that fails a write is
    closed, so that the interpreter's flush at exit does not fail again on
    the bytes still buffered."""
    if out:
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


def main(argv: Optional[list[str]] = None) -> int:
    try:
        return _run(argv)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def _run(argv: Optional[list[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:  # InvalidRankError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code, checks, data, csv_rows = _HANDLERS[args.command](cfg)
    except RankCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"error: internal consistency error (a bug): {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: internal error (a bug): {exc}", file=sys.stderr)
        return 3

    try:
        with _destination(cfg.out) as fh:
            if cfg.fmt == "csv":
                csv.writer(fh, lineterminator="\n").writerows(csv_rows)
            else:
                doc = {"rank": cfg.rank, "command": args.command, "checks": checks, "data": data}
                chunks = json.JSONEncoder(indent=2).iterencode(doc)
                while batch := "".join(islice(chunks, 4096)):
                    fh.write(batch)
                fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {cfg.out or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
