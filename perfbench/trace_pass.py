"""One traced pass over a benchmark workload, through the spcohom public API.

Usage (from the repository root, with src/ on PYTHONPATH):

    python3 perfbench/trace_pass.py --out SPANS.jsonl -- verify --rank 7 --workers 1 --seed 0

The arguments after ``--`` are the workload's CLI arguments.  The pass parses
them with the CLI's own parser, then replays the same work ``spcohom verify``
or ``spcohom bijection`` does, in the same order, as calls into each module's
public functions with a span around each layer.  After the workload's own
calls it makes the reference calls the layer metrics need (the standalone
Gray-code walk, and the serial scan when the workload scans in parallel);
their spans are marked ``ref``.

The spans (id, parent, name, start, end, ref), the exact counts and a final
result record are kept in memory and written as JSON lines to ``--out`` when
the pass ends.  Work done inside forked pool workers is not visible here: a
parallel scan is one span.  The exit code is 0 only when every replayed check
passed and every exact count held.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Spans and counters, kept in memory until the pass ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, ref: bool = False):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "ref": ref,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def weyl_poincare_coeffs(n: int) -> list[int]:
    """prod_{i=1..n} (1 + t + ... + t^(2i-1)), computed independently of the
    package so that it can serve as the reference for Betti numbers and the
    length histogram."""
    coeffs = [1]
    for i in range(1, n + 1):
        out = [0] * (len(coeffs) + 2 * i - 1)
        for k, c in enumerate(coeffs):
            for s in range(2 * i):
                out[k + s] += c
        coeffs = out
    return coeffs


def _oracle(n: int, rng: random.Random) -> tuple[int, int]:
    """The increasing-vs-root-addition oracle over the subsets verify checks:
    all sums-only subsets up to rank 5, else 20,000 seeded samples plus the
    ideals themselves."""
    from spcohom import ideals
    from spcohom.roots import RootSet, num_diffs

    nd = num_diffs(n)
    nphi1 = n * (n + 1) // 2
    if n <= 5:
        locals_iter = range(1 << nphi1)
    else:
        sample = {rng.getrandbits(nphi1) for _ in range(20000)}
        sample.update(psi.members.mask >> nd for psi in ideals.enumerate_increasing(n))
        locals_iter = sorted(sample)
    checked = mismatches = 0
    for local in locals_iter:
        s = RootSet(n, local << nd)
        checked += 1
        if ideals.is_increasing(s) != ideals.is_abelian_ideal_combinatorial(s):
            mismatches += 1
    return checked, mismatches


def _lie_subsets(n: int, rng: random.Random):
    """The subsets verify gives the matrix-level check at rank <= 4: every
    sums-only subset, then 10,000 seeded random subsets with differences."""
    from spcohom.roots import RootSet, num_diffs

    nd = num_diffs(n)
    for local in range(1 << (n * (n + 1) // 2)):
        yield RootSet(n, local << nd)
    for _ in range(10000):
        mask = rng.getrandbits(n * n)
        if nd and not mask & ((1 << nd) - 1):
            mask |= 1 << rng.randrange(nd)
        yield RootSet(n, mask)


def replay(argv: list[str], tr: Tracer) -> list[str]:
    """Run the workload's calls with spans; return the problems found."""
    from spcohom import ce, cli, correspondence, ideals, liealg, poincare
    from spcohom.report import VerificationReport

    with tr.span("cli.parse"):
        args = cli.build_parser().parse_args(argv)
    n, workers = args.rank, args.workers
    order = 2**n * math.factorial(n)
    expected = weyl_poincare_coeffs(n)
    problems = []
    report = VerificationReport(rank=n)

    if args.command == "verify":
        rng = random.Random(args.seed)
        with tr.span("ideals.oracle"):
            checked, mismatches = _oracle(n, rng)
        tr.counters["ideals.subsets_checked"] = checked
        if mismatches:
            problems.append(f"ideals oracle: {mismatches} mismatches")
        if n <= 4:
            with tr.span("liealg.structure"):
                liealg.structure_table(n)
            with tr.span("liealg.lie_check"):
                lie_checked = lie_mismatches = 0
                for s in _lie_subsets(n, rng):
                    lie_checked += 1
                    if ideals.is_abelian_ideal_combinatorial(s) != liealg.is_abelian_ideal_lie(n, s):
                        lie_mismatches += 1
            tr.counters["liealg.lie_subsets_checked"] = lie_checked
            if lie_mismatches:
                problems.append(f"lie oracle: {lie_mismatches} mismatches")

    with tr.span("correspondence.scan_w2" if workers > 1 else "correspondence.scan"):
        brep = correspondence.verify_bijection(n, workers=workers)
    report.extend(brep, prefix="bijection" if args.command == "verify" else None)
    tr.counters["correspondence.elements"] = brep.data["elements"]
    if brep.data["elements"] != order or brep.data["distinct_pairs"] != order:
        problems.append(
            f"scan gave {brep.data['elements']} elements and "
            f"{brep.data['distinct_pairs']} distinct pairs, expected {order}"
        )
    if brep.data["weyl_length_histogram"] != expected:
        problems.append("scan length histogram differs from the product formula")

    if args.command == "verify":
        with tr.span("poincare.identities"):
            prep = poincare.verify_identities(
                n,
                weyl_hist=poincare.IntPolynomial.from_coeffs(brep.data["weyl_length_histogram"]),
                include_betti_record=False,
            )
        report.extend(prep, prefix="poincare")

        allow4 = getattr(args, "allow_rank4_cohomology", False)
        cap = ce.MAX_COHOMOLOGY_RANK if allow4 else ce.DEFAULT_COHOMOLOGY_CAP
        if n <= cap:
            with tr.span("ce.build"):
                cx = ce.ChainComplex(n, cap=cap)
            sizes = [len(basis) for basis in cx.blocks.values()]
            tr.counters["ce.monomials"] = sum(sizes)
            tr.counters["ce.blocks"] = len(sizes)
            tr.counters["ce.largest_block"] = max(sizes)
            if sum(sizes) != 1 << (n * n):
                problems.append(f"complex has {sum(sizes)} monomials, expected {1 << (n * n)}")
            with tr.span("ce.rank"):
                betti = cx.betti()
            if betti != expected:
                problems.append(f"Betti numbers {betti} differ from {expected}")
            with tr.span("ce.classes"):
                mrep = ce.verify_cohomology_basis(n, cap=cap, complex_=cx)
            report.extend(mrep, prefix="classes")

    with tr.span("report.serialize"):
        doc = {"rank": n, "command": args.command, "checks": report.checks_json(), "data": report.data}
        json.dumps(doc, indent=2)
    problems += [f"check {r.check_id} failed" for r in report.records if not r.passed]

    # reference calls: not part of the workload, needed to split its layers
    with tr.span("weyl.walk", ref=True):
        hist = poincare.weyl_length_histogram(n)
    tr.counters["weyl.elements"] = sum(hist.coeffs)
    if list(hist.coeffs) != expected:
        problems.append("walk length histogram differs from the product formula")
    if workers > 1:
        with tr.span("correspondence.scan", ref=True):
            serial = correspondence.verify_bijection(n, workers=1)
        if not serial.passed or serial.data["elements"] != order:
            problems.append("serial reference scan failed")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON-lines file for spans and counts")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    ns = parser.parse_args()
    argv = ns.cli_args[1:] if ns.cli_args[:1] == ["--"] else ns.cli_args
    tr = Tracer()
    problems = replay(argv, tr)
    with open(ns.out, "w", encoding="utf-8") as fh:
        for rec in tr.spans:
            fh.write(json.dumps({"type": "span", **rec}) + "\n")
        for name, value in tr.counters.items():
            fh.write(json.dumps({"type": "count", "name": name, "value": value}) + "\n")
        fh.write(json.dumps({"type": "result", "problems": problems}) + "\n")
    for p in problems:
        print(f"trace pass: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
