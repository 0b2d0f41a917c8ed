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

The command line is read from one table, COMMANDS (each command's help line
and flags) and FLAGS (each flag's destination, type, default and help), by
one parse loop, build_parser().parse_args(argv).  It takes the command first
and then --flag VALUE or --flag=VALUE (a switch alone) in any order; a flag
is never abbreviated.  -h or --help anywhere prints that command's usage, or
the command list, to stdout and exits 0 (2, like any output, when stdout
cannot take it).  Every other bad command line (no or an unknown command, no
--rank, a missing or non-integer value, a --format other than json or csv,
another command's flag) raises ValueError, which _run turns into the one
"error:" line and exit 2 of every usage error.  The parser imports nothing:
argparse would load gettext and, at its first message, locale, about 8 ms of
every start-up.

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

This module is the front end alone: the parser, _validate_args, one handler
per command that checks the command's caps and dispatches, and the writer.
The report and CSV rows of ideals, weyl, structure, betti and poincare are
built in the tables module, verify's suite in the suite module, and each
command's checks in the module that computes them.

Start-up loads only errors; report loads with the first module that builds a
report.  Each handler imports the modules it runs, and the writer the one
format it writes, so --help compiles no module but cli and errors; a passing
bijection compiles only roots, weyl and correspondence (no ideals, liealg,
poincare or ce, and no element or pair object: the elements and pairs
modules load only for --witness, weyl --list, a failing scan and the tests);
verify compiles ce only at or under the cohomology cap, no command without a
CSV form compiles tables, and no command but verify compiles suite.  A
handler checks its caps before it imports anything but roots, so a refusal
compiles no command module.  Every command runs in one process.

Output is deterministic: iteration orders are fixed, nothing is sampled, and
no timing enters a report.  It is written to its destination, the --out file
or stdout, as it is serialized (JSON in joined groups of 4,096 encoder
chunks, CSV through csv.writer), so no command builds its whole output as one
string.  bijection and verify, the two commands perfbench/run.py runs, take
--seed and --workers and read neither, because the harness passes them
(ROADMAP item 4 deletes both); the other commands refuse them, and --workers
below 1 is still refused, as a usage error.
"""

import sys
from contextlib import contextmanager, suppress
from itertools import islice
from types import SimpleNamespace
from typing import Optional

from .errors import ConsistencyError, InvalidRankError, RankCapError


# The commands whose output is a report, which has no tabular form.
NO_CSV = ("bijection", "classes", "verify")


# The command line, one table.  COMMANDS: each command's help line and the
# flags it takes.  FLAGS: each flag's destination in the namespace, its type
# (int, str, or bool for a switch, which takes no value), default and help
# line, which names the value first.
COMMANDS = {
    "ideals": ("enumerate abelian ideals", "--rank --format --out --list"),
    "weyl": ("signed-permutation group data", "--rank --format --out --list"),
    "bijection": ("verify the correspondence", "--rank --format --out --workers --seed --witness"),
    "structure": ("structure constants table", "--rank --format --out"),
    "betti": ("Betti numbers of the nilradical", "--rank --format --out --per-weight"),
    "classes": ("verify the cohomology basis", "--rank --format --out"),
    "poincare": ("length generating functions", "--rank --format --out"),
    "verify": ("run the full verification suite", "--rank --format --out --workers --seed"),
}
FLAGS = {
    "--rank": ("rank", int, None, "N: the rank n >= 1, required"),
    "--format": ("format", str, "json", "json or csv (default json)"),
    "--out": ("out", str, None, "PATH: write the output to this file, not stdout"),
    "--workers": ("workers", int, 1, "N: accepted and ignored, must be >= 1"),
    "--seed": ("seed", int, 0, "S: accepted and ignored, no check samples"),
    "--witness": ("witness", str, None, "ELEM: trace one element, e.g. '[2,-1,3]'"),
    "--list": ("list_items", bool, False, "list every ideal, or every group element"),
    "--per-weight": ("per_weight", bool, False, "list every weight block"),
}


class _Parser:
    """The one parse loop, over COMMANDS and FLAGS."""

    def parse_args(self, argv: Optional[list[str]] = None) -> SimpleNamespace:
        """The namespace of argv (sys.argv[1:] when None): the command, which
        comes first, and one attribute per flag it takes, each given as
        --flag VALUE or --flag=VALUE (a switch alone).  -h or --help anywhere
        writes the command's usage, or the command list, to stdout and exits
        0, or raises OSError when stdout refuses it; any other bad command
        line raises ValueError."""
        argv = sys.argv[1:] if argv is None else argv
        command = next(iter(argv), None)
        if "-h" in argv or "--help" in argv:  # the command's flags, or the command list
            if command in COMMANDS:
                rows = {f: FLAGS[f][3] for f in COMMANDS[command][1].split()}
            else:
                command, rows = "COMMAND", {name: COMMANDS[name][0] for name in COMMANDS}
            with _destination(None) as fh:
                fh.write(f"usage: spcohom {command} --rank N [flags] [--help]\n\n")
                fh.writelines(f"  {name:<12} {text}\n" for name, text in rows.items())
            raise SystemExit(0)
        if command not in COMMANDS:
            raise ValueError(f"the first argument must be a command: {', '.join(COMMANDS)}")
        flags = COMMANDS[command][1].split()
        args = SimpleNamespace(command=command, **{FLAGS[f][0]: FLAGS[f][2] for f in flags})
        # --flag=VALUE is read as --flag VALUE, so a switch given a value
        # leaves that value unrecognized
        tokens = (w for t in argv[1:] for w in (t.split("=", 1) if t.startswith("--") else [t]))
        for flag in tokens:
            if flag not in flags:
                raise ValueError(f"unrecognized argument for {command}: {flag}")
            dest, kind, *_ = FLAGS[flag]
            value = True if kind is bool else next(tokens, "--")  # "--": no value left
            if str(value).startswith("--"):
                raise ValueError(f"{flag} needs a value")
            try:
                value = kind(value)  # only int refuses a value
            except ValueError:
                raise ValueError(f"{flag} needs an integer, got {value!r}") from None
            if flag == "--format" and value not in ("json", "csv"):
                raise ValueError(f"--format must be json or csv, got {value!r}")
            setattr(args, dest, value)
        if args.rank is None:
            raise ValueError("--rank is required")
        return args


def build_parser() -> _Parser:
    return _Parser()


def _validate_args(args: SimpleNamespace) -> None:
    """Validate all user input and replace args.witness by the SignedPerm it
    parses to; a ValueError here is a usage error."""
    from .roots import check_cap, check_rank

    out = args.out
    if out == "":
        raise ValueError("--out needs a file path")
    if out is not None:
        from os import path

        if path.isdir(out):
            raise ValueError(f"cannot write {out}: Is a directory")
        parent = path.dirname(out) or "."
        if not path.isdir(parent):
            raise ValueError(f"cannot write {out}: {parent} is not a directory")
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    check_rank(args.rank)
    if args.format == "csv" and args.command in NO_CSV:
        raise ValueError(f"command {args.command} has no CSV form")
    if getattr(args, "witness", None) is not None:
        check_cap(args.rank, "witness")
        from .elements import parse_signed_perm

        witness = parse_signed_perm(args.witness)
        if witness.rank != args.rank:
            raise InvalidRankError(
                f"witness {args.witness} has rank {witness.rank}, expected {args.rank}"
            )
        args.witness = witness


# -- command handlers ---------------------------------------------------------
# Each checks its caps before it imports the module that builds its report,
# and returns (report, CSV rows or None).


def _cmd_ideals(args: SimpleNamespace):
    from .roots import check_cap

    n = args.rank
    if args.list_items:
        check_cap(n, "ideals listing")
    check_cap(n, "ideal enumeration")
    from . import tables

    return tables.ideals_report(n, args.list_items)


def _cmd_weyl(args: SimpleNamespace):
    from .roots import check_cap

    n = args.rank
    if args.list_items:
        check_cap(n, "weyl listing")
    check_cap(n, "group enumeration")
    from . import tables

    return tables.weyl_report(n, args.list_items)


def _cmd_structure(args: SimpleNamespace):
    from .roots import check_cap

    check_cap(args.rank, "structure")
    from . import tables

    return tables.structure_report(args.rank)


def _cmd_bijection(args: SimpleNamespace):
    if args.witness is not None:  # its cap was checked with its parse
        from . import pairs
        from .report import VerificationReport

        return VerificationReport(args.rank, data=pairs.trace_element(args.witness)), None
    from .roots import check_cap

    check_cap(args.rank, "group enumeration")
    from . import correspondence

    return correspondence.verify_bijection(args.rank), None


def _cmd_betti(args: SimpleNamespace):
    from .roots import check_cap

    n = args.rank
    if args.per_weight:
        check_cap(n, "betti listing")
    check_cap(n, "cohomology")
    from . import tables

    return tables.betti_report(n, args.per_weight)


def _cmd_classes(args: SimpleNamespace):
    from .roots import check_cap

    check_cap(args.rank, "cohomology")
    from . import ce

    return ce.verify_cohomology_basis(args.rank), None


def _cmd_poincare(args: SimpleNamespace):
    from .roots import check_cap

    check_cap(args.rank, "poincare")
    from . import tables

    return tables.poincare_report(args.rank)


def _cmd_verify(args: SimpleNamespace):
    from .roots import check_cap

    check_cap(args.rank, "group enumeration")  # before the 2^n ideals are listed
    from .suite import verify_all

    return verify_all(args.rank), None


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
    try:
        args = build_parser().parse_args(argv)
        _validate_args(args)
    except ValueError as exc:  # InvalidRankError and RankCapError included
        _error(str(exc))
        return 2
    except OSError as exc:  # a --help that stdout refuses
        _error(f"cannot write stdout: {exc.strerror or exc}")
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

                doc = {
                    "rank": args.rank,
                    "command": args.command,
                    "checks": report.checks_json(),
                    "data": report.data,
                }
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
