"""The spcohom benchmark: end-to-end CLI runs, and a traced pass for layers.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-r7 --seed 0 --seconds 30 --trace 0

With ``--trace 0`` each measured run is a fresh ``python3 -m spcohom.cli``
process with tracing off.  Runs repeat while the next one is expected to end
within ``--seconds`` (there is always at least one), and the end-to-end
metrics are their medians.  Set-up time is the median wall time of the same
command with ``--help`` appended, over at least 15 runs spread through the
window.  With
``--trace 1`` each untraced run is followed by one traced pass
(perfbench/trace_pass.py) that replays the workload through the public API
with a span around each layer, and the per-layer metrics are medians over the
passes.

Every run is gated: exit code 0, every check in the report passes, the exact
counts hold (2^n n! elements and distinct pairs, length histogram and Betti
numbers equal to the product formula), and all runs of one invocation print
byte-identical reports.  Each run gets a fresh, empty $SPCOHOM_CACHE under the
checkout that is deleted afterwards, $SPCOHOM_WORKERS is removed from its
environment, and --workers and --seed are always passed.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every run passed its gate, 1 when one did not, and 2 when the benchmark
could not run at all (for example, no src/spcohom in the checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from trace_pass import weyl_poincare_coeffs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_BASE = ROOT / ".perfbench_work"
TRACE_PASS = Path(__file__).resolve().parent / "trace_pass.py"

DEADLINE_S = 170.0  # every child is killed by then, so the benchmark exits within 180 s
HELP_REPS = 15  # at least this many set-up runs
HELP_PER_RUN = 3
RANK4_FLAG = "--allow-rank4-cohomology"

WORKLOADS = {
    "verify-r7": {"argv": ["verify", "--rank", "7", "--workers", "1"], "cohomology": False},
    "bijection-r7-w2": {"argv": ["bijection", "--rank", "7", "--workers", "2"], "cohomology": False},
    "cohom-r4": {"argv": ["verify", "--rank", "4", "--workers", "1"], "cohomology": True},
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "weyl.walk_s": "s",
    "weyl.elements": "count",
    "correspondence.scan_s": "s",
    "correspondence.self_s": "s",
    "correspondence.us_per_element": "us",
    "correspondence.scan_w2_s": "s",
    "correspondence.parallel_efficiency": "ratio",
    "ideals.oracle_s": "s",
    "ideals.subsets_checked": "count",
    "liealg.structure_s": "s",
    "liealg.lie_check_s": "s",
    "liealg.lie_subsets_checked": "count",
    "ce.build_s": "s",
    "ce.monomials": "count",
    "ce.blocks": "count",
    "ce.largest_block": "count",
    "ce.rank_s": "s",
    "ce.classes_s": "s",
    "poincare.identities_s": "s",
    "report.serialize_s": "s",
    "cli.parse_s": "s",
    "bench.trace_overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class ChildRun:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    out: bytes


class Bench:
    """One benchmark invocation: its scratch directory, deadline and tally."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.first_report: bytes | None = None
        self._runs = 0

    def child(self, args: list[str]) -> ChildRun:
        """Run ``python3 *args`` from the checkout root in a fresh cache
        directory; wall, CPU and peak RSS come from wait4 on this child, so
        they cover its pool workers and nothing else."""
        self._runs += 1
        cache = self.work / f"cache-{self._runs}"
        env = dict(os.environ)
        env.pop("SPCOHOM_WORKERS", None)
        env["SPCOHOM_CACHE"] = str(cache)
        env["PYTHONPATH"] = str(SRC)
        out_path = self.work / "stdout"
        err_path = self.work / "stderr"
        try:
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, *args],
                    cwd=ROOT,
                    env=env,
                    stdout=out,
                    stderr=err,
                    start_new_session=True,
                )
                timer = threading.Timer(
                    max(0.0, self.deadline - time.monotonic()), _kill_group, (proc.pid,)
                )
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
                wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            run = ChildRun(
                code=proc.returncode,
                wall=wall,
                cpu=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0,
                out=out_path.read_bytes(),
            )
            if run.code != 0:
                tail = err_path.read_bytes()[-2000:].decode(errors="replace")
                print(f"child {args} exited {run.code}: {tail}", file=sys.stderr)
            return run
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def help(self, args: list[str]) -> ChildRun:
        run = self.child(["-m", "spcohom.cli", *args, "--help"])
        self.gate([] if run.code == 0 else [f"--help exited {run.code}"])
        return run

    def cli(self, argv: list[str], cohomology: bool) -> ChildRun:
        """One gated CLI run; its report must match the first run's byte for byte."""
        run = self.child(["-m", "spcohom.cli", *argv])
        problems = report_problems(run, argv, cohomology)
        if not problems:
            if self.first_report is None:
                self.first_report = run.out
            elif run.out != self.first_report:
                problems.append("report differs from the first run's (not byte-identical)")
        self.gate(problems)
        return run

    def gate(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {p}")

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def report_problems(run: ChildRun, argv: list[str], cohomology: bool) -> list[str]:
    """The correctness gate for one CLI run."""
    if run.code != 0:
        return [f"exit code {run.code}"]
    try:
        doc = json.loads(run.out)
        problems = [f"check {c['id']} failed" for c in doc["checks"] if not c["pass"]]
        data = doc["data"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not a JSON report: {exc!r}"]
    n = int(argv[argv.index("--rank") + 1])
    order = 2**n * math.factorial(n)
    expected = weyl_poincare_coeffs(n)
    prefix = "bijection." if doc["command"] == "verify" else ""
    for key in ("elements", "distinct_pairs"):
        if data.get(prefix + key) != order:
            problems.append(f"{prefix}{key} = {data.get(prefix + key)}, expected {order}")
    if data.get(prefix + "weyl_length_histogram") != expected:
        problems.append("length histogram differs from the product formula")
    if cohomology and data.get("classes.betti") != expected:
        problems.append(f"Betti numbers {data.get('classes.betti')} differ from {expected}")
    return problems


def check_detail(out: bytes, suffix: str) -> dict:
    """The detail of the report's check whose id ends with ``suffix``."""
    try:
        checks = json.loads(out)["checks"]
    except ValueError:
        return {}
    for c in checks:
        if c["id"].endswith(suffix):
            return c["detail"] or {}
    return {}


def workload_command(bench: Bench, spec: dict, seed: int) -> list[str]:
    """The workload's CLI arguments.  The rank-4 opt-in flag is passed only
    while ``verify --help`` still lists it."""
    argv = list(spec["argv"])
    help_run = bench.help(argv[:1])
    if help_run.code != 0:
        raise BenchError("the CLI does not start")
    if spec["cohomology"] and RANK4_FLAG.encode() in help_run.out:
        argv.append(RANK4_FLAG)
    return argv + ["--seed", str(seed)]


def keep_going(bench: Bench, window_start: float, seconds: float, last: float) -> bool:
    """Start another run only if, taking as long as the last, it ends within
    the window, and well before the deadline."""
    elapsed = time.perf_counter() - window_start
    return elapsed + last <= seconds and bench.time_left() > 1.5 * last + 5


def measure_untraced(bench: Bench, argv: list[str], cohomology: bool, seconds: float) -> dict:
    # set-up runs are spread over the window, a few before each measured run
    # and the rest after, so that their median does not hang on one moment
    help_walls: list[float] = []
    runs: list[ChildRun] = []
    start = time.perf_counter()
    while True:
        help_walls += [bench.help(argv).wall for _ in range(HELP_PER_RUN)]
        runs.append(bench.cli(argv, cohomology))
        if not keep_going(bench, start, seconds, runs[-1].wall):
            break
    help_walls += [bench.help(argv).wall for _ in range(HELP_REPS - len(help_walls))]
    print(f"samples: {len(help_walls)} set-up runs, {len(runs)} measured runs")
    for name, values in (("wall_s", [r.wall for r in runs]), ("setup_s", help_walls)):
        print(f"{name}: min {min(values):.4f} max {max(values):.4f}")
    return {
        "setup_s": statistics.median(help_walls),
        "wall_s": statistics.median(r.wall for r in runs),
        "cpu_s": statistics.median(r.cpu for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }


def self_times(spans: list[dict]) -> dict[str, float]:
    """Exclusive time per span name: duration minus the children's."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def traced_pass(bench: Bench, argv: list[str], index: int) -> tuple[ChildRun, list[dict], dict]:
    spans_path = bench.work / f"spans-{index}.jsonl"
    run = bench.child([str(TRACE_PASS), "--out", str(spans_path), "--", *argv])
    spans, counts, problems = [], {}, [f"trace pass exited {run.code}"] if run.code else []
    if spans_path.exists():
        for line in spans_path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if rec["type"] == "span":
                spans.append(rec)
            elif rec["type"] == "count":
                counts[rec["name"]] = rec["value"]
            else:
                problems += [f"trace pass: {p}" for p in rec["problems"]]
    else:
        problems.append("trace pass wrote no spans")
    bench.gate(problems)
    return run, spans, counts


def measure_traced(bench: Bench, argv: list[str], cohomology: bool, seconds: float) -> dict:
    workers = int(argv[argv.index("--workers") + 1])
    cli_runs: list[ChildRun] = []
    per_pass: list[dict[str, float]] = []
    counts: dict = {}
    overheads: list[float] = []
    start = time.perf_counter()
    while True:
        cli_runs.append(bench.cli(argv, cohomology))
        run, spans, counts = traced_pass(bench, argv, len(per_pass))
        per_pass.append(self_times(spans))
        # the traced total, less the reference calls the CLI does not make
        overheads.append(run.wall - sum(s["end"] - s["start"] for s in spans if s["ref"]))
        if not keep_going(bench, start, seconds, cli_runs[-1].wall + run.wall):
            break

    def layer(name: str) -> float:
        return statistics.median(p.get(name, 0.0) for p in per_pass)

    scan, walk, scan_w2 = layer("correspondence.scan"), layer("weyl.walk"), layer("correspondence.scan_w2")
    elements = counts.get("correspondence.elements", 0)
    oracle = check_detail(cli_runs[0].out, "increasing-vs-root-addition")
    lie = check_detail(cli_runs[0].out, "lie-vs-combinatorial")
    subsets = oracle.get("subsets_checked", 0)
    if subsets != counts.get("ideals.subsets_checked", 0):
        print(f"note: the CLI checked {subsets} subsets, the traced pass "
              f"{counts.get('ideals.subsets_checked', 0)}")
    print(f"samples: {len(per_pass)} traced passes; forked pool workers are one span each")
    return {
        "weyl.walk_s": walk,
        "weyl.elements": counts.get("weyl.elements", 0),
        "correspondence.scan_s": scan,
        "correspondence.self_s": scan - walk,
        "correspondence.us_per_element": 1e6 * scan / elements if elements else 0.0,
        "correspondence.scan_w2_s": scan_w2,
        "correspondence.parallel_efficiency": scan / (workers * scan_w2) if scan_w2 else 0.0,
        "ideals.oracle_s": layer("ideals.oracle"),
        "ideals.subsets_checked": subsets,
        "liealg.structure_s": layer("liealg.structure"),
        "liealg.lie_check_s": layer("liealg.lie_check"),
        "liealg.lie_subsets_checked": lie.get("sums_only_subsets", 0) + lie.get("random_subsets", 0),
        "ce.build_s": layer("ce.build"),
        "ce.monomials": counts.get("ce.monomials", 0),
        "ce.blocks": counts.get("ce.blocks", 0),
        "ce.largest_block": counts.get("ce.largest_block", 0),
        "ce.rank_s": layer("ce.rank"),
        "ce.classes_s": layer("ce.classes"),
        "poincare.identities_s": layer("poincare.identities"),
        "report.serialize_s": layer("report.serialize"),
        "cli.parse_s": layer("cli.parse"),
        "bench.trace_overhead_s": statistics.median(overheads)
        - statistics.median(r.wall for r in cli_runs),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="spcohom benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()

    if not (SRC / "spcohom" / "cli.py").is_file():
        print(f"error: no spcohom sources under {SRC}", file=sys.stderr)
        return 2
    spec = WORKLOADS[ns.workload]
    work = WORK_BASE / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(work)
        argv = workload_command(bench, spec, ns.seed)
        print(f"workload {ns.workload}: spcohom {' '.join(argv)}")
        if ns.trace:
            values, units = measure_traced(bench, argv, spec["cohomology"], ns.seconds), PER_LAYER
        else:
            values, units = measure_untraced(bench, argv, spec["cohomology"], ns.seconds), END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_BASE.rmdir()
        except OSError:
            pass  # another invocation is still using it

    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(f"fail_rate {bench.failed / bench.attempted} ({bench.failed}/{bench.attempted} runs)")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
