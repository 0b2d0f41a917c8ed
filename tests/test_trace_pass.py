"""Smoke test of perfbench/trace_pass.py, the benchmark's traced replay.

The replay calls the package by name (ChainComplex, complex_=,
include_betti_record=, weyl_length_histogram, ...), so a rename or deletion
in src/ that it still relies on shows here, not only when the benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--rank", "3", "--workers", "1", "--seed", "0"],
        ["bijection", "--rank", "3", "--workers", "2", "--seed", "0"],
    ],
)
def test_trace_pass_replays_a_workload(tmp_path, argv):
    out = tmp_path / "spans.jsonl"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = ROOT / "perfbench" / "trace_pass.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out", str(out), "--", *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[-1] == {"type": "result", "problems": []}
