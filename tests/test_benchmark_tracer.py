"""The benchmark's tracer runs a sweep, a factoring run and a spectrum unchanged.

perfbench/traced.py wraps every public library function from outside,
runs hooks on some results and sums the cached recovery mask with
Python's sum before writing its trace as JSON, so the mask must stay a
sequence whose sum is a plain int.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWEEP = [
    "sweep", "--N", "15", "--y", "7", "--model", "gaussian",
    "--mag-start", "0", "--mag-stop", "1e-2", "--mag-step", "5e-3",
    "--realizations", "2", "--multiplier-bound", "1",
]
FACTOR = ["factor", "--N", "15", "--y", "7", "--shots", "20", "--seed", "1"]
PREPARED = [
    "spectrum", "--L", "10", "--r", "3", "--l", "1", "--model", "systematic",
    "--delta0", "0.01", "--init-delta", "0.02",
]


def run_traced(
    tmp_path: Path, argv: list[str]
) -> tuple[subprocess.CompletedProcess, dict]:
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace)]
    done = subprocess.run(
        command + argv, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done, json.loads(trace.read_text())


def test_traced_sweep_writes_integer_mask_hits(tmp_path) -> None:
    _, record = run_traced(tmp_path, SWEEP + ["--out", str(tmp_path / "sweep.csv")])
    assert record["exit"] == 0
    hits = record["masks"][0]["hits"]
    assert type(hits) is int
    assert hits == 44
    # One cold mask, built by one call over every outcome.
    assert record["functions"]["numth.recover_orders"][0] == 1


def test_traced_factor_recovers_every_shot_in_one_call(tmp_path) -> None:
    # The tracer hooks any function named numth.recover_order with a
    # scalar comparison, so an array-valued function under that name
    # would fail this run.
    done, record = run_traced(tmp_path, FACTOR)
    assert record["exit"] == 0
    assert done.stdout == "factor: recovered r=4; factors [3, 5]\n"
    assert record["functions"]["numth.recover_orders"][0] == 1


def test_traced_direct_sum_with_preparation_error(tmp_path) -> None:
    # The tracer binds direct_spectrum's arguments by name and reads inst.
    _, record = run_traced(tmp_path, PREPARED + ["--out", str(tmp_path / "s.csv")])
    assert record["exit"] == 0
    assert record["functions"]["spectrum.direct_spectrum"][0] == 1
    assert record["counters"]["spectrum.fft_points"] == 1024
