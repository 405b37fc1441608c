"""The benchmark's tracer runs a sweep on this package unchanged.

perfbench/traced.py wraps the library from outside and sums the cached
recovery mask with Python's sum before writing its trace as JSON, so the
mask must stay a sequence whose sum is a plain int.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_sweep_writes_integer_mask_hits(tmp_path) -> None:
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [
        sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace),
        "sweep", "--N", "15", "--y", "7", "--model", "gaussian",
        "--mag-start", "0", "--mag-stop", "1e-2", "--mag-step", "5e-3",
        "--realizations", "2", "--multiplier-bound", "1",
        "--out", str(tmp_path / "sweep.csv"),
    ]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    record = json.loads(trace.read_text())
    assert record["exit"] == 0
    hits = record["masks"][0]["hits"]
    assert type(hits) is int
    assert hits == 44
