"""The benchmark's sweep commands write the bytes they wrote before.

Both `sweep` commands of perfbench/workloads.py run at workload seeds 1
and 2, with the seed the benchmark derives for them. The sha256 digests
of each CSV and of each command's standard output were recorded from
the register-wide success sum that the sweep took before it worked at
the period, so any byte drift in a sweep fails here.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from shornoise.cli import main

ROOT = Path(__file__).resolve().parent.parent

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads  # dataclasses look their module up
_SPEC.loader.exec_module(workloads)

SYSTEMATIC_CSV = "a54329a9181e24b729820b5c929e9343954516f903425ca50941f2715e40c430"
SYSTEMATIC_OUT = "3859b2a7a8977a5c59527e3d6ea061918f3cc0cb7bcbf0e50fe019848046cbeb"
GAUSSIAN_OUT = "9f9bc9760bc352c680ed8561e60dac7c27a61256f9c07cadc7904b4b294965e6"
# (workload seed, command label): (CSV digest, stdout digest)
DIGESTS = {
    (1, "systematic"): (SYSTEMATIC_CSV, SYSTEMATIC_OUT),
    (2, "systematic"): (SYSTEMATIC_CSV, SYSTEMATIC_OUT),
    (1, "gaussian"): (
        "cca3592e167cafaf2e550a47179cfff6d8705a6be7a5dcdbece7cda566e9b542",
        GAUSSIAN_OUT,
    ),
    (2, "gaussian"): (
        "d94f9e708e4936641fb85278ebe38f5a425a7c55737d53464247401388f13e88",
        GAUSSIAN_OUT,
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_sweep_command_is_pinned() -> None:
    labels = {command.label for command in workloads.WORKLOADS["sweep"]}
    assert {label for _, label in DIGESTS} == labels


@pytest.mark.parametrize("workload_seed", [1, 2])
@pytest.mark.parametrize("command", workloads.WORKLOADS["sweep"], ids=lambda c: c.label)
def test_sweep_outputs_are_byte_identical(
    tmp_path, capsys, command, workload_seed
) -> None:
    out = tmp_path / "sweep.csv"
    seed = workloads.command_seed(workload_seed, "sweep")
    assert main([*command.argv, "--seed", str(seed), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert (sha256(out.read_bytes()), sha256(printed.encode())) == DIGESTS[
        workload_seed, command.label
    ]
