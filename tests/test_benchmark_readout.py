"""The benchmark's readout commands write the bytes they wrote before.

Every `readout` command of perfbench/workloads.py runs at workload seeds
1 and 2, with the seed the benchmark derives for them. The sha256
digests of each CSV and of each command's standard output were recorded
while the circuit's gate plan and the single direct-sum realization
still drew through per-seed samplers of their own, so any byte drift in
the `direct`, `floor`, `circuit` or `factor` draws fails here.
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

CLOSED_CSV = "379331aeb0f9e980208e74aae0fd6088d448ede280bfadbded824324d1b4bd25"
CLOSED_OUT = "b8132614ac69800cd79915c91a82c371ec01b8f8acc4f5ada5ad30eaf498e181"
DIRECT_OUT = "ce105e6ed655ab0e1427257c63a6441cdf00aa6045435ec4c74d9eb53edb90b8"
CIRCUIT_OUT = "d2c533ed3a1e992e838ed4f5653a33f1a2d1b05539ed5ce9d7f42796c1b0a441"
FACTOR_OUT = "f09fd925c59d4c14689ce6811193e1b2b6b834698c7de448a165ee74570bdf53"
# (workload seed, command label): (CSV digest or None, stdout digest)
DIGESTS = {
    (1, "closed"): (CLOSED_CSV, CLOSED_OUT),
    (2, "closed"): (CLOSED_CSV, CLOSED_OUT),
    (1, "direct"): (
        "d0d4d5e352606635ff22dbfefd7809a8c2854519ecb8eddc0f4b69ed59e8fdcc",
        DIRECT_OUT,
    ),
    (2, "direct"): (
        "1898e78748eb55d5b7176bfe42e2924f868cff9984026215ecf5dc696c8370a6",
        DIRECT_OUT,
    ),
    (1, "floor"): (
        "25b009b6f2fed7c8a7ad293dd684156c41f40808c748de73382172e3b95c475a",
        "de7ca3108e6574c4560153afe52826187bcaaa41f348923e1d62278734b2a88e",
    ),
    (2, "floor"): (
        "1c599afd8124b0811e7d66b585ec2b9e8a6551a6967b8f705ba44f44270fb995",
        "aa389fe24e1e315826016cffd08465b47a2d407e1a2215ebee9cfffb85950d5f",
    ),
    (1, "circuit"): (
        "90aba1c7e3010a866c10169a0178cae8e395e0ea2b1f2b7d0127148f20c408a8",
        CIRCUIT_OUT,
    ),
    (2, "circuit"): (
        "3178c5f506cd9eb5525c6b169c8c363b811867bb43cadebcb9bcc5fd1c295bdb",
        CIRCUIT_OUT,
    ),
    (1, "factor"): (None, FACTOR_OUT),
    (2, "factor"): (None, FACTOR_OUT),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_readout_command_is_pinned() -> None:
    labels = {command.label for command in workloads.WORKLOADS["readout"]}
    assert {label for _, label in DIGESTS} == labels


@pytest.mark.parametrize("workload_seed", [1, 2])
@pytest.mark.parametrize(
    "command", workloads.WORKLOADS["readout"], ids=lambda c: c.label
)
def test_readout_outputs_are_byte_identical(
    tmp_path, capsys, command, workload_seed
) -> None:
    out = tmp_path / "readout.csv"
    seed = workloads.command_seed(workload_seed, "readout")
    argv = [*command.argv, "--seed", str(seed)]
    if command.writes_file:
        argv += ["--out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    written = sha256(out.read_bytes()) if command.writes_file else None
    assert (written, sha256(printed.encode())) == DIGESTS[workload_seed, command.label]
