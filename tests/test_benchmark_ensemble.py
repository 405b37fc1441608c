"""The benchmark's ensemble commands write the bytes they wrote before.

Every `ensemble` command of perfbench/workloads.py runs at workload
seeds 1 and 2, with the seed the benchmark derives for them. The sha256
digests of each mean-spectrum CSV (16,384 or 65,536 rows) and of each
command's standard output were recorded while CSV rows were still
assembled byte by byte through a keep mask, so any drift in the row
writer, the realization draws or the ensemble mean fails here.
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

# (workload seed, command label): (CSV digest, stdout digest)
DIGESTS = {
    (1, "uniform"): (
        "bf446c9f8f153d41fc9abd34018359d0a223e659cacc4192c602a3393827baf6",
        "08c48ebcb4552506f9cc996b11b1b7a8fe32a00f05f2525101b7d7335e80a112",
    ),
    (2, "uniform"): (
        "d3916e715f70d43c806dfc7ddb7162935b1faa293c72b885032aab1ad608d037",
        "9eecc1bb5f2852359e780b750a131b095ff57181644d3d5a0c3430e98bf28766",
    ),
    (1, "gaussian"): (
        "a6f77a6bc19962f68ede49d19828bf227b777b2bed65b7bf55bbdf134d64704f",
        "31b08ee63cf3419dfd63d951f66794be8bb3f013cbe16dcc2187e10622044e23",
    ),
    (2, "gaussian"): (
        "c7520d85e231a3f27c7b449a5b4553920b6e1fba7ec89d261b2e7cffa4e16e5c",
        "50210dff50cad25377235a8d73b993bb6843e0db4d58a2ab31e861e32a639dad",
    ),
    (1, "wide"): (
        "900021fd4e020dd965f6f62c2707ebb85059a775015f8c2a5b649af173ee0915",
        "0cbb48e95071960d8c60de93bbe4a5926cbcaed51785e7a6ff2b9a0a6382b302",
    ),
    (2, "wide"): (
        "dfbab70bcc9f14c503b6a905e4fd1b3febd53de7216771ce0eb15280094a0b91",
        "37116e66a0146f08ff0aa78c7779b20f7d198abb4dda04233448908b83c9b7b5",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_ensemble_command_is_pinned() -> None:
    labels = {command.label for command in workloads.WORKLOADS["ensemble"]}
    assert {label for _, label in DIGESTS} == labels


@pytest.mark.parametrize("workload_seed", [1, 2])
@pytest.mark.parametrize(
    "command", workloads.WORKLOADS["ensemble"], ids=lambda c: c.label
)
def test_ensemble_outputs_are_byte_identical(
    tmp_path, capsys, command, workload_seed
) -> None:
    out = tmp_path / "ensemble.csv"
    seed = workloads.command_seed(workload_seed, "ensemble")
    assert main([*command.argv, "--seed", str(seed), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    written = sha256(out.read_bytes())
    assert (written, sha256(printed.encode())) == DIGESTS[workload_seed, command.label]
