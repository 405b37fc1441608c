"""The benchmark's workloads: fixed shornoise CLI invocations.

Every command gets `--seed` derived from the workload seed (one seed per
workload, so the gaussian `spectrum` and `circuit` commands of `readout`
see the same seed and their route-vs-route distance is comparable across
runs). Commands that write a file get `--out`.

Each command names the output checks that apply to it (see checks.py).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    checks: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def writes_file(self) -> bool:
        return self.subcommand != "factor"

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]


def _cmd(label: str, line: str, *checks: str) -> Command:
    return Command(label, tuple(line.split()), checks)


WORKLOADS: dict[str, tuple[Command, ...]] = {
    # All three routes at full register size (q = 262,144), one
    # realization each, a 262,144-row CSV per spectrum, peak_report on a
    # clean and on a scrambled spectrum (~49k noise-floor peaks). No
    # recovery mask and little PRNG work, so it isolates qcircuit,
    # spectrum and output changes from errmodel and experiment changes.
    "readout": (
        _cmd(
            "closed",
            "spectrum --L 18 --r 5 --l 3 --model systematic --delta0 1e-5",
            "spectrum_csv",
            "closed_form",
        ),
        _cmd(
            "direct",
            "spectrum --L 18 --r 5 --l 3 --model gaussian --sigma 3e-6",
            "spectrum_csv",
        ),
        _cmd(
            "floor",
            "spectrum --L 18 --r 4 --model uniform --smax 1e-3",
            "spectrum_csv",
        ),
        _cmd(
            "circuit",
            "circuit --L 18 --r 5 --l 3 --model gaussian --sigma 3e-6",
            "spectrum_csv",
            "unit_sum",
        ),
        _cmd("factor", "factor --N 221 --y 2 --shots 100", "factors_13_17"),
    ),
    # The realization loop dominates: scalar PRNG draws in the first two,
    # assembly plus a 65,536-point FFT per realization in the r=97 one.
    # No circuit, no recovery mask, small CSVs.
    "ensemble": (
        _cmd(
            "uniform",
            "ensemble --L 14 --r 5 --l 3 --model uniform --smax 3e-4 "
            "--realizations 200",
            "spectrum_csv",
        ),
        _cmd(
            "gaussian",
            "ensemble --L 14 --r 5 --l 3 --model gaussian --sigma 3e-4 "
            "--realizations 200",
            "spectrum_csv",
        ),
        _cmd(
            "wide",
            "ensemble --L 16 --r 97 --l 5 --model gaussian --sigma 3e-5 "
            "--realizations 200",
            "spectrum_csv",
        ),
    ),
    # The cold recovery mask (65,536 scalar recover_order calls at
    # q = 65,536) at the default multiplier bound and at bound 1; the
    # gaussian sweep spans the real threshold (~2.8e-5) and adds PRNG
    # work. No circuit, tiny CSVs.
    "sweep": (
        _cmd(
            "systematic",
            "sweep --N 221 --y 2 --model systematic "
            "--mag-start 0 --mag-stop 3e-4 --mag-step 1e-5",
            "sweep_footer",
        ),
        _cmd(
            "gaussian",
            "sweep --N 221 --y 2 --model gaussian "
            "--mag-start 0 --mag-stop 4e-5 --mag-step 4e-6 "
            "--realizations 5 --multiplier-bound 1",
            "sweep_footer",
        ),
    ),
}

SUBCOMMANDS = ("spectrum", "circuit", "factor", "ensemble", "sweep")


def command_seed(workload_seed: int, workload: str) -> int:
    """64-bit seed passed to every command of `workload`."""
    digest = hashlib.sha256(f"{workload}:{workload_seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
