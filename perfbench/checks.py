"""Output checks and defect diagnostics, run after the timed passes.

The oracles import shornoise from the checkout's src/ (run.py puts it on
sys.path), so they only run once timing is over.
"""
from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

from workloads import Command

SUMMARY_LINES = {
    "spectrum": re.compile(r"spectrum: peaks at \[[\d, ]*\] with shifts \[[-\d, ]*\]"),
    "circuit": re.compile(r"circuit: peaks at \[[\d, ]*\] with shifts \[[-\d, ]*\]"),
    "ensemble": re.compile(
        r"ensemble: peaks at \[[\d, ]*\] with shifts \[[-\d, ]*\]; max std \S+"
    ),
    "sweep": re.compile(r"sweep: threshold=\S+ baseline=\d\.\d{6} eta=\S+"),
    "factor": re.compile(r"factor: recovered r=\d+; factors \[[\d, ]*\]"),
}
FOOTER = re.compile(r"# threshold=(\S+) eta=(\S+) baseline=(\S+)")

CLOSED_FORM_TVD = 1e-9
UNIT_SUM_TOLERANCE = 1e-9


def summary_ok(cmd: Command, stdout: str) -> bool:
    """The command printed exactly its one summary line."""
    lines = stdout.splitlines()
    return len(lines) == 1 and bool(SUMMARY_LINES[cmd.subcommand].fullmatch(lines[0]))


def output_paths(cmd: Command, out_dir: Path) -> list[Path]:
    if not cmd.writes_file:
        return []
    csv = out_dir / f"{cmd.label}.csv"
    paths = [csv]
    if cmd.subcommand != "sweep":
        paths.append(Path(str(csv) + ".meta"))
    return paths


def digests(cmd: Command, out_dir: Path, stdout: str) -> dict[str, str]:
    """sha256 of every output file of `cmd` and of its standard output."""
    result = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for path in output_paths(cmd, out_dir):
        result[path.name] = (
            hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
        )
    return result


def read_spectrum(path: Path) -> np.ndarray:
    with open(path) as f:
        if f.readline().rstrip("\n") != "c,probability":
            raise ValueError(f"{path.name}: missing c,probability header")
        return np.loadtxt(f, delimiter=",", ndmin=2)


def _tvd(p: np.ndarray, s: np.ndarray) -> float:
    return float(0.5 * np.sum(np.abs(p / np.sum(p) - s / np.sum(s))))


def _spectrum_csv(cmd: Command, data: np.ndarray) -> str | None:
    q = 1 << int(cmd.flag("--L"))
    if data.shape != (q, 2):
        return f"expected {q} rows of 2 columns, got shape {data.shape}"
    if not np.array_equal(data[:, 0], np.arange(q)):
        return "c column is not 0 .. q-1"
    values = data[:, 1]
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        return "probabilities not all finite and nonnegative"
    return None


def _closed_form(cmd: Command, data: np.ndarray) -> str | None:
    from shornoise.numth import ShorInstance
    from shornoise.spectrum import direct_spectrum

    inst = ShorInstance.synthetic_instance(
        int(cmd.flag("--L")), int(cmd.flag("--r")), offset=int(cmd.flag("--l"))
    )
    errors = np.full(inst.support_count, float(cmd.flag("--delta0")))
    tvd = _tvd(data[:, 1], direct_spectrum(inst, errors).values)
    if not tvd <= CLOSED_FORM_TVD:
        return f"closed form differs from the direct sum by TVD {tvd:.3e}"
    return None


def _unit_sum(cmd: Command, data: np.ndarray) -> str | None:
    total = float(np.sum(data[:, 1]))
    if not abs(total - 1.0) <= UNIT_SUM_TOLERANCE:
        return f"circuit output sums to {total!r}"
    return None


def read_sweep(path: Path) -> tuple[np.ndarray, float | None, float]:
    """Rows (magnitude, success), threshold (None for none) and baseline."""
    lines = path.read_text().splitlines()
    if lines[0] != "magnitude,success_probability":
        raise ValueError(f"{path.name}: missing sweep header")
    footer = FOOTER.fullmatch(lines[-1])
    if footer is None:
        raise ValueError(f"{path.name}: footer does not parse")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
    threshold = None if footer.group(1) == "none" else float(footer.group(1))
    float(footer.group(2))  # eta must parse too
    return rows, threshold, float(footer.group(3))


def _sweep_footer(cmd: Command, path: Path) -> str | None:
    rows, _, baseline = read_sweep(path)
    if rows[0, 0] != 0.0 or rows[0, 1] != baseline:
        return f"baseline {baseline!r} differs from success at magnitude 0 {rows[0]}"
    return None


def check_outputs(
    commands: tuple[Command, ...], out_dir: Path, stdouts: dict[str, str]
) -> list[tuple[str, str | None]]:
    """Run every command's named checks on its outputs in out_dir.

    Returns (check name, failure message or None) pairs.
    """
    results = []
    for cmd in commands:
        csv = out_dir / f"{cmd.label}.csv"
        data = None
        for check in cmd.checks:
            name = f"{cmd.label}.{check}"
            try:
                if check == "factors_13_17":
                    ok = "factors [13, 17]" in stdouts[cmd.label]
                    failure = None if ok else "factor did not report [13, 17]"
                elif check == "sweep_footer":
                    failure = _sweep_footer(cmd, csv)
                else:
                    if data is None:
                        data = read_spectrum(csv)
                    check_fn = {
                        "spectrum_csv": _spectrum_csv,
                        "closed_form": _closed_form,
                        "unit_sum": _unit_sum,
                    }[check]
                    failure = check_fn(cmd, data)
            except (OSError, ValueError, IndexError) as exc:
                failure = f"{type(exc).__name__}: {exc}"
            results.append((name, failure))
    return results


def diagnostics(commands: tuple[Command, ...], out_dir: Path) -> dict[str, float]:
    """Known-defect readings from the outputs: 0 where not applicable."""
    labels = {cmd.label: cmd for cmd in commands}
    result = {}
    if "direct" in labels and "circuit" in labels:
        direct = read_spectrum(out_dir / "direct.csv")[:, 1]
        circuit = read_spectrum(out_dir / "circuit.csv")[:, 1]
        result["diag.route_tvd"] = _tvd(direct, circuit)
    for cmd in commands:
        if cmd.subcommand == "sweep":
            _, threshold, baseline = read_sweep(out_dir / f"{cmd.label}.csv")
            result[f"diag.sweep_{cmd.label}_baseline"] = baseline
            result[f"diag.sweep_{cmd.label}_threshold"] = (
                -1.0 if threshold is None else threshold
            )
    return result
