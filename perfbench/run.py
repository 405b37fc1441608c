#!/usr/bin/env python3
"""Benchmark of the shornoise command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload {readout,ensemble,sweep} \
        --seed N --seconds S --trace {0,1}

One pass runs every command of the workload (workloads.py) one after the
other, each in a fresh process with PYTHONPATH=src, so every run pays
interpreter start, imports and cold caches as a CLI user does. This is a
closed loop with one client; the machine it was sized on has 2 cores.
Passes repeat while the next one fits in S seconds. Every process time
is rescaled by host-speed probes taken before and after it (host.py),
because the shared host slows all processes for long stretches. A time
is the median over passes of each command's rescaled time, summed over
the commands it covers, so one disturbed command in one pass does not
move it. The raw times are printed too (`*_raw_s`), ungated.

--trace 0 reports the end-to-end metrics (layers.END_TO_END). Set-up
time is the median of fresh `python -m shornoise.cli --help` processes,
one before every pass, so they spread over the run.

--trace 1 alternates untraced passes with traced ones (traced.py) and
reports the per-layer metrics (layers.PER_LAYER), the per-subcommand
times and the tracing overhead.

After timing, every output is checked (checks.py) and must be identical
across passes, traced or not. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the lines before it repeat
every metric with its unit, the diagnostics and the output digests. A
full record goes to .perfbench/records/. Without src/shornoise the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import check_outputs, diagnostics, digests, summary_ok
from layers import (
    ATTRIBUTION,
    DIAGNOSTICS,
    END_TO_END,
    PER_LAYER,
    mask_hit_fracs,
    pass_layer_metrics,
)
from host import COMMAND_PROBE, SETUP_PROBE, HostClock
from workloads import SUBCOMMANDS, WORKLOADS, Command, command_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

COMMAND_TIMEOUT_S = 120
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def run_process(argv: list[str], env: dict[str, str]) -> tuple[float, int, str]:
    """Run argv to completion; return (seconds, exit code, stdout)."""
    start = perf_counter()
    try:
        proc = subprocess.run(
            argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - start, -1, ""
    seconds = perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return seconds, proc.returncode, proc.stdout


def run_pass(
    commands: tuple[Command, ...],
    seed: int,
    out_dir: Path,
    traced: bool,
    env,
    clock: HostClock,
) -> dict:
    """One pass over the workload; digests and traces are read after it."""
    results = {}
    for cmd in commands:
        argv = list(cmd.argv) + ["--seed", str(seed)]
        if cmd.writes_file:
            argv += ["--out", str(out_dir / f"{cmd.label}.csv")]
        trace_file = out_dir / f"{cmd.label}.trace.json"
        if traced:
            prog = [sys.executable, str(HERE / "traced.py"), str(trace_file)]
        else:
            prog = [sys.executable, "-m", "shornoise.cli"]
        seconds, code, stdout = run_process(prog + argv, env)
        results[cmd.label] = {
            "seconds": clock.rescale(seconds),
            "raw_seconds": seconds,
            "ok": code == 0 and summary_ok(cmd, stdout),
            "stdout": stdout,
        }
    for cmd in commands:
        entry = results[cmd.label]
        entry["digests"] = digests(cmd, out_dir, entry["stdout"])
        if traced and entry["ok"]:
            entry["trace"] = json.loads((out_dir / f"{cmd.label}.trace.json").read_text())
    return results


def typical_pass(passes: list[dict], key: str = "seconds") -> dict[str, float]:
    """Median over passes of each command's time."""
    return {
        label: statistics.median(p[label][key] for p in passes) for label in passes[0]
    }


def command_times(commands: tuple[Command, ...], seconds: dict[str, float]) -> dict:
    """Typical time of each subcommand in a pass (0 if the workload lacks it)."""
    return {
        f"cmd.{sub}_s": sum(seconds[c.label] for c in commands if c.subcommand == sub)
        for sub in SUBCOMMANDS
    }


def environment() -> dict:
    import numpy

    from shornoise.experiment import _recovery_mask

    caches = {}
    for level, name in (
        ("l1d", "SC_LEVEL1_DCACHE_SIZE"),
        ("l2", "SC_LEVEL2_CACHE_SIZE"),
        ("l3", "SC_LEVEL3_CACHE_SIZE"),
    ):
        try:
            caches[level] = os.sysconf(name)
        except (ValueError, OSError):
            caches[level] = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_cache_bytes": caches,
        "recovery_mask_cache_maxsize": _recovery_mask.cache_parameters()["maxsize"],
    }


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def measure(args, commands, seed: int, work: Path, env) -> dict:
    """The timed part: passes (and set-up samples) until --seconds is up.

    A round (set-up samples, a pass and, traced, a traced pass) is not
    begun if the last one, taken again, would end after --seconds; the
    first round always runs.
    """
    setup: list[tuple[float, float, int]] = []
    plain: list[dict] = []
    traced: list[dict] = []
    clocks = {"command": [], "setup": []}
    start = perf_counter()
    round_s = 0.0
    while not plain or perf_counter() - start + round_s <= args.seconds:
        round_start = perf_counter()
        if not args.trace:
            clock = HostClock(*SETUP_PROBE)
            clocks["setup"].append(clock)
            seconds, code, _ = run_process(
                [sys.executable, "-m", "shornoise.cli", "--help"], env
            )
            setup.append((clock.rescale(seconds), seconds, code))
        clock = HostClock(*COMMAND_PROBE)
        clocks["command"].append(clock)
        plain.append(run_pass(commands, seed, work / "plain", False, env, clock))
        if args.trace:
            traced.append(run_pass(commands, seed, work / "traced", True, env, clock))
        round_s = perf_counter() - round_start
    return {
        "setup": setup,
        "plain": plain,
        "traced": traced,
        "probes": {
            kind: [t for clock in kind_clocks for t in clock.probes]
            for kind, kind_clocks in clocks.items()
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def verify(commands, run: dict, out_dir: Path) -> tuple[int, list[str]]:
    """Every invocation, the output digests and the output checks.

    Returns (checks attempted, failure messages).
    """
    attempted = 0
    failures = []
    for _, _, code in run["setup"]:
        attempted += 1
        if code != 0:
            failures.append("setup: --help failed")
    passes = run["plain"] + run["traced"]
    for p in passes:
        for label, entry in p.items():
            attempted += 1
            if not entry["ok"]:
                failures.append(f"{label}: bad exit code or summary line")
    reference = run["plain"][0]
    for cmd in commands:
        attempted += 1
        expected = reference[cmd.label]["digests"]
        if any(p[cmd.label]["digests"] != expected for p in passes):
            failures.append(f"{cmd.label}: outputs differ between passes")
    stdouts = {label: entry["stdout"] for label, entry in reference.items()}
    for name, failure in check_outputs(commands, out_dir, stdouts):
        attempted += 1
        if failure is not None:
            failures.append(f"{name}: {failure}")
    return attempted, failures


def summarize(commands, run: dict, out_dir: Path) -> dict[str, float]:
    """Every metric this run can give, end-to-end, per-layer and diagnostic."""
    seconds = typical_pass(run["plain"])
    wall_s = sum(seconds.values())
    traced = run["traced"]
    report = {}
    if not traced:
        report["setup_s"] = statistics.median(t for t, _, _ in run["setup"])
        report["setup_raw_s"] = statistics.median(t for _, t, _ in run["setup"])
        report["peak_rss_mb"] = run["peak_rss_mb"]
    report["wall_s"] = wall_s
    report["wall_raw_s"] = sum(typical_pass(run["plain"], "raw_seconds").values())
    for kind, probes in run["probes"].items():
        if probes:
            report[f"host.{kind}_probe_s"] = statistics.median(probes)
    report.update(command_times(commands, seconds))
    diag = {name: 0.0 for name, _, _ in DIAGNOSTICS}
    try:
        diag.update(diagnostics(commands, out_dir))
    except (OSError, ValueError, IndexError) as exc:
        print(f"diagnostics unavailable: {exc}", file=sys.stderr)
    if traced:
        good = [p for p in traced if all("trace" in entry for entry in p.values())]
        if good:
            layer_passes = [
                pass_layer_metrics([entry["trace"] for entry in p.values()]) for p in good
            ]
            for name in layer_passes[0]:
                report[name] = statistics.median(m[name] for m in layer_passes)
            diag.update(mask_hit_fracs([entry["trace"] for entry in good[-1].values()]))
        report["trace.wall_s"] = sum(typical_pass(traced).values())
        report["trace.overhead_frac"] = (report["trace.wall_s"] - wall_s) / wall_s
    report.update(diag)
    return report


def main() -> int:
    args = parse_args()
    if not (SRC / "shornoise" / "cli.py").is_file():
        print(f"error: no shornoise sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Compiles the bytecode and proves the children import this checkout.
    _, code, stdout = run_process(
        [sys.executable, "-c", "import shornoise.cli; print(shornoise.cli.__file__)"], env
    )
    if code != 0 or Path(stdout.strip()).resolve() != SRC / "shornoise" / "cli.py":
        print(f"error: shornoise.cli does not import from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    commands = WORKLOADS[args.workload]
    seed = command_seed(args.seed, args.workload)
    work = STATE / "work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "plain").mkdir(parents=True)
    (work / "traced").mkdir()

    run = measure(args, commands, seed, work, env)
    # Everything below runs after timing.
    attempted, failures = verify(commands, run, work / "plain")
    report = summarize(commands, run, work / "plain")
    report["fail_frac"] = len(failures) / attempted
    names = [name for name, _, _ in (PER_LAYER if args.trace else END_TO_END)]
    for name in names:
        if name not in report:
            attempted += 1
            failures.append(f"{name}: not measured")

    reference = run["plain"][0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "command_seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(run["plain"]),
        "traced_passes": len(run["traced"]),
        "commands": [" ".join(cmd.argv) for cmd in commands],
        "probes": {"command": COMMAND_PROBE, "setup": SETUP_PROBE},
        "probe_s": run["probes"],
        "command_seconds": {
            cmd.label: [p[cmd.label]["seconds"] for p in run["plain"]] for cmd in commands
        },
        "command_raw_seconds": {
            cmd.label: [p[cmd.label]["raw_seconds"] for p in run["plain"]]
            for cmd in commands
        },
        "setup_samples_s": [t for t, _, _ in run["setup"]],
        "setup_raw_samples_s": [t for _, t, _ in run["setup"]],
        "metrics": report,
        "digests": {label: entry["digests"] for label, entry in reference.items()},
        "failures": failures,
        "environment": environment(),
    }
    if args.trace:
        record["attribution"] = ATTRIBUTION
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(
        f"{args.workload}: seed {args.seed} (commands --seed {seed}), "
        f"{record['passes']} passes, {record['traced_passes']} traced, "
        f"{len(run['setup'])} set-ups"
    )
    for name, value in report.items():
        print(f"  {name:34s} {value:.6g} {UNITS.get(name, 's')}")
    for label, files in record["digests"].items():
        for file, digest in files.items():
            print(f"  digest {label}/{file} {digest}")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(f"  record {record_path.relative_to(ROOT)}")
    metrics = {
        name: {"value": report[name], "unit": UNITS[name]} for name in names if name in report
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
