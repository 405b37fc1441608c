"""Command-line front end.

Commands:
    spectrum   effective-model readout distribution (closed form for
               systematic errors, direct summation otherwise)
    circuit    gate-level simulation, with an error on every gate
    ensemble   mean and spread over many quenched realizations
    sweep      success probability versus error magnitude, with threshold
    factor     full pipeline: measure, recover the order, split the modulus

Every command takes the same error-model flags and --seed. Of the other
run flags, --realizations belongs to ensemble and sweep, --normalize to
spectrum, circuit and ensemble, and --out to every command but factor.
The sweep sets its mode's width itself (systematic --delta0, uniform
--smax, gaussian --sigma), so that flag must stay zero; the other flags
hold at every magnitude, so --delta0 under a random mode sweeps combined
errors.

Spectra are written as `c,probability` CSV files with a key=value
metadata sidecar next to them. Exit codes: 0 on success, 1 on runtime
failure, 2 on invalid arguments. The library checks its own arguments
and raises `UsageError` before any work, which exits 2 under the
command's usage. This module checks only what the library never sees:
flag pairing, seed text and the --mag-start/--mag-stop/--mag-step grid,
whose stop must lie a whole number of steps from its start.

At import this module loads only the standard library and the package's
numpy-free defaults. The library, and numpy with it, loads once the
arguments parse, so --help and usage errors return without it.
"""
from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

from . import DEFAULT_ETA, DEFAULT_MULTIPLIER_BOUND, ERROR_MODES

DEFAULT_SEED = 42


def _parse_seed(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not an integer")
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {value}")
    return value


# Every option, declared once; each command names the ones it takes.
_OPTIONS = {
    "--N": dict(type=int, help="modulus to factor"),
    "--y": dict(type=int, help="base coprime to the modulus"),
    "--L": dict(type=int, help="register width in qubits (synthetic)"),
    "--r": dict(type=int, help="period of the support (synthetic)"),
    "--l": dict(type=int, default=0, help="support offset (default 0)"),
    "--model": dict(
        choices=ERROR_MODES,
        default="none",
        help="error mode (default none)",
    ),
    "--delta0": dict(type=float, default=0.0, help="constant error part"),
    "--smax": dict(type=float, default=0.0, help="uniform half-width"),
    "--sigma": dict(type=float, default=0.0, help="gaussian std dev"),
    "--amp-errors": dict(
        action="store_true", help="enable amplitude errors (default off)"
    ),
    "--init-delta": dict(
        type=float, default=0.0, help="preparation-weight miscalibration (default 0)"
    ),
    "--seed": dict(
        type=_parse_seed,
        default=DEFAULT_SEED,
        help="64-bit seed, decimal or 0x-hex (default 42)",
    ),
    "--realizations": dict(type=int, default=1, help="realization count (default 1)"),
    "--normalize": dict(
        action="store_true",
        help="scale the written spectrum to unit total (default off)",
    ),
    "--out": dict(required=True, help="output CSV path"),
    "--mag-start": dict(type=float, default=0.0, help="first magnitude (default 0)"),
    "--mag-stop": dict(
        type=float,
        required=True,
        help="last magnitude, a whole number of steps from the first",
    ),
    "--mag-step": dict(type=float, required=True, help="magnitude spacing"),
    "--eta": dict(
        type=float,
        default=DEFAULT_ETA,
        help="the threshold is where success falls below eta * baseline "
        "(default %(default)s)",
    ),
    "--shots": dict(type=int, default=100, help="most shots to measure (default 100)"),
    "--multiplier-bound": dict(
        type=int,
        default=DEFAULT_MULTIPLIER_BOUND,
        help="largest r/d for a convergent denominator d of c/q (default "
        "%(default)s); a bound >= r lets classical search find r from any outcome",
    ),
}
_MODEL = ("--model", "--delta0", "--smax", "--sigma", "--amp-errors", "--init-delta")
_INSTANCE = ("--N", "--y", "--L", "--r", "--l")


def _add_command(sub, name, run, instance, run_flags, extra=(), *, help) -> None:
    """Subcommand `name` with instance, error model and run groups.

    Its own flags, `extra`, stay ungrouped. The runner and the parser are
    bound as defaults, so a usage error shows this command's usage.
    """
    parser = sub.add_parser(name, help=help)
    groups = ("instance", instance), ("error model", _MODEL), ("run", run_flags)
    for title, flags in groups:
        group = parser.add_argument_group(title)
        for flag in flags:
            group.add_argument(flag, **_OPTIONS[flag])
    for flag in extra:
        parser.add_argument(flag, **_OPTIONS[flag])
    parser.set_defaults(run=run, parser=parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shornoise",
        description="Order-finding readout spectra under miscalibrated gates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    readout = ("--seed", "--normalize", "--out")
    _add_command(sub, "spectrum", _run_spectrum, _INSTANCE, readout,
                 help="effective-model spectrum (closed form or direct sum)")
    _add_command(sub, "circuit", _run_spectrum, _INSTANCE, readout,
                 help="gate-level simulated spectrum")
    _add_command(sub, "ensemble", _run_spectrum, _INSTANCE,
                 ("--seed", "--realizations", "--normalize", "--out"),
                 help="mean spectrum over realizations")
    # The sweep sets the mode's width itself and writes no spectrum.
    _add_command(sub, "sweep", _run_sweep, _INSTANCE,
                 ("--seed", "--realizations", "--out"),
                 ("--mag-start", "--mag-stop", "--mag-step", "--eta",
                  "--multiplier-bound"),
                 help="threshold sweep over error magnitudes")
    _add_command(sub, "factor", _run_factor, ("--N", "--y", "--l"), ("--seed",),
                 ("--shots", "--multiplier-bound"),
                 help="measure, recover the order, factor")
    return parser


def _instance_from_args(args: argparse.Namespace) -> numth.ShorInstance:
    synthetic = "L" in args  # factor takes no --L/--r
    has_factoring = args.N is not None or args.y is not None
    has_synthetic = synthetic and (args.L is not None or args.r is not None)
    if synthetic and has_factoring == has_synthetic:
        args.parser.error("give exactly one of --N/--y or --L/--r")
    if not has_synthetic:
        if args.N is None or args.y is None:
            args.parser.error("--N and --y must be given together")
        return numth.ShorInstance.from_factoring(args.N, args.y, offset=args.l)
    if args.L is None or args.r is None:
        args.parser.error("--L and --r must be given together")
    return numth.ShorInstance.synthetic_instance(args.L, args.r, offset=args.l)


def _model_from_args(args: argparse.Namespace) -> errmodel.ErrorModel:
    return errmodel.ErrorModel(
        mode=errmodel.ErrorMode(args.model),
        delta0=args.delta0,
        s_max=args.smax,
        sigma0=args.sigma,
        include_amplitude_errors=args.amp_errors,
        init_delta=args.init_delta,
    )


def _run_spectrum(args: argparse.Namespace) -> int:
    """spectrum, circuit and ensemble: write the spectrum and its peaks."""
    inst = _instance_from_args(args)
    model = _model_from_args(args)
    spread = ""
    if args.command == "ensemble":
        spec, std = experiment.ensemble_spectrum(
            inst, model, args.realizations, args.seed
        )
        spread = f"; max std {float(std.max()):.3e}"
    elif args.command == "spectrum":
        spec = spectrum.model_spectrum(inst, model, args.seed)
    else:
        spec = qcircuit.circuit_spectrum(inst, model, args.seed)
    if args.normalize:
        spec = spec.normalize()
    spectrum.write_spectrum_csv(spec, args.out)
    meta = spectrum.spectrum_metadata(spec, seed=args.seed)
    Path(args.out + ".meta").write_text(meta, newline="\n")
    report = experiment.peak_report(spec)
    positions = report.positions()
    print(f"{args.command}: peaks at {positions} with shifts {report.shifts}{spread}")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    parser = args.parser
    inst = _instance_from_args(args)
    model = _model_from_args(args)
    if args.mag_step <= 0:
        parser.error("--mag-step must be positive")
    if args.mag_stop < args.mag_start:
        parser.error("--mag-stop must be >= --mag-start")
    steps = (args.mag_stop - args.mag_start) / args.mag_step
    if not math.isfinite(steps):
        parser.error("(--mag-stop - --mag-start) / --mag-step must be finite")
    # The last grid point must be --mag-stop up to rounding: 4 ulps of the
    # largest magnitude.
    whole = round(steps)
    miss = abs(args.mag_start + whole * args.mag_step - args.mag_stop)
    if miss > 4 * math.ulp(max(abs(args.mag_start), abs(args.mag_stop))):
        parser.error(
            "(--mag-stop - --mag-start) / --mag-step must be a whole number, "
            f"got {steps:g}"
        )
    count = whole + 1
    if count > 1_000_000:
        parser.error(f"the magnitude grid has {count} points, more than 1000000")
    magnitudes = [args.mag_start + i * args.mag_step for i in range(count)]
    result = experiment.threshold_sweep(
        inst, model, magnitudes, n_realizations=args.realizations, eta=args.eta,
        master_seed=args.seed, multiplier_bound=args.multiplier_bound,
    )
    experiment.write_sweep_csv(result, args.out)
    threshold = "none" if result.threshold is None else f"{result.threshold:g}"
    print(
        f"sweep: threshold={threshold} baseline={result.baseline:.6f} "
        f"eta={result.eta:g}"
    )
    return 0


def _run_factor(args: argparse.Namespace) -> int:
    inst = _instance_from_args(args)
    model = _model_from_args(args)
    result = experiment.factor(
        inst, model, args.seed, args.shots, args.multiplier_bound
    )
    if result is None:
        print("factor: no nontrivial factor found; retry with new y")
    else:
        order, factors = result
        found = f"r={order}" if order == inst.order else f"order multiple {order}"
        print(f"factor: recovered {found}; factors {factors}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Once the arguments parse, main imports the five library modules, and
    numpy with them, as globals of this module; the runners look each
    library function up through them at call time. With argv None, main
    parses sys.argv and owns the process (`python -m shornoise.cli`, the
    `shornoise` script): after that import it freezes the collector
    (`gc.freeze`), so the exit does not walk every object that numpy and
    the package made at import. Given argv, the collector is left as is.
    """
    args = build_parser().parse_args(argv)
    global errmodel, experiment, numth, qcircuit, spectrum
    from . import errmodel, experiment, numth, qcircuit, spectrum

    if argv is None:
        gc.freeze()
    try:
        return args.run(args)
    except numth.UsageError as exc:
        args.parser.error(str(exc))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
