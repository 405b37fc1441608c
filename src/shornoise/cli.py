"""Command-line front end.

Commands:
    spectrum   effective-model readout distribution (closed form for
               systematic errors, direct summation otherwise)
    circuit    gate-level simulation, with an error on every gate
    ensemble   mean and spread over many quenched realizations
    sweep      success probability versus error magnitude, with threshold
    factor     full pipeline: measure, recover the order, split the modulus

Every command takes the same error-model flags. The sweep sets its
mode's width itself (systematic --delta0, uniform --smax, gaussian
--sigma), so that flag must stay zero; the other flags hold at every
magnitude, so --delta0 under a random mode sweeps combined errors.

Spectra are written as `c,probability` CSV files with a key=value
metadata sidecar next to them. Exit codes: 0 on success, 1 on runtime
failure, 2 on invalid arguments. The library checks its own arguments
and raises `UsageError` before any work, which exits 2 under the
command's usage. This module checks only what the library never sees:
flag pairing, seed text and the --mag-start/--mag-stop/--mag-step grid.
"""
from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

import numpy as np

from .errmodel import ErrorMode, ErrorModel
from .experiment import (
    DEFAULT_ETA,
    ensemble_spectrum,
    factor,
    peak_report,
    threshold_sweep,
    write_sweep_csv,
)
from .numth import DEFAULT_MULTIPLIER_BOUND, ShorInstance, UsageError
from .qcircuit import circuit_spectrum
from .spectrum import Spectrum, model_spectrum, spectrum_metadata, write_spectrum_csv

DEFAULT_SEED = 42


def _parse_seed(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not an integer")
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {value}")
    return value


def _add_instance_options(
    parser: argparse.ArgumentParser, synthetic: bool = True
) -> None:
    group = parser.add_argument_group("instance")
    group.add_argument("--N", type=int, help="modulus to factor")
    group.add_argument("--y", type=int, help="base coprime to the modulus")
    if synthetic:
        group.add_argument("--L", type=int, help="register width in qubits (synthetic)")
        group.add_argument("--r", type=int, help="period of the support (synthetic)")
    group.add_argument("--l", type=int, default=0, help="support offset (default 0)")


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("error model")
    group.add_argument(
        "--model",
        choices=[mode.value for mode in ErrorMode],
        default="none",
        help="error mode (default none)",
    )
    group.add_argument("--delta0", type=float, default=0.0, help="constant error part")
    group.add_argument("--smax", type=float, default=0.0, help="uniform half-width")
    group.add_argument("--sigma", type=float, default=0.0, help="gaussian std dev")
    group.add_argument(
        "--amp-errors",
        action="store_true",
        help="enable amplitude errors (default off)",
    )
    group.add_argument(
        "--init-delta",
        type=float,
        default=0.0,
        help="preparation-weight miscalibration (default 0)",
    )


def _add_run_options(
    parser: argparse.ArgumentParser,
    with_out: bool = True,
    normalize: bool = True,
    realizations: bool = False,
) -> None:
    group = parser.add_argument_group("run")
    group.add_argument(
        "--seed",
        type=_parse_seed,
        default=DEFAULT_SEED,
        help="64-bit seed, decimal or 0x-hex (default 42)",
    )
    if realizations:
        group.add_argument(
            "--realizations",
            type=int,
            default=1,
            help="realization count (default 1)",
        )
    if normalize:
        group.add_argument(
            "--normalize",
            action="store_true",
            help="scale the written spectrum to unit total (default off)",
        )
    if with_out:
        group.add_argument("--out", required=True, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shornoise",
        description="Order-finding readout spectra under miscalibrated gates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spectrum = sub.add_parser(
        "spectrum", help="effective-model spectrum (closed form or direct sum)"
    )
    p_circuit = sub.add_parser("circuit", help="gate-level simulated spectrum")
    p_ensemble = sub.add_parser("ensemble", help="mean spectrum over realizations")
    # The sweep sets the mode's width itself and writes no spectrum.
    p_sweep = sub.add_parser("sweep", help="threshold sweep over error magnitudes")
    for p in (p_spectrum, p_circuit, p_ensemble, p_sweep):
        _add_instance_options(p)
        _add_model_options(p)
        _add_run_options(
            p, normalize=p is not p_sweep, realizations=p in (p_ensemble, p_sweep)
        )
    p_sweep.add_argument("--mag-start", type=float, default=0.0)
    p_sweep.add_argument("--mag-stop", type=float, required=True)
    p_sweep.add_argument("--mag-step", type=float, required=True)
    p_sweep.add_argument("--eta", type=float, default=DEFAULT_ETA)
    p_sweep.add_argument(
        "--multiplier-bound", type=int, default=DEFAULT_MULTIPLIER_BOUND
    )

    p_factor = sub.add_parser("factor", help="measure, recover the order, factor")
    _add_instance_options(p_factor, synthetic=False)
    _add_model_options(p_factor)
    _add_run_options(p_factor, with_out=False, normalize=False)
    p_factor.add_argument("--shots", type=int, default=100)
    p_factor.add_argument(
        "--multiplier-bound", type=int, default=DEFAULT_MULTIPLIER_BOUND
    )

    for command in sub.choices.values():  # so usage errors show the command's usage
        command.set_defaults(parser=command)
    return parser


def _instance_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> ShorInstance:
    has_factoring = args.N is not None or args.y is not None
    has_synthetic = args.L is not None or args.r is not None
    if has_factoring == has_synthetic:
        parser.error("give exactly one of --N/--y or --L/--r")
    if has_factoring:
        if args.N is None or args.y is None:
            parser.error("--N and --y must be given together")
        return ShorInstance.from_factoring(args.N, args.y, offset=args.l)
    if args.L is None or args.r is None:
        parser.error("--L and --r must be given together")
    return ShorInstance.synthetic_instance(args.L, args.r, offset=args.l)


def _model_from_args(args: argparse.Namespace) -> ErrorModel:
    return ErrorModel(
        mode=ErrorMode(args.model),
        delta0=args.delta0,
        s_max=args.smax,
        sigma0=args.sigma,
        include_amplitude_errors=args.amp_errors,
        init_delta=args.init_delta,
    )


def _write_spectrum_outputs(
    spec: Spectrum, out: str, seed: int, normalize: bool
) -> Spectrum:
    if normalize:
        spec = spec.normalize()
    write_spectrum_csv(spec, out)
    Path(out + ".meta").write_text(spectrum_metadata(spec, seed=seed), newline="\n")
    return spec


def _peak_summary(spec: Spectrum) -> str:
    report = peak_report(spec)
    positions = report.positions()
    return f"peaks at {positions} with shifts {report.shifts}"


def _run_readout(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    inst = _instance_from_args(parser, args)
    model = _model_from_args(args)
    route = model_spectrum if args.command == "spectrum" else circuit_spectrum
    spec = route(inst, model, args.seed)
    spec = _write_spectrum_outputs(spec, args.out, args.seed, args.normalize)
    print(f"{args.command}: {_peak_summary(spec)}")
    return 0


def _run_ensemble(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    inst = _instance_from_args(parser, args)
    model = _model_from_args(args)
    mean_spec, std = ensemble_spectrum(inst, model, args.realizations, args.seed)
    mean_spec = _write_spectrum_outputs(mean_spec, args.out, args.seed, args.normalize)
    print(f"ensemble: {_peak_summary(mean_spec)}; max std {float(np.max(std)):.3e}")
    return 0


def _run_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    inst = _instance_from_args(parser, args)
    model = _model_from_args(args)
    if args.mag_step <= 0:
        parser.error("--mag-step must be positive")
    if args.mag_stop < args.mag_start:
        parser.error("--mag-stop must be >= --mag-start")
    steps = (args.mag_stop - args.mag_start) / args.mag_step
    if not math.isfinite(steps):
        parser.error("(--mag-stop - --mag-start) / --mag-step must be finite")
    count = int(round(steps)) + 1
    if count > 1_000_000:
        parser.error(f"the magnitude grid has {count} points, more than 1000000")
    magnitudes = [args.mag_start + i * args.mag_step for i in range(count)]
    result = threshold_sweep(
        inst,
        model,
        magnitudes,
        n_realizations=args.realizations,
        eta=args.eta,
        master_seed=args.seed,
        multiplier_bound=args.multiplier_bound,
    )
    write_sweep_csv(result, args.out)
    threshold = "none" if result.threshold is None else f"{result.threshold:g}"
    print(
        f"sweep: threshold={threshold} baseline={result.baseline:.6f} "
        f"eta={result.eta:g}"
    )
    return 0


def _run_factor(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.N is None or args.y is None:
        parser.error("factor needs --N and --y")
    inst = ShorInstance.from_factoring(args.N, args.y, offset=args.l)
    model = _model_from_args(args)
    result = factor(inst, model, args.seed, args.shots, args.multiplier_bound)
    if result is None:
        print("factor: no nontrivial factor found; retry with new y")
    else:
        order, factors = result
        found = f"r={order}" if order == inst.order else f"order multiple {order}"
        print(f"factor: recovered {found}; factors {factors}")
    return 0


_RUNNERS = {
    "spectrum": _run_readout,
    "circuit": _run_readout,
    "ensemble": _run_ensemble,
    "sweep": _run_sweep,
    "factor": _run_factor,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    With argv None, main parses sys.argv and owns the process (`python -m
    shornoise.cli`, the `shornoise` script): it first freezes the collector
    (`gc.freeze`), so the exit does not walk every object that numpy and
    the package made at import. Given argv, the collector is left as is.
    """
    if argv is None:
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.command](args, args.parser)
    except UsageError as exc:
        args.parser.error(str(exc))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
