"""End-to-end tests for the command line interface.

Commands run in process through main(argv), except where stderr itself
or the process entry is checked. Usage errors surface as SystemExit(2)
from the argument parser; runtime failures return 1; success returns 0.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from shornoise.cli import build_parser, main
from shornoise.errmodel import ErrorMode, ErrorModel
from spectrum_csv import read_spectrum_csv

ROOT = Path(__file__).resolve().parent.parent
LIBRARY_MODULES = [
    f"shornoise.{name}"
    for name in ("numth", "errmodel", "spectrum", "qcircuit", "experiment")
]


def run_spectrum(tmp_path, name: str, *args: str) -> tuple[int, str]:
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, str(out)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """This interpreter in its own process, importing the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def run_process(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in its own process, so stderr holds whatever it prints."""
    return run_python("-m", "shornoise.cli", *argv)


class TestSpectrumCommand:
    def test_noiseless_run(self, tmp_path, capsys) -> None:
        code, out = run_spectrum(
            tmp_path, "s.csv", "spectrum", "--L", "7", "--r", "4", "--model", "none"
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "peaks at [0, 32, 64, 96]" in printed
        assert "shifts [0, 0, 0, 0]" in printed
        values = read_spectrum_csv(out)
        assert len(values) == 128
        assert values[0] == pytest.approx(0.25, abs=1e-12)

    def test_meta_sidecar(self, tmp_path) -> None:
        code, out = run_spectrum(
            tmp_path, "s.csv", "spectrum", "--L", "7", "--r", "4",
            "--model", "systematic", "--delta0", "0.05",
        )
        assert code == 0
        meta = (tmp_path / "s.csv.meta").read_text()
        assert "method=closed_form" in meta
        assert "q=128" in meta
        assert "model=systematic" in meta

    def test_systematic_peaks_shift(self, tmp_path, capsys) -> None:
        code, _ = run_spectrum(
            tmp_path, "s.csv", "spectrum", "--L", "7", "--r", "4",
            "--model", "systematic", "--delta0", "0.05",
        )
        assert code == 0
        assert "peaks at [31, 63, 95, 127]" in capsys.readouterr().out

    def test_random_model_routes_to_direct_sum(self, tmp_path) -> None:
        code, _ = run_spectrum(
            tmp_path, "s.csv", "spectrum", "--L", "7", "--r", "4",
            "--model", "uniform", "--smax", "0.02", "--seed", "5",
        )
        assert code == 0
        meta = (tmp_path / "s.csv.meta").read_text()
        assert "method=direct_sum" in meta
        assert "seed=5" in meta

    def test_normalize_flag(self, tmp_path) -> None:
        code, out = run_spectrum(
            tmp_path, "s.csv", "spectrum", "--L", "7", "--r", "4",
            "--model", "none", "--normalize",
        )
        assert code == 0
        values = read_spectrum_csv(out)
        assert values.sum() == pytest.approx(1.0, rel=1e-9)
        assert "normalized=true" in (tmp_path / "s.csv.meta").read_text()

    def test_factoring_instance(self, tmp_path) -> None:
        code, out = run_spectrum(
            tmp_path, "s.csv", "spectrum", "--N", "15", "--y", "7", "--model", "none"
        )
        assert code == 0
        values = read_spectrum_csv(out)
        assert len(values) == 256
        assert values[64] == pytest.approx(0.25, abs=1e-12)


def model_from_sidecar(meta: str) -> ErrorModel:
    """The ErrorModel whose fields a .meta sidecar lists."""
    entries = dict(line.split("=", 1) for line in meta.splitlines())
    values = {}
    for field in fields(ErrorModel)[1:]:
        text = entries[field.name]
        is_flag = isinstance(field.default, bool)
        values[field.name] = text == "true" if is_flag else float(text)
    return ErrorModel(ErrorMode(entries["model"]), **values)


class TestSidecarModel:
    MODELS = [
        (["--model", "none"], ErrorModel()),
        (["--model", "none", "--init-delta", "0.01"], ErrorModel(init_delta=0.01)),
        (
            ["--model", "systematic", "--delta0", "0.05"],
            ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.05),
        ),
        (
            ["--model", "systematic", "--delta0=-1e-05", "--amp-errors",
             "--init-delta", "0.01"],
            ErrorModel(
                ErrorMode.SYSTEMATIC, delta0=-1e-05, include_amplitude_errors=True,
                init_delta=0.01,
            ),
        ),
        (
            ["--model", "uniform", "--delta0", "0.01", "--smax", "0.02",
             "--amp-errors"],
            ErrorModel(
                ErrorMode.UNIFORM, delta0=0.01, s_max=0.02,
                include_amplitude_errors=True,
            ),
        ),
        (
            ["--model", "gaussian", "--delta0", "0.003", "--sigma", "3e-06",
             "--amp-errors", "--init-delta=-0.02"],
            ErrorModel(
                ErrorMode.GAUSSIAN, delta0=0.003, sigma0=3e-06,
                include_amplitude_errors=True, init_delta=-0.02,
            ),
        ),
    ]

    @pytest.mark.parametrize("command", ["spectrum", "circuit", "ensemble"])
    @pytest.mark.parametrize("flags, model", MODELS)
    def test_model_round_trips(self, tmp_path, command, flags, model) -> None:
        # A deterministic model takes no realization count.
        random = command == "ensemble" and not model.deterministic
        extra = ["--realizations", "3"] if random else []
        code, out = run_spectrum(
            tmp_path, "s.csv", command, "--L", "7", "--r", "4", "--l", "1",
            *flags, *extra,
        )
        assert code == 0
        meta = Path(out + ".meta").read_text()
        assert model_from_sidecar(meta) == model
        keys = [line.split("=", 1)[0] for line in meta.splitlines()]
        assert len(keys) == len(set(keys))


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path) -> None:
        args = ["spectrum", "--L", "7", "--r", "4", "--model", "uniform",
                "--smax", "0.05", "--seed", "123"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (
            (tmp_path / "a.csv.meta").read_text()
            == (tmp_path / "b.csv.meta").read_text()
        )

    def test_hex_seed_equals_decimal_seed(self, tmp_path) -> None:
        base = ["spectrum", "--L", "7", "--r", "4", "--model", "gaussian",
                "--sigma", "0.05"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(base + ["--seed", "0x7B", "--out", str(a)]) == 0
        assert main(base + ["--seed", "123", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_change_output(self, tmp_path) -> None:
        base = ["spectrum", "--L", "7", "--r", "4", "--model", "uniform",
                "--smax", "0.05"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()


class TestCircuitCommand:
    def test_zero_error_circuit(self, tmp_path, capsys) -> None:
        code, out = run_spectrum(
            tmp_path, "c.csv", "circuit", "--L", "5", "--r", "4", "--model", "none"
        )
        assert code == 0
        assert "circuit: peaks at [0, 8, 16, 24]" in capsys.readouterr().out
        values = read_spectrum_csv(out)
        assert len(values) == 32
        assert values.sum() == pytest.approx(1.0, rel=1e-9)

    def test_noisy_circuit_reproducible(self, tmp_path) -> None:
        args = ["circuit", "--L", "5", "--r", "4", "--model", "gaussian",
                "--sigma", "0.05", "--seed", "7"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEnsembleCommand:
    def test_summary_reports_spread(self, tmp_path, capsys) -> None:
        code, out = run_spectrum(
            tmp_path, "e.csv", "ensemble", "--L", "7", "--r", "4",
            "--model", "uniform", "--smax", "0.01", "--realizations", "20",
            "--seed", "42",
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("ensemble: peaks at")
        assert "max std" in printed
        values = read_spectrum_csv(out)
        assert len(values) == 128

    def test_normalized_spread_is_in_the_written_units(self, tmp_path, capsys) -> None:
        # L = 4, r = 7 fills part of a period: the mean totals r*M/q = 1.3125,
        # and --normalize divides the printed spread by it as well.
        argv = ["ensemble", "--L", "4", "--r", "7", "--model", "gaussian",
                "--sigma", "0.1", "--realizations", "4"]
        spreads, totals = [], []
        for flags in ([], ["--normalize"]):
            code, out = run_spectrum(tmp_path, "e.csv", *argv, *flags)
            assert code == 0
            spreads.append(float(capsys.readouterr().out.split("max std ")[1]))
            totals.append(read_spectrum_csv(out).sum())
        assert totals == [pytest.approx(1.3125), pytest.approx(1.0)]
        assert spreads[1] == pytest.approx(spreads[0] / 1.3125, rel=1e-3)


class TestSweepCommand:
    def test_sweep_run(self, tmp_path, capsys) -> None:
        code, out = run_spectrum(
            tmp_path, "w.csv", "sweep", "--N", "15", "--y", "7",
            "--model", "systematic", "--mag-start", "0", "--mag-stop", "0.1",
            "--mag-step", "0.05",
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("sweep: threshold=")
        lines = (tmp_path / "w.csv").read_text().strip().splitlines()
        assert lines[0] == "magnitude,success_probability"
        assert lines[-1].startswith("# threshold=")
        assert len(lines) == 5

    def test_sweep_grid_includes_endpoint(self, tmp_path) -> None:
        code, out = run_spectrum(
            tmp_path, "w.csv", "sweep", "--N", "15", "--y", "7",
            "--model", "systematic", "--mag-start", "0", "--mag-stop", "0.3",
            "--mag-step", "0.005", "--multiplier-bound", "1",
        )
        assert code == 0
        lines = (tmp_path / "w.csv").read_text().strip().splitlines()
        mags = [float(line.split(",")[0]) for line in lines[1:-1]]
        assert len(mags) == 61
        assert mags[0] == 0.0
        assert mags[-1] == pytest.approx(0.3, abs=1e-12)

    def test_combined_errors_sweep(self, tmp_path, capsys) -> None:
        # A gaussian sweep with a --delta0 starts from the systematic model
        # at that delta0, so its baseline is the systematic sweep's point.
        common = ["sweep", "--N", "221", "--y", "2", "--multiplier-bound", "1"]
        code, _ = run_spectrum(
            tmp_path, "s.csv", *common, "--model", "systematic",
            "--mag-stop", "6e-3", "--mag-step", "6e-3",
        )
        assert code == 0
        code, _ = run_spectrum(
            tmp_path, "g.csv", *common, "--model", "gaussian", "--delta0", "6e-3",
            "--mag-stop", "2e-5", "--mag-step", "2e-5", "--realizations", "2",
        )
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[1] == "sweep: threshold=2e-05 baseline=0.290905 eta=0.5"
        systematic = (tmp_path / "s.csv").read_text().splitlines()
        combined = (tmp_path / "g.csv").read_text().splitlines()
        assert systematic[2].split(",")[1] == combined[1].split(",")[1]
        assert combined[-1].endswith("baseline=2.909052251085e-01")


class TestLineEnds:
    def test_every_output_file_has_bare_newlines(self, tmp_path) -> None:
        code, spectrum_out = run_spectrum(
            tmp_path, "s.csv", "spectrum", "--L", "5", "--r", "4",
            "--model", "systematic", "--delta0", "0.01",
        )
        assert code == 0
        code, sweep_out = run_spectrum(
            tmp_path, "w.csv", "sweep", "--N", "15", "--y", "7",
            "--model", "systematic", "--mag-start", "0", "--mag-stop", "0.1",
            "--mag-step", "0.05",
        )
        assert code == 0
        for path in (spectrum_out, spectrum_out + ".meta", sweep_out):
            data = Path(path).read_bytes()
            assert b"\n" in data
            assert b"\r" not in data


class TestFactorCommand:
    def test_factors_fifteen(self, capsys) -> None:
        code = main(["factor", "--N", "15", "--y", "7", "--shots", "100",
                     "--seed", "1"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "recovered r=4" in printed
        assert "[3, 5]" in printed

    def test_multiple_of_the_order_is_not_called_the_order(self, capsys) -> None:
        # At 3 rad per gate the outcome that splits 221 recovers 168, a
        # multiple of the order 24 of 2 mod 221.
        code = main(["factor", "--N", "221", "--y", "2", "--shots", "100",
                     "--model", "gaussian", "--sigma", "3",
                     "--multiplier-bound", "1", "--seed", "1"])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed == "factor: recovered order multiple 168; factors [13, 17]\n"

    def test_any_shot_count_fits_in_memory(self, capsys) -> None:
        # Shots are drawn in blocks and the first split ends the run, so
        # 10**14 shots print what 100 shots print.
        lines = []
        for shots in ("100", "100000000000000"):
            code = main(["factor", "--N", "15", "--y", "7", "--shots", shots,
                         "--seed", "1"])
            assert code == 0
            lines.append(capsys.readouterr().out)
        assert lines == ["factor: recovered r=4; factors [3, 5]\n"] * 2

    def test_trivial_root_asks_for_retry(self, capsys) -> None:
        # y = 14 has order 2 with 14^1 = -1 mod 15, which never yields a
        # nontrivial factor pair.
        code = main(["factor", "--N", "15", "--y", "14", "--shots", "50",
                     "--seed", "3"])
        assert code == 0
        assert "retry with new y" in capsys.readouterr().out


def subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def option_table() -> dict[str, list[tuple]]:
    """Per subcommand, each action's (group title, flags, default, required)."""
    return {
        name: [
            (group.title, tuple(action.option_strings), action.default, action.required)
            for group in command._action_groups
            for action in group._group_actions
        ]
        for name, command in subcommands().items()
    }


HELP = [("options", ("-h", "--help"), argparse.SUPPRESS, False)]
INSTANCE = [
    ("instance", (flag,), default, False)
    for flag, default in [("--N", None), ("--y", None), ("--L", None), ("--r", None),
                          ("--l", 0)]
]
MODEL = [
    ("error model", (flag,), default, False)
    for flag, default in [("--model", "none"), ("--delta0", 0.0), ("--smax", 0.0),
                          ("--sigma", 0.0), ("--amp-errors", False),
                          ("--init-delta", 0.0)]
]
SEED = ("run", ("--seed",), 42, False)
REALIZATIONS = ("run", ("--realizations",), 1, False)
NORMALIZE = ("run", ("--normalize",), False, False)
OUT = ("run", ("--out",), None, True)
BOUND = ("options", ("--multiplier-bound",), 64, False)
SPECTRUM_OPTIONS = HELP + INSTANCE + MODEL + [SEED, NORMALIZE, OUT]


class TestOptionTable:
    def test_every_command_option(self) -> None:
        assert option_table() == {
            "spectrum": SPECTRUM_OPTIONS,
            "circuit": SPECTRUM_OPTIONS,
            "ensemble": HELP + INSTANCE + MODEL + [SEED, REALIZATIONS, NORMALIZE, OUT],
            "sweep": HELP + [
                ("options", ("--mag-start",), 0.0, False),
                ("options", ("--mag-stop",), None, True),
                ("options", ("--mag-step",), None, True),
                ("options", ("--eta",), 0.5, False),
                BOUND,
            ] + INSTANCE + MODEL + [SEED, REALIZATIONS, OUT],
            "factor": HELP + [("options", ("--shots",), 100, False), BOUND]
            + INSTANCE[:2] + INSTANCE[4:] + MODEL + [SEED],
        }

    def test_every_option_has_help(self) -> None:
        commands = subcommands()
        for command in commands.values():
            assert all(action.help for action in command._actions)
        text = " ".join(commands["factor"].format_help().split())
        assert "a bound >= r lets classical search find r from any outcome" in text


# The one stderr line of the amplitude factors' bound, given (sum)**2.
AMPLITUDE_BOUND = (
    "the amplitude errors give coefficients whose (sum |w (1 + d)|)**2 is {}; "
    "it must be positive and below 8.99e+307"
)


class TestErrorHandling:
    def test_missing_instance_is_usage_error(self, tmp_path) -> None:
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--model", "none",
                  "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_conflicting_instance_is_usage_error(self, tmp_path) -> None:
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--N", "15", "--y", "7", "--L", "7", "--r", "4",
                  "--model", "none", "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_unknown_model_is_usage_error(self, tmp_path) -> None:
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--L", "7", "--r", "4", "--model", "bogus",
                  "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--N", "15", "--y", "7", "--model", "none",
             "--mag-stop", "1", "--mag-step", "0.1"],
            ["spectrum", "--L", "8", "--r", "3", "--N", "15"],
            ["spectrum", "--L", "8", "--r", "3", "--model", "systematic",
             "--sigma", "0.1"],
        ],
        ids=["sweep-error-free", "spectrum-two-instances", "spectrum-unread-sigma"],
    )
    def test_runner_usage_error_shows_the_command_usage(
        self, tmp_path, capsys, argv
    ) -> None:
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: shornoise {argv[0]}")

    def test_bad_seed_is_usage_error(self, tmp_path) -> None:
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--L", "7", "--r", "4", "--model", "none",
                  "--seed", "xyz", "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_largest_seed_runs(self, tmp_path) -> None:
        code, out = run_spectrum(
            tmp_path, "s.csv", "spectrum", "--L", "7", "--r", "4",
            "--model", "uniform", "--smax", "0.05", "--seed", str(2**64 - 1),
        )
        assert code == 0
        assert f"seed={2**64 - 1}\n" in Path(out + ".meta").read_text()

    @pytest.mark.parametrize("seed", [str(2**64), str(2**64 + 1), hex(2**64)])
    def test_seed_beyond_64_bits_is_usage_error(self, tmp_path, seed) -> None:
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--L", "7", "--r", "4", "--model", "uniform",
                  "--smax", "0.05", "--seed", seed, "--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()

    def test_systematic_sweep_rejects_realizations(self, tmp_path) -> None:
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--N", "15", "--y", "7", "--model", "systematic",
                  "--mag-start", "0", "--mag-stop", "0.1", "--mag-step", "0.05",
                  "--realizations", "2", "--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--model", "none"], ["--model", "systematic", "--delta0", "0.05"],
         ["--model", "uniform"], ["--model", "gaussian", "--delta0", "0.01"]],
        ids=["none", "systematic", "uniform-zero-width", "gaussian-zero-width"],
    )
    def test_deterministic_ensemble_rejects_realizations(
        self, tmp_path, flags, capsys
    ) -> None:
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["ensemble", "--L", "7", "--r", "4", *flags,
                  "--realizations", "500", "--out", str(out)])
        assert info.value.code == 2
        assert "deterministic" in capsys.readouterr().err
        assert not out.exists()
        # One realization is what a deterministic ensemble runs.
        assert main(["ensemble", "--L", "7", "--r", "4", *flags,
                     "--realizations", "1", "--out", str(out)]) == 0

    def test_sweep_requires_factoring_instance(self, tmp_path) -> None:
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--L", "7", "--r", "4", "--model", "systematic",
                  "--mag-start", "0", "--mag-stop", "0.1", "--mag-step", "0.05",
                  "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_sweep_rejects_error_free_model(self, tmp_path) -> None:
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--N", "15", "--y", "7", "--model", "none",
                  "--mag-start", "0", "--mag-stop", "0.1", "--mag-step", "0.05",
                  "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    @pytest.mark.parametrize("flag", ["--delta0", "--smax", "--sigma", "--init-delta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_magnitude_is_usage_error(
        self, tmp_path, flag: str, value: str
    ) -> None:
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--L", "6", "--r", "4", "--model", "systematic",
                  flag, value, "--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [["--delta0", "5"], ["--smax", "0.1"], ["--sigma", "0.1"], ["--normalize"]],
    )
    def test_sweep_rejects_flags_it_ignores(self, tmp_path, extra) -> None:
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--N", "15", "--y", "7", "--model", "systematic",
                  "--mag-start", "0", "--mag-stop", "0.1", "--mag-step", "0.05",
                  "--out", str(tmp_path / "x.csv")] + extra)
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "extra, baseline_moves",
        [(["--amp-errors"], False), (["--init-delta", "0.1"], True)],
        ids=["amp", "init"],
    )
    def test_sweep_reads_amplitude_and_preparation_flags(
        self, tmp_path, extra, baseline_moves, capsys
    ) -> None:
        argv = ["sweep", "--N", "15", "--y", "7", "--model", "gaussian",
                "--mag-start", "0", "--mag-stop", "0.2", "--mag-step", "0.1",
                "--realizations", "2", "--multiplier-bound", "1"]
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        assert main(argv + ["--out", str(plain)]) == 0
        assert main(argv + ["--out", str(flagged)] + extra) == 0
        assert capsys.readouterr().out.startswith("sweep: threshold=")
        # Rows 1-3 hold magnitudes 0, 0.1 and 0.2. Amplitude errors vanish
        # at width 0; the preparation weights do not.
        plain_rows = plain.read_text().splitlines()
        flagged_rows = flagged.read_text().splitlines()
        assert (plain_rows[1] != flagged_rows[1]) == baseline_moves
        assert plain_rows[2] != flagged_rows[2]
        assert plain_rows[3] != flagged_rows[3]

    @pytest.mark.parametrize(
        "mode, flag",
        [("systematic", "--delta0"), ("uniform", "--smax"), ("gaussian", "--sigma")],
    )
    def test_sweep_rejects_the_width_it_sets(
        self, tmp_path, capsys, mode, flag
    ) -> None:
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--N", "15", "--y", "7", "--model", mode, flag, "0.01",
                  "--mag-stop", "0.1", "--mag-step", "0.05", "--out", str(out)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: shornoise sweep")
        assert f"a {mode} sweep sets" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "span",
        [["--mag-start", "0.2", "--mag-stop", "0.1"],
         ["--mag-start", "-0.1", "--mag-stop", "0.1"],
         ["--mag-start", "0", "--mag-stop", "inf"]],
    )
    def test_sweep_bad_magnitude_range_is_usage_error(self, tmp_path, span) -> None:
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--N", "15", "--y", "7", "--model", "systematic",
                  "--mag-step", "0.05", "--out", str(tmp_path / "x.csv")] + span)
        assert info.value.code == 2

    def test_sweep_grid_too_fine_to_count_is_usage_error(self, tmp_path) -> None:
        # (stop - start) / step overflows to inf, which has no grid size.
        # Run as a process, so an uncaught error would print its traceback.
        out = tmp_path / "x.csv"
        done = run_process(
            "sweep", "--N", "15", "--y", "7", "--model", "gaussian",
            "--mag-stop", "1e308", "--mag-step", "1e-308", "--out", str(out),
        )
        assert done.returncode == 2
        assert "error: (--mag-stop - --mag-start) / --mag-step must be finite" in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()

    def test_sweep_stop_off_the_grid_is_usage_error(self, tmp_path, capsys) -> None:
        # 0.27 is 2.7 steps of 0.1: a grid rounded to 3 steps would end at 0.3.
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--N", "15", "--y", "7", "--model", "systematic",
                  "--mag-stop", "0.27", "--mag-step", "0.1",
                  "--multiplier-bound", "1", "--out", str(out)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: shornoise sweep")
        assert err.endswith(
            "error: (--mag-stop - --mag-start) / --mag-step must be a whole "
            "number, got 2.7\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "start, stop, step, count",
        # 2.9999999999999996, 5.999999999999999 and 29.999999999999996 steps.
        [("0", "0.3", "0.1", 4), ("0.1", "0.7", "0.1", 7), ("0", "3e-4", "1e-5", 31)],
    )
    def test_sweep_stop_within_rounding_of_the_grid_ends_it(
        self, tmp_path, start, stop, step, count
    ) -> None:
        code, out = run_spectrum(
            tmp_path, "w.csv", "sweep", "--N", "15", "--y", "7",
            "--model", "systematic", "--mag-start", start, "--mag-stop", stop,
            "--mag-step", step, "--multiplier-bound", "1",
        )
        assert code == 0
        rows = Path(out).read_text().splitlines()[1:-1]
        assert len(rows) == count
        assert float(rows[-1].split(",")[0]) == pytest.approx(float(stop))

    def test_sweep_grid_over_a_million_points_is_usage_error(
        self, tmp_path, capsys
    ) -> None:
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--N", "15", "--y", "7", "--model", "gaussian",
                  "--mag-stop", "1", "--mag-step", "1e-7", "--out", str(out)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "usage: shornoise sweep" in err
        assert "the magnitude grid has 10000001 points, more than 1000000" in err
        assert not out.exists()

    def test_sweep_multiplier_bound_below_one_is_usage_error(self, tmp_path) -> None:
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--N", "15", "--y", "7", "--model", "systematic",
                  "--mag-start", "0", "--mag-stop", "0.1", "--mag-step", "0.05",
                  "--multiplier-bound", "0", "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_ensemble_realizations_below_one_is_usage_error(
        self, tmp_path, count
    ) -> None:
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["ensemble", "--L", "7", "--r", "4", "--model", "uniform",
                  "--smax", "0.01", "--realizations", count, "--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [["--realizations", "0"], ["--realizations", "-2"],
         ["--eta", "0"], ["--eta", "-0.5"], ["--eta", "1.5"]],
    )
    def test_sweep_bad_realizations_or_eta_is_usage_error(
        self, tmp_path, extra
    ) -> None:
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--N", "15", "--y", "7", "--model", "uniform",
                  "--mag-start", "0", "--mag-stop", "0.1", "--mag-step", "0.05",
                  "--out", str(out)] + extra)
        assert info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "circuit"])
    def test_single_spectrum_rejects_realizations(self, tmp_path, command) -> None:
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main([command, "--L", "7", "--r", "4", "--model", "none",
                  "--realizations", "50", "--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [["--realizations", "9"], ["--normalize"], ["--L", "9"], ["--r", "3"]],
    )
    def test_factor_rejects_flags_it_ignores(self, extra, capsys) -> None:
        with pytest.raises(SystemExit) as info:
            main(["factor", "--N", "15", "--y", "7", "--shots", "10"] + extra)
        assert info.value.code == 2
        assert "factor:" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--model", "gaussian", "--smax", "0.1"],
            ["spectrum", "--model", "none", "--delta0", "0.1"],
            ["circuit", "--model", "uniform", "--sigma", "0.1"],
            ["ensemble", "--model", "systematic", "--smax", "0.1"],
            ["spectrum", "--model", "gaussian", "--sigma", "-1"],
        ],
    )
    def test_unread_or_negative_magnitude_is_usage_error(
        self, tmp_path, argv, capsys
    ) -> None:
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(argv + ["--L", "7", "--r", "4", "--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_factor_sigma_without_gaussian_is_usage_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as info:
            main(["factor", "--N", "15", "--y", "7", "--model", "none", "--sigma", "3"])
        assert info.value.code == 2
        printed = capsys.readouterr()
        assert "factor:" not in printed.out
        assert "mode none reads no sigma0" in printed.err

    def test_spectrum_amplitude_errors_without_model_is_usage_error(
        self, tmp_path, capsys
    ) -> None:
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--L", "7", "--r", "4", "--model", "none",
                  "--amp-errors", "--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()
        assert "mode none draws no amplitude errors" in capsys.readouterr().err

    def test_factor_amplitude_errors_without_model_is_usage_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as info:
            main(["factor", "--N", "15", "--y", "7", "--model", "none",
                  "--amp-errors", "--seed", "1"])
        assert info.value.code == 2
        printed = capsys.readouterr()
        assert "factor:" not in printed.out
        assert "mode none draws no amplitude errors" in printed.err

    @pytest.mark.parametrize("argv", [[], ["--N", "15"], ["--y", "7", "--l", "1"]])
    def test_factor_needs_modulus_and_base(self, argv, capsys) -> None:
        with pytest.raises(SystemExit) as info:
            main(["factor", *argv])
        assert info.value.code == 2
        printed = capsys.readouterr()
        assert "factor:" not in printed.out
        assert printed.err.endswith("error: --N and --y must be given together\n")
        assert "--L" not in printed.err and "--r" not in printed.err

    @pytest.mark.parametrize("given", [["--L", "7"], ["--r", "4"]])
    def test_synthetic_instance_needs_width_and_period(
        self, tmp_path, given, capsys
    ) -> None:
        with pytest.raises(SystemExit) as info:
            main(["spectrum", *given, "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: shornoise spectrum")
        assert err.endswith("error: --L and --r must be given together\n")

    @pytest.mark.parametrize("step", ["0", "-0.05"])
    def test_sweep_step_must_be_positive(self, tmp_path, step, capsys) -> None:
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--N", "15", "--y", "7", "--model", "systematic",
                  "--mag-stop", "0.1", "--mag-step", step, "--out", str(out)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: shornoise sweep")
        assert err.endswith("error: --mag-step must be positive\n")
        assert not out.exists()

    def test_factor_multiplier_bound_below_one_is_usage_error(self) -> None:
        with pytest.raises(SystemExit) as info:
            main(["factor", "--N", "15", "--y", "7", "--multiplier-bound", "0"])
        assert info.value.code == 2

    def test_invalid_problem_returns_one(self, tmp_path, capsys) -> None:
        code = main(["spectrum", "--N", "4", "--y", "2", "--model", "none",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_output_returns_one(self, capsys) -> None:
        code = main(["spectrum", "--L", "7", "--r", "4", "--model", "none",
                     "--out", "/nonexistent/dir/a.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_overflowing_init_delta_returns_one(self, tmp_path, capsys) -> None:
        # The preparation weights' (sum |w|)**2 reaches half the largest float
        # from about 1.2e152 at L = 7, r = 4; filterwarnings = error fails the
        # test on a numpy warning.
        out = tmp_path / "z.csv"
        code = main(["circuit", "--L", "7", "--r", "4", "--model", "none",
                     "--init-delta", "1e300", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "init_delta" in err
        assert not out.exists()
        assert not (tmp_path / "z.csv.meta").exists()

    @pytest.mark.parametrize(
        "argv, init_delta, norm",
        [
            (["spectrum", "--L", "7", "--r", "4"], "1e300", "inf"),
            (["ensemble", "--L", "7", "--r", "4"], "1e300", "inf"),
            # The one support value 0 has weight 1 - 2 * 0.5 = 0.
            (["spectrum", "--L", "2", "--r", "4"], "0.5", "0"),
            (["ensemble", "--L", "2", "--r", "4"], "0.5", "0"),
            (["circuit", "--L", "2", "--r", "4"], "0.5", "0"),
            # The weights themselves overflow.
            (["spectrum", "--L", "7", "--r", "4"], "1e308", "inf"),
            (["ensemble", "--L", "7", "--r", "4"], "1e308", "inf"),
            (["circuit", "--L", "7", "--r", "4"], "1e308", "inf"),
            (["factor", "--N", "15", "--y", "7"], "1e308", "inf"),
            # The squared norm is finite, the bound (sum |w|)**2 on |Z|**2 not.
            (["spectrum", "--L", "7", "--r", "4"], "5e152", "inf"),
            (["circuit", "--L", "7", "--r", "4"], "5e152", "inf"),
            (["ensemble", "--L", "7", "--r", "4"], "5e152", "inf"),
            (["circuit", "--N", "15", "--y", "7"], "5e152", "inf"),
        ],
    )
    def test_unnormalizable_preparation_weights_fail_alike_on_every_route(
        self, tmp_path, argv, init_delta, norm
    ) -> None:
        out = tmp_path / "w.csv"
        if argv[0] != "factor":
            argv = argv + ["--out", str(out)]
        done = run_process(*argv, "--model", "none", "--init-delta", init_delta)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            f"error: init_delta={float(init_delta):g} gives preparation weights "
            f"whose (sum |w|)**2 is {norm}; it must be positive and below 8.99e+307\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            # Amplitude factors 1 + 1e160 on the direct sum.
            (["spectrum", "--L", "7", "--r", "4", "--model", "systematic",
              "--delta0", "1e160", "--amp-errors"], AMPLITUDE_BOUND.format("inf")),
            (["sweep", "--N", "15", "--y", "7", "--model", "gaussian",
              "--delta0", "1e160", "--amp-errors", "--mag-stop", "0.1",
              "--mag-step", "0.05"], AMPLITUDE_BOUND.format("inf")),
            # P is finite, its square is not.
            (["ensemble", "--L", "7", "--r", "4", "--model", "gaussian",
              "--sigma", "0.01", "--init-delta", "1e152", "--realizations", "3"],
             "the realizations' probabilities or their squares overflow"),
            # Huge amplitude factors fail the same bound.
            (["spectrum", "--L", "7", "--r", "4", "--model", "gaussian",
              "--sigma", "1e160", "--amp-errors"], AMPLITUDE_BOUND.format("inf")),
            (["ensemble", "--L", "7", "--r", "4", "--model", "gaussian",
              "--sigma", "1e200", "--amp-errors", "--realizations", "3"],
             AMPLITUDE_BOUND.format("inf")),
            (["sweep", "--N", "15", "--y", "7", "--model", "gaussian",
              "--amp-errors", "--mag-stop", "1e160", "--mag-step", "1e160"],
             AMPLITUDE_BOUND.format("inf")),
            # Every amplitude factor 1 + d_j is 1 - 1 = 0.
            (["spectrum", "--L", "7", "--r", "4", "--model", "systematic",
              "--delta0", "-1", "--amp-errors"], AMPLITUDE_BOUND.format("0")),
            (["ensemble", "--L", "7", "--r", "4", "--model", "systematic",
              "--delta0", "-1", "--amp-errors"], AMPLITUDE_BOUND.format("0")),
            (["sweep", "--N", "15", "--y", "7", "--model", "gaussian", "--delta0",
              "-1", "--amp-errors", "--mag-stop", "0.1", "--mag-step", "0.05"],
             AMPLITUDE_BOUND.format("0")),
        ],
        ids=["spectrum", "sweep", "ensemble", "spectrum-amp", "ensemble-amp",
             "sweep-amp", "spectrum-zero", "ensemble-zero", "sweep-zero"],
    )
    def test_overflowing_probabilities_fail_without_a_warning(
        self, tmp_path, argv, message
    ) -> None:
        out = tmp_path / "w.csv"
        done = run_process(*argv, "--out", str(out))
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"error: {message}\n"
        assert not out.exists()

    def test_overflowing_phase_angles_fail_alike(self, tmp_path) -> None:
        # Each uniform phase error is finite, but not its product with a
        # support value up to 1,023.
        runs = [
            ["spectrum", "--L", "10", "--r", "3"],
            ["ensemble", "--L", "10", "--r", "3", "--realizations", "2"],
            ["sweep", "--N", "31", "--y", "3", "--mag-stop", "2e306",
             "--mag-step", "1e306"],
        ]
        for argv in runs:
            out = tmp_path / "p.csv"
            smax = [] if argv[0] == "sweep" else ["--smax", "1e306"]
            done = run_process(*argv, "--model", "uniform", *smax, "--out", str(out))
            assert done.returncode == 1
            assert done.stdout == ""
            assert done.stderr == (
                "error: phase_errors must be finite, as must each phase error "
                "times its support value\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize("errors", [["--delta0", "-1"], ["--sigma", "1e160"]],
                             ids=["zero", "huge"])
    def test_circuit_takes_any_finite_amplitude_error(self, tmp_path, errors) -> None:
        # There an amplitude error is an A-gate rotation angle: unitary.
        out = tmp_path / "w.csv"
        done = run_process("circuit", "--L", "7", "--r", "4", "--model", "gaussian",
                           *errors, "--amp-errors", "--out", str(out))
        assert done.returncode == 0
        assert done.stderr == ""
        assert read_spectrum_csv(out).sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "argv",
        [["circuit", "--init-delta", "1e152"], ["spectrum", "--init-delta", "1e152"],
         ["ensemble", "--init-delta", "1e152"]],
        ids=["circuit", "spectrum", "ensemble"],
    )
    def test_huge_normalizable_preparation_weights_run(self, tmp_path, argv) -> None:
        # Below about 1.2e152 the bound (sum |w|)**2 on |Z|**2 keeps P finite.
        # The ensemble squares only deviations from its first realization,
        # here all zero.
        out = tmp_path / "w.csv"
        done = run_process(*argv, "--L", "7", "--r", "4", "--model", "none",
                           "--out", str(out))
        assert done.returncode == 0
        assert done.stderr == ""
        assert np.isfinite(read_spectrum_csv(out)).all()


SWEEP = ["sweep", "--N", "15", "--y", "7", "--mag-stop", "0.1", "--mag-step", "0.05"]
GAUSSIAN_SWEEP = [*SWEEP, "--model", "gaussian"]
SPECTRUM = ["spectrum", "--L", "7", "--r", "4"]
FACTOR = ["factor", "--N", "15", "--y", "7"]

# Arguments the library rejects before any work, with its message.
LIBRARY_USAGE_ERRORS = [
    ([*SWEEP, "--model", "gaussian", "--sigma", "0.1"],
     "a gaussian sweep sets sigma0 itself; need a systematic, uniform, or "
     "gaussian model of width 0"),
    ([*SWEEP, "--model", "none"],
     "a sweep needs a systematic, uniform, or gaussian model"),
    ([*SWEEP, "--model", "systematic", "--realizations", "2"],
     "a systematic sweep is deterministic; need n_realizations=1"),
    (["sweep", "--L", "7", "--r", "4", "--model", "gaussian",
      "--mag-stop", "0.1", "--mag-step", "0.05"],
     "threshold_sweep needs an instance with modulus and base"),
    ([*GAUSSIAN_SWEEP, "--eta", "0"], "eta must be in (0, 1], got 0.0"),
    ([*GAUSSIAN_SWEEP, "--eta", "1.5"], "eta must be in (0, 1], got 1.5"),
    ([*GAUSSIAN_SWEEP, "--eta", "nan"], "eta must be in (0, 1], got nan"),
    ([*GAUSSIAN_SWEEP, "--mag-start", "-0.1"],
     "magnitudes must be finite and >= 0"),
    ([*GAUSSIAN_SWEEP, "--realizations", "0"],
     "n_realizations must be >= 1, got 0"),
    ([*GAUSSIAN_SWEEP, "--multiplier-bound", "0"],
     "multiplier_bound must be >= 1, got 0"),
    (["ensemble", "--L", "7", "--r", "4", "--model", "gaussian",
      "--sigma", "0.1", "--realizations", "0"],
     "n_realizations must be >= 1, got 0"),
    (["ensemble", "--L", "7", "--r", "4", "--realizations", "2"],
     "the model is deterministic; need n_realizations=1"),
    ([*FACTOR, "--shots", "0"], "shots must be >= 1, got 0"),
    ([*FACTOR, "--multiplier-bound", "0"],
     "multiplier_bound must be >= 1, got 0"),
    *(
        ([*SPECTRUM, "--model", "gaussian", flag, value],
         f"{field} must be finite, got {value}")
        for flag, field in [("--delta0", "delta0"), ("--smax", "s_max"),
                            ("--sigma", "sigma0"), ("--init-delta", "init_delta")]
        for value in ("nan", "inf")
    ),
    # Instance values out of range; a base sharing a factor with N
    # is a runtime failure (test_invalid_problem_returns_one).
    (["spectrum", "--L", "30", "--r", "4"], "n_qubits must be in [1, 24], got 30"),
    ([*SPECTRUM, "--l", "9"], "offset must satisfy 0 <= offset < order, got 9"),
    (["spectrum", "--L", "7", "--r", "0"],
     "order must be in [1, register_size], got 0"),
    (["spectrum", "--N", "15", "--y", "20"],
     "need 2 <= base < modulus, got base=20"),
    # A modulus too wide for the register fails before its order search.
    (["factor", "--N", "2000003", "--y", "3"],
     "modulus 2000003 needs 42 qubits; the widest register has 24"),
    (["factor", "--N", "1048573", "--y", "2"],
     "modulus 1048573 needs 40 qubits; the widest register has 24"),
    (["sweep", "--N", "2000003", "--y", "3", "--model", "gaussian",
      "--mag-stop", "0.1", "--mag-step", "0.05"],
     "modulus 2000003 needs 42 qubits; the widest register has 24"),
]


class TestProcessEntry:
    """`python -m shornoise.cli` against main(argv) in this process.

    The process entry (argv None) freezes the collector once it has
    parsed and loaded the library; these pin that its exit codes and
    output stay those of main(argv).
    """

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch) -> None:
        # argparse wraps help to the terminal width; both sides read COLUMNS.
        monkeypatch.setenv("COLUMNS", "80")

    def in_process(self, capsys, *argv: str) -> tuple[int, str, str]:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        printed = capsys.readouterr()
        return code, printed.out, printed.err

    def assert_same_as_process(self, capsys, *argv: str) -> tuple[int, str, str]:
        expected = self.in_process(capsys, *argv)
        done = run_process(*argv)
        assert (done.returncode, done.stdout, done.stderr) == expected
        return expected

    def test_help(self, capsys) -> None:
        code, out, err = self.assert_same_as_process(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: shornoise")
        assert err == ""

    def test_usage_error(self, capsys) -> None:
        code, out, err = self.assert_same_as_process(
            capsys, "spectrum", "--L", "7", "--r", "4"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage: shornoise spectrum")
        assert err.endswith("error: the following arguments are required: --out\n")

    def test_runtime_error(self, tmp_path, capsys) -> None:
        out_path = tmp_path / "missing" / "s.csv"
        code, out, err = self.assert_same_as_process(
            capsys, "spectrum", "--L", "7", "--r", "4", "--out", str(out_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: [Errno 2] No such file or directory")

    def test_spectrum_run_writes_what_main_writes(self, tmp_path, capsys) -> None:
        # ~13k noise-floor peaks: a summary line larger than a pipe's buffer.
        argv = ["spectrum", "--L", "16", "--r", "4", "--model", "uniform",
                "--smax", "1e-2", "--seed", "3"]
        code, out, err = self.in_process(
            capsys, *argv, "--out", str(tmp_path / "a.csv")
        )
        done = run_process(*argv, "--out", str(tmp_path / "b.csv"))
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
        assert code == 0 and err == ""
        assert len(out.encode()) > 1 << 17
        assert out.startswith("spectrum: peaks at [") and out.endswith("]\n")
        for suffix in (".csv", ".csv.meta"):
            written = (tmp_path / f"b{suffix}").read_bytes()
            assert written == (tmp_path / f"a{suffix}").read_bytes()

    @pytest.mark.parametrize("argv, message", LIBRARY_USAGE_ERRORS)
    def test_library_usage_error(self, tmp_path, capsys, argv, message) -> None:
        # The library raises these; main prints them under the command's
        # usage and exits 2, in this process and as its own.
        out = tmp_path / "x.csv"
        if argv[0] != "factor":
            argv = [*argv, "--out", str(out)]
        code, printed, err = self.assert_same_as_process(capsys, *argv)
        assert code == 2
        assert printed == ""
        assert err.startswith(f"usage: shornoise {argv[0]}")
        assert err.endswith(f"shornoise {argv[0]}: error: {message}\n")
        assert not out.exists()

    def test_process_entry_freezes_the_collector(self) -> None:
        # Frozen objects sit in no collected generation, so the module
        # dicts of numpy and of the library must be missing from them.
        done = run_python(
            "-c",
            "import gc, sys\n"
            "from shornoise.cli import main\n"
            "sys.argv = ['shornoise', 'factor', '--N', '15', '--y', '7']\n"
            "main()\n"
            "collected = {id(obj) for obj in gc.get_objects()}\n"
            f"names = ['numpy', *{LIBRARY_MODULES}]\n"
            "print([n for n in names if id(vars(sys.modules[n])) in collected])\n"
            "print(gc.get_freeze_count())",
        )
        assert done.returncode == 0, done.stderr
        unfrozen, frozen = done.stdout.splitlines()[-2:]
        assert unfrozen == "[]"
        # Every object alive once numpy and the library are imported.
        imported = run_python(
            "-c",
            "import gc, importlib\n"
            f"for name in ['shornoise.cli', *{LIBRARY_MODULES}]:\n"
            "    importlib.import_module(name)\n"
            "gc.collect()\n"
            "print(len(gc.get_objects()))",
        )
        assert imported.returncode == 0, imported.stderr
        assert int(frozen) >= int(imported.stdout)

    def test_help_and_usage_errors_load_no_library(self) -> None:
        # The process entry parses before it imports numpy or the library.
        cases = [
            ["--help"],
            *([command, "--help"] for command in subcommands()),
            ["spectrum", "--L", "7", "--r", "4"],
            ["factor", "--N", "15", "--y", "7", "--seed", "xyz"],
        ]
        done = run_python(
            "-c",
            "import json, sys\n"
            "from shornoise.cli import main\n"
            "report = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    sys.argv = ['shornoise', *argv]\n"
            "    try:\n"
            "        main()\n"
            "    except SystemExit as exc:\n"
            "        report.append(exc.code)\n"
            "    report.append(sorted(\n"
            "        name for name in sys.modules\n"
            "        if name.split('.')[0] == 'numpy'\n"
            "        or name.startswith('shornoise.') and name != 'shornoise.cli'\n"
            "    ))\n"
            "print(json.dumps(report))",
            json.dumps(cases),
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report == [0, []] * 6 + [2, []] * 2

    def test_main_with_argv_keeps_the_collector(self, tmp_path, capsys) -> None:
        frozen = gc.get_freeze_count()
        code = main(
            ["spectrum", "--L", "7", "--r", "4", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 0
        assert gc.get_freeze_count() == frozen


class TestLazyPackage:
    """`shornoise` imports each public name and submodule on first use."""

    HOMES = {
        "numth": ["ShorInstance", "recover_orders"],
        "errmodel": ["ErrorMode", "ErrorModel"],
        "spectrum": ["Spectrum", "SpectrumMethod", "direct_spectrum",
                     "model_spectrum", "systematic_spectrum_closed_form",
                     "total_variation_distance"],
        "qcircuit": ["circuit_spectrum"],
        "experiment": ["ensemble_spectrum", "factor", "peak_report",
                       "success_probability", "threshold_sweep"],
    }

    def test_import_loads_no_submodule(self) -> None:
        done = run_python(
            "-c",
            "import sys\n"
            "import shornoise\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.split('.')[0] in ('numpy', 'shornoise')))",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "['shornoise']"

    def test_each_public_name_is_its_modules(self) -> None:
        import shornoise

        names = [name for names in self.HOMES.values() for name in names]
        assert sorted(shornoise.__all__) == sorted(names) and len(names) == 16
        for module, names in self.HOMES.items():
            home = importlib.import_module(f"shornoise.{module}")
            assert getattr(shornoise, module) is home
            for name in names:
                assert getattr(shornoise, name) is getattr(home, name)
        assert set(shornoise.__all__) | set(self.HOMES) <= set(dir(shornoise))

    def test_star_import_binds_every_public_name(self) -> None:
        import shornoise

        namespace: dict = {}
        exec("from shornoise import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(shornoise.__all__)
        assert all(namespace[name] is getattr(shornoise, name) for name in namespace)

    def test_unknown_attribute_is_named(self) -> None:
        import shornoise

        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            shornoise.no_such_name
