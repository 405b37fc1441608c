"""End-to-end tests for the command line interface.

Commands run in process through main(argv), except where stderr itself
is checked. Usage errors surface as SystemExit(2) from the argument
parser; runtime failures return 1; success returns 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from shornoise.cli import main
from shornoise.errmodel import ErrorMode, ErrorModel
from spectrum_csv import read_spectrum_csv

ROOT = Path(__file__).resolve().parent.parent


def run_spectrum(tmp_path, name: str, *args: str) -> tuple[int, str]:
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, str(out)


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
        [["--delta0", "5"], ["--smax", "0.1"], ["--sigma", "0.1"],
         ["--amp-errors"], ["--init-delta", "0.1"], ["--normalize"]],
    )
    def test_sweep_rejects_flags_it_ignores(self, tmp_path, extra) -> None:
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--N", "15", "--y", "7", "--model", "systematic",
                  "--mag-start", "0", "--mag-stop", "0.1", "--mag-step", "0.05",
                  "--out", str(tmp_path / "x.csv")] + extra)
        assert info.value.code == 2

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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-m", "shornoise.cli", "sweep", "--N", "15", "--y", "7",
             "--model", "gaussian", "--mag-stop", "1e308", "--mag-step", "1e-308",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert "error: (--mag-stop - --mag-start) / --mag-step must be finite" in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()

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
        # The preparation weights' squared norm overflows from about 1e154
        # at L = 7; filterwarnings = error fails the test on a numpy warning.
        out = tmp_path / "z.csv"
        code = main(["circuit", "--L", "7", "--r", "4", "--model", "none",
                     "--init-delta", "1e300", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "init_delta" in err
        assert not out.exists()
        assert not (tmp_path / "z.csv.meta").exists()
