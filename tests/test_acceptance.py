"""Acceptance gate for the package.

Each test exercises one headline behavior end to end and prints a single
summary line on success, so a verbose run reads as a checklist. Numeric
tolerances are stated inline next to each assertion.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from shornoise.cli import main
from shornoise.errmodel import ErrorMode, ErrorModel
from shornoise.experiment import (
    ensemble_spectrum,
    peak_report,
    success_probability,
    threshold_sweep,
)
from shornoise.numth import ShorInstance
from shornoise.qcircuit import GateErrorPlan, qft_noisy
from shornoise.spectrum import (
    direct_spectrum,
    systematic_spectrum_closed_form,
    total_variation_distance,
)
from spectrum_csv import read_spectrum_csv

STANDARD = ShorInstance.synthetic_instance(7, 4)


def test_01_cli_noiseless_spectrum_is_fast_and_exact(tmp_path, capsys) -> None:
    out = tmp_path / "spec.csv"
    start = time.perf_counter()
    code = main(["spectrum", "--L", "7", "--r", "4", "--model", "none",
                 "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0
    values = read_spectrum_csv(out)
    assert len(values) == 128
    for c in range(128):
        if c % 32 == 0:
            assert values[c] == pytest.approx(0.25, abs=1e-12)
        else:
            assert abs(values[c]) <= 1e-12
    assert (tmp_path / "spec.csv.meta").exists()
    capsys.readouterr()
    print(f"PASS 1/10: CLI noiseless run in {elapsed:.2f}s with exact "
          "0.25 peaks at multiples of 32")


def test_02_closed_form_matches_direct_summation() -> None:
    worst = 0.0
    for delta in (0.02, 0.03, 0.05, 0.1, 0.33):
        for offset in range(4):
            inst = ShorInstance.synthetic_instance(7, 4, offset=offset)
            closed = systematic_spectrum_closed_form(inst, delta).values
            direct = direct_spectrum(
                inst, np.full(inst.support_count, delta)
            ).values
            worst = max(worst, float(np.abs(closed - direct).max()))
    assert worst < 1e-9
    print(f"PASS 2/10: closed form matches direct summation to {worst:.2e} "
          "over 5 error sizes and 4 offsets")


def test_03_systematic_error_shifts_peaks_by_predicted_amount() -> None:
    delta, q, r = 0.05, 128, 4
    report = peak_report(systematic_spectrum_closed_form(STANDARD, delta))
    assert report.positions() == [31, 63, 95, 127]
    assert report.shifts == [-1, -1, -1, -1]
    predicted = sorted(
        round(k * q / r - delta * q / (2 * math.pi)) % q for k in range(r)
    )
    assert report.positions() == predicted
    print("PASS 3/10: delta=0.05 moves every peak to "
          "round(k*q/r - delta*q/(2*pi)) mod q, one bin left")


def test_04_tiny_error_stays_on_analytic_branch() -> None:
    spec = systematic_spectrum_closed_form(STANDARD, 1e-8)
    for k in range(4):
        assert spec.values[32 * k] == pytest.approx(0.25, abs=1e-6)
    print("PASS 4/10: delta=1e-8 gives closed-form peaks "
          "within 1e-6 of 0.25")


def test_05_circuit_reproduces_transform_and_error_scaling() -> None:
    n, q = 7, 128
    c_grid, a_grid = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    dense = np.exp(2j * np.pi * c_grid * a_grid / q) / np.sqrt(q)
    plan = GateErrorPlan(n, np.zeros(n), np.zeros(n * (n - 1) // 2))
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        amps = rng.normal(size=q) + 1j * rng.normal(size=q)
        amps /= np.linalg.norm(amps)
        expected = dense @ amps
        got = qft_noisy(amps, plan)
        worst = max(worst, float(np.abs(got - expected).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    base = direct_spectrum(STANDARD, np.zeros(STANDARD.support_count))
    tv_large = total_variation_distance(
        systematic_spectrum_closed_form(STANDARD, 0.01), base
    )
    tv_small = total_variation_distance(
        systematic_spectrum_closed_form(STANDARD, 0.005), base
    )
    ratio = tv_large / tv_small
    assert 3.0 <= ratio <= 5.0
    print(f"PASS 5/10: zero-error circuit matches the dense transform to "
          f"{worst:.2e} in {elapsed:.2f}s; halving delta cuts TV by "
          f"{ratio:.2f}x (near-quadratic)")


def test_06_uniform_ensemble_mean_keeps_reference_peaks() -> None:
    model = ErrorModel(ErrorMode.UNIFORM, s_max=0.01)
    mean, _ = ensemble_spectrum(STANDARD, model, 100, 42)
    top4 = sorted(int(c) for c in np.argsort(mean.values)[-4:])
    for got, ref in zip(top4, (0, 32, 64, 96)):
        assert min(abs(got - ref), 128 - abs(got - ref)) <= 1
    print(f"PASS 6/10: 100-member uniform ensemble keeps its four largest "
          f"bins at {top4}, within one bin of the ideal peaks")


def test_07_gaussian_spread_disturbs_more_than_bounded_spread() -> None:
    base = direct_spectrum(STANDARD, np.zeros(STANDARD.support_count))
    mean_u, _ = ensemble_spectrum(
        STANDARD, ErrorModel(ErrorMode.UNIFORM, s_max=0.05), 200, 42
    )
    mean_g, _ = ensemble_spectrum(
        STANDARD, ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.05), 200, 42
    )
    tv_uniform = total_variation_distance(mean_u, base)
    tv_gaussian = total_variation_distance(mean_g, base)
    assert tv_gaussian > tv_uniform
    assert tv_uniform == pytest.approx(0.9209176112800869, abs=1e-9)
    assert tv_gaussian == pytest.approx(0.9284297138475794, abs=1e-9)
    print(f"PASS 7/10: gaussian spread 0.05 disturbs the mean spectrum more "
          f"than the bounded spread (TV {tv_gaussian:.4f} > {tv_uniform:.4f})")


def test_08_noiseless_order_recovery_succeeds_and_factors(capsys) -> None:
    inst = ShorInstance.from_factoring(15, 7)
    spec = direct_spectrum(inst, np.zeros(inst.support_count))
    tight = success_probability(spec, multiplier_bound=1)
    assert tight == pytest.approx(0.5, abs=1e-9)
    wide = success_probability(spec, multiplier_bound=4)
    assert wide == pytest.approx(1.0, abs=1e-9)
    code = main(["factor", "--N", "15", "--y", "7", "--shots", "100",
                 "--seed", "1"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "recovered r=4" in printed
    assert "[3, 5]" in printed
    print("PASS 8/10: noiseless recovery hits 0.5 (tight bound) and 1.0 "
          "(wide bound); the factor command returns [3, 5]")


def test_09_threshold_sweep_finds_breakdown_point() -> None:
    inst = ShorInstance.synthetic_instance(7, 4, modulus=15, base=7)
    magnitudes = [round(0.005 * i, 10) for i in range(61)]
    sweep = threshold_sweep(
        inst, ErrorModel(ErrorMode.SYSTEMATIC), magnitudes, eta=0.5,
        multiplier_bound=1,
    )
    probs = np.asarray(sweep.success_probs)
    assert sweep.baseline == probs[0]
    assert sweep.baseline == pytest.approx(0.5, abs=1e-12)
    floor = sweep.eta * sweep.baseline
    below = [m for m, p in zip(magnitudes, probs) if p < floor]
    first_drop = below[0]
    assert sweep.threshold == pytest.approx(0.265, abs=1e-12)
    assert first_drop == pytest.approx(0.27, abs=1e-12)
    assert first_drop > math.pi / 128
    tail = probs[magnitudes.index(first_drop):]
    assert np.all(tail < floor)
    print(f"PASS 9/10: recovery holds to magnitude {sweep.threshold}, drops "
          f"below half its baseline at {first_drop}, and never recovers")


def test_10_seeded_runs_are_byte_identical(tmp_path, capsys) -> None:
    spec_args = ["spectrum", "--L", "7", "--r", "4", "--model", "uniform",
                 "--smax", "0.05", "--seed", "123"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(spec_args + ["--out", str(a)]) == 0
    assert main(spec_args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    sweep_args = ["sweep", "--N", "15", "--y", "7", "--model", "gaussian",
                  "--mag-start", "0", "--mag-stop", "0.1",
                  "--mag-step", "0.02", "--realizations", "3", "--seed", "9"]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(sweep_args + ["--out", str(c)]) == 0
    assert main(sweep_args + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    capsys.readouterr()
    print("PASS 10/10: seeded spectrum and sweep commands reproduce "
          "byte-identical output files")
