"""Tests for peak analysis, ensembles, order recovery, sweeps, and factoring."""

from __future__ import annotations

import importlib.util
import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prng_oracle import amplitude_errors, phase_errors
from recovery_oracle import COPRIME_PAIRS, recover_order

from shornoise import experiment
from shornoise.errmodel import (
    ErrorMode,
    ErrorModel,
    Xorshift64Star,
    derive_stream_seed,
    sample_realizations,
)
from shornoise.experiment import (
    SweepResult,
    _hit_share,
    _recovery_mask,
    ensemble_spectrum,
    factor,
    peak_report,
    success_probability,
    threshold_sweep,
    write_sweep_csv,
)
from shornoise.numth import ShorInstance, UsageError, find_order
from shornoise.qcircuit import circuit_spectrum, outcome_cdf, sample_outcomes
from shornoise.spectrum import (
    Spectrum,
    SpectrumMethod,
    direct_spectrum,
    model_spectrum,
    period_values,
    register_values,
    systematic_spectrum_closed_form,
)

STANDARD = ShorInstance.synthetic_instance(7, 4)
RECOVERABLE = ShorInstance.synthetic_instance(7, 4, modulus=15, base=7)


def exact_spectrum(inst: ShorInstance) -> Spectrum:
    """The spectrum with every gate exact: the direct sum at zero errors."""
    return direct_spectrum(inst, np.zeros(inst.support_count))


def constant_spectrum(inst: ShorInstance, value: float) -> Spectrum:
    return Spectrum(
        values=np.full(inst.register_size, value),
        method=SpectrumMethod.DIRECT_SUM,
        instance=inst,
    )


def marked_spectrum(inst: ShorInstance, positions: list[int]) -> Spectrum:
    """Height 1 at the given positions and 0 elsewhere."""
    values = np.zeros(inst.register_size)
    values[positions] = 1.0
    return Spectrum(values=values, method=SpectrumMethod.DIRECT_SUM, instance=inst)


def scalar_shifts(positions: list[int], inst: ShorInstance) -> list[int]:
    """Per peak, the rounded cyclic shift to the first nearest k*q/r.

    The references and distances are exact fractions, so a tie is a true
    tie and goes to the lower k.
    """
    q, r = inst.register_size, inst.order
    references = [Fraction(k * q, r) for k in range(r)]

    def cyclic_shift(position: int, reference: Fraction) -> Fraction:
        raw = (position - reference) % q
        return raw - q if 2 * raw > q else raw

    shifts = []
    for position in positions:
        nearest = min(references, key=lambda ref: abs(cyclic_shift(position, ref)))
        shift = cyclic_shift(position, nearest)
        assert shift.denominator != 2  # so rounding cannot go either way
        shifts.append(round(shift))
    return shifts


@st.composite
def peak_cases(draw) -> tuple[ShorInstance, list[int]]:
    """Registers with L <= 12 and 1 <= r <= q, and up to 40 marked positions.

    Half the positions are drawn next to midpoints between references, so
    ties between the two bracketing references occur.
    """
    n_qubits = draw(st.integers(1, 12))
    q = 1 << n_qubits
    order = draw(
        st.one_of(
            st.integers(1, q), st.sampled_from([1 << k for k in range(n_qubits + 1)])
        )
    )
    midpoints = st.tuples(st.integers(0, order - 1), st.integers(-1, 1)).map(
        lambda kd: ((2 * kd[0] + 1) * q // (2 * order) + kd[1]) % q
    )
    positions = draw(
        st.lists(st.one_of(st.integers(0, q - 1), midpoints), min_size=1, max_size=40)
    )
    return ShorInstance.synthetic_instance(n_qubits, order), positions


def former_peaks(values: np.ndarray) -> list:
    """(position, height) of every peak, found by comparing whole rolled copies."""
    left = np.roll(values, 1)
    right = np.roll(values, -1)
    is_peak = (
        (values >= left)
        & (values >= right)
        & ((values > left) | (values > right))
        & (values >= 0.1 * float(np.max(values)))
    )
    positions = np.nonzero(is_peak)[0]
    return list(zip(positions.tolist(), values[positions].tolist()))


@st.composite
def ensemble_cases(draw) -> tuple[ShorInstance, ErrorModel, int, int]:
    """Register shapes with L <= 9 and models of every kind, for the ensemble.

    Orders are multiples of 1, 2, 4 or 32 (so g = gcd(r, q) > 1 is common)
    or q itself (M = 1), with any offset < r. Models are uniform, gaussian
    or systematic (deterministic, so its count is 1), with or without
    amplitude errors and a preparation error.
    """
    n_qubits = draw(st.integers(1, 9))
    q = 1 << n_qubits
    step = draw(st.sampled_from([f for f in (1, 2, 4, 32) if f <= q]))
    multiples = st.integers(1, q // step).map(lambda k: k * step)
    order = draw(st.one_of(multiples, st.just(q)))
    offset = draw(st.integers(0, order - 1))
    inst = ShorInstance.synthetic_instance(n_qubits, order, offset=offset)
    widths = {
        ErrorMode.UNIFORM: "s_max",
        ErrorMode.GAUSSIAN: "sigma0",
        ErrorMode.SYSTEMATIC: "delta0",
    }
    mode = draw(st.sampled_from(list(widths)))
    magnitude = draw(st.sampled_from([1e-4, 1e-2, 1.0]))
    model = ErrorModel(
        mode=mode,
        include_amplitude_errors=draw(st.booleans()),
        init_delta=draw(st.sampled_from([0.0, 0.03])),
        **{widths[mode]: magnitude},
    )
    count = 1 if model.deterministic else draw(st.integers(1, 6))
    return inst, model, count, draw(st.integers(0, 2**64 - 1))


def former_ensemble(
    inst: ShorInstance, model: ErrorModel, n_realizations: int, master_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std summed over the whole register, one direct sum per realization.

    The std comes from deviations from the first realization, in the
    arithmetic order of `ensemble_spectrum`.
    """
    m = inst.support_count
    total = np.zeros(inst.register_size)
    dev = np.zeros(inst.register_size)
    dev_sq = np.zeros(inst.register_size)
    for i in range(n_realizations):
        seed = derive_stream_seed(master_seed, i)
        phase = phase_errors(model, m, seed)
        amp = amplitude_errors(model, m, seed)
        values = direct_spectrum(inst, phase, amp, model.init_delta).values
        if i == 0:
            first = values
        total += values
        dev += values - first
        dev_sq += np.square(values - first)
    variance = np.maximum(
        dev_sq / n_realizations - np.square(dev / n_realizations), 0.0
    )
    return total / n_realizations, np.sqrt(variance)


def same_bits(first: np.ndarray, second: np.ndarray) -> bool:
    return np.array_equal(first.view(np.uint64), second.view(np.uint64))


class TestPeakReport:
    def test_noiseless_peaks(self) -> None:
        report = peak_report(exact_spectrum(STANDARD))
        assert report.positions() == [0, 32, 64, 96]
        assert report.shifts == [0, 0, 0, 0]

    def test_systematic_error_shifts_peaks(self) -> None:
        report = peak_report(systematic_spectrum_closed_form(STANDARD, 0.05))
        assert report.positions() == [31, 63, 95, 127]
        assert report.shifts == [-1, -1, -1, -1]

    def test_flat_spectrum_has_no_peaks(self) -> None:
        report = peak_report(constant_spectrum(STANDARD, 1.0 / 128.0))
        assert report.positions() == []
        assert report.shifts == []

    @pytest.mark.parametrize(
        "sidelobe, positions", [(0.05, [8]), (0.0999, [8]), (0.1, [8, 40])]
    )
    def test_height_floor_drops_sidelobes(self, sidelobe, positions) -> None:
        # The floor is a tenth of the tallest peak; a peak at it counts.
        inst = ShorInstance.synthetic_instance(6, 4)
        values = np.zeros(64)
        values[8] = 1.0
        values[40] = sidelobe
        spec = Spectrum(
            values=values, method=SpectrumMethod.DIRECT_SUM, instance=inst
        )
        assert peak_report(spec).positions() == positions

    def test_wraparound_peak_counts_as_shift_minus_one(self) -> None:
        # A maximum at the last outcome sits one bin below the c = 0
        # reference once the register is read cyclically.
        inst = ShorInstance.synthetic_instance(6, 4)
        values = np.zeros(64)
        values[63] = 1.0
        spec = Spectrum(
            values=values, method=SpectrumMethod.DIRECT_SUM, instance=inst
        )
        report = peak_report(spec)
        assert report.positions() == [63]
        assert report.shifts == [-1]

    @pytest.mark.parametrize(
        "n_qubits, order, position, shift",
        [
            # 8 lies 8/3 from both 16/3 and 32/3.
            (4, 3, 8, 3),
            # 12 lies 4 from both 8 and 16, which is point 0 once more.
            (4, 2, 12, -4),
            # With one point, q/2 lies as far above it as below it.
            (4, 1, 8, 8),
        ],
    )
    def test_a_tie_goes_to_the_lower_index(
        self, n_qubits, order, position, shift
    ) -> None:
        spec = marked_spectrum(
            ShorInstance.synthetic_instance(n_qubits, order), [position]
        )
        assert peak_report(spec).shifts == [shift]

    def test_ragged_period_shifts(self) -> None:
        # Points 0, 8/3 and 16/3; 4 lies 4/3 from both of the last two.
        inst = ShorInstance.synthetic_instance(3, 3)
        shifts = [peak_report(marked_spectrum(inst, [c])).shifts for c in range(8)]
        assert shifts == [[0], [1], [-1], [0], [1], [0], [1], [-1]]

    @settings(max_examples=150)
    @given(peak_cases())
    def test_shifts_match_scalar_loop(self, case) -> None:
        inst, marked = case
        report = peak_report(marked_spectrum(inst, marked))
        assert report.shifts == scalar_shifts(report.positions(), inst)
        assert all(type(shift) is int for shift in report.shifts)

    @settings(max_examples=150)
    @given(
        n_qubits=st.integers(1, 8),
        heights=st.lists(st.integers(0, 12), min_size=256, max_size=256),
    )
    def test_peaks_match_rolled_copies(self, n_qubits, heights) -> None:
        # Small integer heights give plateaus, ties, peaks at 0 and q - 1
        # and peaks below the floor of a tenth of the maximum.
        inst = ShorInstance.synthetic_instance(n_qubits, 1)
        values = np.array(heights[: inst.register_size], dtype=float)
        spec = Spectrum(values=values, method=SpectrumMethod.DIRECT_SUM, instance=inst)
        report = peak_report(spec)
        assert report.peaks == former_peaks(values)

    def test_shifts_match_scalar_loop_on_noise_floor(self) -> None:
        # The benchmark's `floor` spectrum: tens of thousands of peaks.
        inst = ShorInstance.synthetic_instance(18, 4)
        spec = model_spectrum(inst, ErrorModel(ErrorMode.UNIFORM, s_max=1e-3), 1)
        report = peak_report(spec)
        assert len(report.peaks) > 40_000
        assert report.peaks == former_peaks(spec.values)
        assert all(type(p) is int and type(h) is float for p, h in report.peaks)
        assert report.shifts == scalar_shifts(report.positions(), inst)


class TestEnsembleSpectrum:
    def test_deterministic_model_collapses(self) -> None:
        # Every draw would repeat the first, so a larger count is refused.
        model = ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.05)
        with pytest.raises(UsageError, match="deterministic"):
            ensemble_spectrum(STANDARD, model, 10, 42)
        mean, std = ensemble_spectrum(STANDARD, model, 1, 42)
        assert std.max() == 0.0
        assert mean.model is model
        closed = systematic_spectrum_closed_form(STANDARD, 0.05)
        np.testing.assert_allclose(mean.values, closed.values, atol=1e-9)

    @pytest.mark.parametrize(
        "model, fixed",
        [
            (ErrorModel(ErrorMode.UNIFORM), ErrorModel()),
            (
                ErrorModel(ErrorMode.GAUSSIAN, delta0=0.01),
                ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.01),
            ),
        ],
        ids=["uniform", "gaussian"],
    )
    def test_zero_width_model_collapses(self, model, fixed) -> None:
        inst = ShorInstance.synthetic_instance(12, 5, offset=3)
        with pytest.raises(UsageError, match="deterministic"):
            ensemble_spectrum(inst, model, 2, 1)
        mean, std = ensemble_spectrum(inst, model, 1, 1)
        expected, _ = ensemble_spectrum(inst, fixed, 1, 1)
        assert np.array_equal(std, np.zeros(inst.register_size))
        assert mean.model is model
        assert np.array_equal(mean.values.view(np.uint64), expected.values.view(np.uint64))

    def test_single_realization_uses_first_substream(self) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, s_max=0.05)
        mean, _ = ensemble_spectrum(STANDARD, model, 1, 42)
        single = model_spectrum(STANDARD, model, derive_stream_seed(42, 0))
        assert np.array_equal(mean.values, single.values)

    def test_random_model_has_spread(self) -> None:
        model = ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.05)
        mean, std = ensemble_spectrum(STANDARD, model, 8, 42)
        assert std.max() > 0.0
        assert len(std) == 128
        assert mean.values.shape == (128,)

    def test_rerun_is_bit_exact(self) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, s_max=0.05)
        mean_a, std_a = ensemble_spectrum(STANDARD, model, 6, 7)
        mean_b, std_b = ensemble_spectrum(STANDARD, model, 6, 7)
        assert np.array_equal(mean_a.values, mean_b.values)
        assert np.array_equal(std_a, std_b)

    def test_different_master_seeds_differ(self) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, s_max=0.05)
        mean_a, _ = ensemble_spectrum(STANDARD, model, 4, 1)
        mean_b, _ = ensemble_spectrum(STANDARD, model, 4, 2)
        assert not np.array_equal(mean_a.values, mean_b.values)

    def test_mean_concentrates_near_reference_peaks(self) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, s_max=0.02)
        mean, _ = ensemble_spectrum(STANDARD, model, 20, 42)
        top4 = sorted(np.argsort(mean.values)[-4:])
        for got, ref in zip(top4, (0, 32, 64, 96)):
            assert min(abs(got - ref), 128 - abs(got - ref)) <= 1

    @settings(max_examples=120)
    @given(case=ensemble_cases())
    def test_matches_register_sum_bit_for_bit(self, case) -> None:
        inst, model, n_realizations, master_seed = case
        mean, std = ensemble_spectrum(inst, model, n_realizations, master_seed)
        expected_mean, expected_std = former_ensemble(
            inst, model, n_realizations, master_seed
        )
        assert same_bits(mean.values, expected_mean)
        assert same_bits(std, expected_std)

    @pytest.mark.parametrize(
        "inst, model",
        [
            (
                ShorInstance.synthetic_instance(14, 5, offset=3),
                ErrorModel(ErrorMode.UNIFORM, s_max=3e-4),
            ),
            (
                ShorInstance.synthetic_instance(16, 97, offset=5),
                ErrorModel(ErrorMode.GAUSSIAN, sigma0=3e-5),
            ),
        ],
        ids=["uniform", "wide"],
    )
    def test_matches_register_sum_on_benchmark_instances(self, inst, model) -> None:
        mean, std = ensemble_spectrum(inst, model, 12, 5)
        expected_mean, expected_std = former_ensemble(inst, model, 12, 5)
        assert same_bits(mean.values, expected_mean)
        assert same_bits(std, expected_std)

    @pytest.mark.parametrize("amp_errors", [False, True], ids=["phase", "amp"])
    @pytest.mark.parametrize(
        "chunks, extra",
        [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
        ids=["1", "K-1", "K", "K+1", "2K+3"],
    )
    def test_matches_register_sum_across_chunk_edges(
        self, amp_errors, chunks, extra
    ) -> None:
        # K realizations draw their errors together; counts around K and
        # 2K check that every chunk edge keeps the index order.
        inst = ShorInstance.synthetic_instance(12, 5, offset=3)
        chunk = experiment._CHUNK_BYTES // (16 * inst.support_count)
        assert chunk > 2
        model = ErrorModel(
            ErrorMode.GAUSSIAN,
            delta0=0.01,
            sigma0=0.02,
            include_amplitude_errors=amp_errors,
            init_delta=0.003,
        )
        n_realizations = chunks * chunk + extra
        mean, std = ensemble_spectrum(inst, model, n_realizations, 8)
        expected_mean, expected_std = former_ensemble(inst, model, n_realizations, 8)
        assert same_bits(mean.values, expected_mean)
        assert same_bits(std, expected_std)

    @pytest.mark.parametrize("sigma", [1e-9, 1e-7, 1e-5])
    def test_spread_matches_two_pass_oracle(self, sigma) -> None:
        # The spread falls far below P (max P = 1/4) as sigma shrinks.
        # Both sides read the same P values, so a std that resolves the
        # spread is off by less than P's own float64 rounding: 4 ulps of
        # max P. E[P**2] - E[P]**2 cancels to ~sqrt(eps) * max P instead.
        inst = ShorInstance.synthetic_instance(7, 4)
        model = ErrorModel(ErrorMode.GAUSSIAN, sigma0=sigma)
        _, std = ensemble_spectrum(inst, model, 50, 42)
        values = np.array(list(experiment._realizations(inst, model, 50, 42)))
        expected = register_values(inst, values.std(axis=0))
        tolerance = 4 * np.spacing(values.max())
        assert np.abs(std - expected).max() <= tolerance

    def test_rejects_empty_ensemble(self) -> None:
        with pytest.raises(ValueError):
            ensemble_spectrum(STANDARD, ErrorModel(), 0, 1)


class TestSuccessProbability:
    def test_noiseless_tight_bound(self) -> None:
        inst = ShorInstance.from_factoring(15, 7)
        assert success_probability(exact_spectrum(inst), 1) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_noiseless_wide_bound(self) -> None:
        inst = ShorInstance.from_factoring(15, 7)
        assert success_probability(exact_spectrum(inst), 4) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_synthetic_instance_with_attached_problem(self) -> None:
        assert success_probability(
            exact_spectrum(RECOVERABLE), 1
        ) == pytest.approx(0.5, abs=1e-12)

    def test_scale_invariant(self) -> None:
        spec = systematic_spectrum_closed_form(RECOVERABLE, 0.1)
        scaled = Spectrum(
            values=spec.values * 7.0, method=spec.method, instance=spec.instance
        )
        assert success_probability(spec, 1) == pytest.approx(
            success_probability(scaled, 1), abs=1e-12
        )

    def test_requires_attached_problem(self) -> None:
        with pytest.raises(UsageError, match="needs an instance with modulus and base"):
            success_probability(exact_spectrum(STANDARD), 1)

    def test_all_zero_spectrum_raises(self) -> None:
        with pytest.raises(ValueError, match="cannot normalize an all-zero spectrum"):
            success_probability(constant_spectrum(RECOVERABLE, 0.0), 1)

    def test_bound_widening_never_hurts(self) -> None:
        spec = systematic_spectrum_closed_form(RECOVERABLE, 0.15)
        values = [success_probability(spec, b) for b in (1, 2, 4, 8)]
        for narrow, wide in zip(values, values[1:]):
            assert wide >= narrow - 1e-12


def scalar_mask(q: int, modulus: int, base: int, order: int, bound: int) -> tuple:
    return tuple(
        recover_order(c, q, modulus, base, bound) == order for c in range(q)
    )


class TestRecoveryMask:
    @pytest.mark.parametrize("modulus, base", [(15, 7), (21, 2), (91, 2)])
    @pytest.mark.parametrize("bound", [1, 2, 4, 64])
    def test_matches_scalar_recovery(self, modulus, base, bound) -> None:
        inst = ShorInstance.from_factoring(modulus, base)
        args = (inst.register_size, modulus, base, inst.order, bound)
        mask = _recovery_mask(*args)
        assert list(mask) == [int(hit) for hit in scalar_mask(*args)]
        assert isinstance(mask, bytes)

    def test_matches_scalar_recovery_at_full_size(self) -> None:
        inst = ShorInstance.from_factoring(221, 2)
        args = (65536, 221, 2, inst.order, 1)
        assert inst.register_size == 65536
        assert list(_recovery_mask(*args)) == [int(hit) for hit in scalar_mask(*args)]

    @settings(max_examples=60)
    @given(
        problem=COPRIME_PAIRS,
        n_qubits=st.integers(1, 12),
        bound=st.integers(1, 8),
    )
    def test_matches_scalar_recovery_property(self, problem, n_qubits, bound) -> None:
        modulus, base = problem
        args = (1 << n_qubits, modulus, base, find_order(base, modulus), bound)
        assert list(_recovery_mask(*args)) == [int(hit) for hit in scalar_mask(*args)]

    def test_wrong_order_fails_everywhere(self) -> None:
        # 7 has order 4 mod 15: no instance claims 3, and no candidate is 3.
        with pytest.raises(ValueError, match="order 4 mod 15, not 3"):
            ShorInstance(modulus=15, base=7, n_qubits=8, order=3, offset=0)
        assert _recovery_mask(256, 15, 7, 3, 64) == bytes(256)

    def test_multiple_of_order_is_all_zero(self) -> None:
        # recover_order returns 8, a multiple of the true order 4, from some
        # outcomes; the mask follows the hits, which look for r alone.
        assert any(scalar_mask(256, 15, 7, 8, 1))
        assert _recovery_mask(256, 15, 7, 8, 1) == bytes(256)

    def test_hit_count_is_a_json_int(self) -> None:
        # The benchmark tracer sums the cached mask and writes it as JSON.
        hits = sum(_recovery_mask(256, 15, 7, 4, 1))
        assert type(hits) is int
        assert json.loads(json.dumps({"hits": hits})) == {"hits": 44}

    def test_is_one_bounded_cache(self) -> None:
        assert _recovery_mask.cache_parameters()["maxsize"] == 32

    def test_library_leaves_the_mask_unbuilt(self) -> None:
        # Success is gathered at the hits; only the benchmark reads the mask.
        _recovery_mask.cache_clear()
        success_probability(exact_spectrum(RECOVERABLE), 1)
        success_probability(exact_spectrum(RECOVERABLE), 64)
        threshold_sweep(
            RECOVERABLE, ErrorModel(ErrorMode.GAUSSIAN), [0.0, 0.1], 2,
            multiplier_bound=1,
        )
        assert _recovery_mask.cache_info().currsize == 0

    def test_rejects_inputs_recover_order_rejects(self) -> None:
        for args in [(256, 15, 7, 4, 0), (256, 15, 1, 4, 1),
                     (256, 15, 15, 4, 1), (256, 15, 5, 4, 1)]:
            with pytest.raises(ValueError):
                _recovery_mask(*args)

    def test_success_probability_rejects_zero_bound(self) -> None:
        spec = exact_spectrum(ShorInstance.from_factoring(15, 7))
        with pytest.raises(ValueError):
            success_probability(spec, 0)


class TestHitShare:
    """The evaluator at the period equals np.sum over the tiled register."""

    @pytest.mark.parametrize("n_qubits", range(13))
    def test_matches_register_sum(self, n_qubits) -> None:
        q = 1 << n_qubits
        rng = np.random.default_rng(n_qubits)
        for period in [1 << k for k in range(n_qubits + 1)]:
            for scale in [1e-300, 1e-8, 1.0, 1e300]:
                head = rng.random(period) * scale
                head[rng.random(period) < 0.25] = 0.0
                head[rng.integers(period)] = scale  # the total is positive
                register = np.tile(head, q // period)
                total = np.sum(register)
                for share in [0.0, 0.01, 0.5, 0.99, 1.0]:
                    hits = np.flatnonzero(rng.random(q) < share).astype(np.int32)
                    expected = np.float64(np.sum(register[hits] / total))
                    got = np.float64(_hit_share(head, hits, q))
                    assert got.view(np.uint64) == expected.view(np.uint64)
                assert _hit_share(head, None, q) == 1.0

    def test_rejects_an_all_zero_head(self) -> None:
        with pytest.raises(ValueError, match="all-zero"):
            _hit_share(np.zeros(4), None, 16)
        with pytest.raises(ValueError, match="all-zero"):
            _hit_share(np.zeros(4), np.array([1], dtype=np.int32), 16)

    def test_values_are_checked_once(self, monkeypatch) -> None:
        # A Spectrum checks its values when built, and the sweep checks
        # each realization once; the evaluator checks nothing again.
        spec = exact_spectrum(RECOVERABLE)
        checked = []
        monkeypatch.setattr(experiment, "_check_probabilities", checked.append)
        for bound in (1, 64):
            success_probability(spec, bound)
        assert checked == []
        threshold_sweep(
            RECOVERABLE, ErrorModel(ErrorMode.GAUSSIAN), [0.0, 0.1, 0.2], 3,
            multiplier_bound=1,
        )
        assert len(checked) == 6

    def test_wide_bound_builds_no_register_array(self) -> None:
        inst = ShorInstance.synthetic_instance(20, 24, modulus=221, base=2)
        spec = model_spectrum(inst, ErrorModel(), 1)
        success_probability(spec, 64)  # the hits and the order are cached
        tracemalloc.start()
        try:
            success = success_probability(spec, 64)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert success == 1.0
        assert peak < 1 << 20
        assert retained == 0


def former_success(spec: Spectrum, bound: int) -> float:
    """success_probability as computed before: gathered from a normalized copy."""
    inst = spec.instance
    key = (inst.register_size, inst.modulus, inst.base, inst.order, bound)
    tuple_mask = tuple(bool(hit) for hit in _recovery_mask(*key))
    return float(np.sum(spec.normalize().values[np.array(tuple_mask, dtype=bool)]))


@st.composite
def recovery_spectra(draw) -> Spectrum:
    """Direct-sum spectra of instances with 3 <= modulus <= 60 and L <= 12.

    The phase errors have width 0 (noiseless) up to 1 rad.
    """
    modulus, base = draw(COPRIME_PAIRS)
    order = find_order(base, modulus)
    n_qubits = draw(st.integers(max(1, (order - 1).bit_length()), 12))
    inst = ShorInstance.synthetic_instance(
        n_qubits, order, offset=draw(st.integers(0, order - 1)),
        modulus=modulus, base=base,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([0.0, 1e-4, 1e-2, 1.0]))
    return direct_spectrum(inst, rng.normal(0.0, width, inst.support_count))


def assert_former_success(spec: Spectrum, bound: int) -> None:
    """The former bits below r; exactly 1 where every outcome recovers r."""
    got = np.float64(success_probability(spec, bound))
    if bound >= spec.instance.order:
        assert got == 1.0
    else:
        expected = np.float64(former_success(spec, bound))
        assert got.view(np.uint64) == expected.view(np.uint64)


class TestSuccessBitIdentity:
    """Gathering before dividing gives the former normalized sum's bits."""

    @settings(max_examples=100)
    @given(spec=recovery_spectra(), bound=st.sampled_from([1, 2, 64]))
    def test_matches_former_expression_property(self, spec, bound) -> None:
        assert_former_success(spec, bound)

    @pytest.mark.parametrize("bound", [1, 64])
    def test_matches_former_expression_on_benchmark_sweep(self, bound) -> None:
        inst = ShorInstance.from_factoring(221, 2)
        for seed in range(3):
            model = ErrorModel(ErrorMode.GAUSSIAN, sigma0=2e-5)
            assert_former_success(model_spectrum(inst, model, seed), bound)


class TestThresholdSweep:
    def test_baseline_equals_first_point(self) -> None:
        sweep = threshold_sweep(
            RECOVERABLE, ErrorModel(ErrorMode.SYSTEMATIC), [0.0, 0.05, 0.1],
            multiplier_bound=1,
        )
        assert sweep.baseline == sweep.success_probs[0]
        assert sweep.baseline == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "magnitudes",
        [np.array([0.0, 0.1, 0.27]), (0, 0.1, 0.27)],
        ids=["array", "tuple"],
    )
    def test_takes_any_sequence_of_magnitudes(self, magnitudes) -> None:
        model = ErrorModel(ErrorMode.SYSTEMATIC)
        sweep = threshold_sweep(RECOVERABLE, model, magnitudes, multiplier_bound=1)
        assert sweep == threshold_sweep(
            RECOVERABLE, model, [0.0, 0.1, 0.27], multiplier_bound=1
        )
        assert all(type(magnitude) is float for magnitude in sweep.magnitudes)

    def test_threshold_location(self) -> None:
        sweep = threshold_sweep(
            RECOVERABLE,
            ErrorModel(ErrorMode.SYSTEMATIC),
            [0.0, 0.1, 0.26, 0.27, 0.3],
            eta=0.5,
            multiplier_bound=1,
        )
        assert sweep.threshold == 0.26
        floor = sweep.eta * sweep.baseline
        assert sweep.success_probs[2] >= floor
        assert sweep.success_probs[3] < floor

    def test_threshold_is_first_breakdown_not_revival(self) -> None:
        # A systematic error shifts the peaks by whole grid spacings, so
        # recovery revives near 1.835 after first failing at 0.27.
        magnitudes = [0.005 * i for i in range(401)]
        sweep = threshold_sweep(
            RECOVERABLE, ErrorModel(ErrorMode.SYSTEMATIC), magnitudes, eta=0.5,
            multiplier_bound=1,
        )
        assert sweep.threshold == 0.265
        floor = sweep.eta * sweep.baseline
        assert all(success >= floor for success in sweep.success_probs[:54])
        assert sweep.success_probs[54] < floor
        assert sweep.success_probs[367] >= floor

    def test_zero_baseline_gives_no_threshold(self) -> None:
        # Order 3 never appears among the continued-fraction denominators
        # of c/4, so recovery fails for every outcome.
        inst = ShorInstance.synthetic_instance(2, 3, modulus=7, base=2)
        sweep = threshold_sweep(
            inst, ErrorModel(ErrorMode.SYSTEMATIC), [0.0, 0.05], multiplier_bound=1
        )
        assert sweep.baseline == 0.0
        assert sweep.threshold is None

    @pytest.mark.parametrize("mode", [ErrorMode.SYSTEMATIC, ErrorMode.GAUSSIAN])
    def test_zero_magnitudes_reuse_the_baseline(self, mode, monkeypatch) -> None:
        calls = []

        def counting(model, count, seeds):
            calls.extend(seeds)
            return sample_realizations(model, count, seeds)

        monkeypatch.setattr(experiment, "sample_realizations", counting)
        count = 1 if mode is ErrorMode.SYSTEMATIC else 3
        sweep = threshold_sweep(
            RECOVERABLE, ErrorModel(mode), [0.0, 0.0, 0.02],
            n_realizations=count, multiplier_bound=1,
        )
        # The baseline, then the 0.02 point: one systematic or three random.
        assert len(calls) == (2 if mode is ErrorMode.SYSTEMATIC else 4)
        assert sweep.success_probs[:2] == [sweep.baseline, sweep.baseline]

    @pytest.mark.parametrize("count", [2, 5])
    def test_systematic_mode_rejects_realization_count(self, count) -> None:
        # Every systematic point runs once, so a larger count would be
        # recorded in the result without being run.
        with pytest.raises(ValueError, match="n_realizations=1"):
            threshold_sweep(
                RECOVERABLE, ErrorModel(ErrorMode.SYSTEMATIC), [0.0, 0.1],
                n_realizations=count, multiplier_bound=1,
            )
        one = threshold_sweep(
            RECOVERABLE, ErrorModel(ErrorMode.SYSTEMATIC), [0.0, 0.1],
            multiplier_bound=1,
        )
        assert one.n_realizations == 1

    def test_random_mode_is_reproducible(self) -> None:
        a = threshold_sweep(
            RECOVERABLE, ErrorModel(ErrorMode.GAUSSIAN), [0.0, 0.02],
            n_realizations=3, master_seed=9,
        )
        b = threshold_sweep(
            RECOVERABLE, ErrorModel(ErrorMode.GAUSSIAN), [0.0, 0.02],
            n_realizations=3, master_seed=9,
        )
        assert np.array_equal(a.success_probs, b.success_probs)

    def test_requires_attached_problem(self) -> None:
        with pytest.raises(ValueError):
            threshold_sweep(STANDARD, ErrorModel(ErrorMode.SYSTEMATIC), [0.0, 0.1])

    def test_validates_arguments(self) -> None:
        with pytest.raises(ValueError):
            threshold_sweep(RECOVERABLE, ErrorModel(ErrorMode.SYSTEMATIC), [])
        with pytest.raises(ValueError):
            threshold_sweep(RECOVERABLE, ErrorModel(ErrorMode.SYSTEMATIC), [0.1, 0.0])
        with pytest.raises(ValueError):
            threshold_sweep(RECOVERABLE, ErrorModel(ErrorMode.SYSTEMATIC), [-0.1, 0.0])
        with pytest.raises(ValueError):
            threshold_sweep(
                RECOVERABLE, ErrorModel(ErrorMode.SYSTEMATIC), [0.0], eta=0.0
            )
        with pytest.raises(ValueError):
            threshold_sweep(
                RECOVERABLE, ErrorModel(ErrorMode.SYSTEMATIC), [0.0], eta=1.5
            )
        with pytest.raises(ValueError):
            threshold_sweep(RECOVERABLE, ErrorModel(ErrorMode.NONE), [0.0, 0.1])
        with pytest.raises(ValueError):
            threshold_sweep(
                RECOVERABLE, ErrorModel(ErrorMode.UNIFORM), [0.0], n_realizations=0
            )

    @pytest.mark.parametrize(
        "inst, model, magnitudes, kwargs",
        [
            (STANDARD, ErrorModel(ErrorMode.GAUSSIAN), [0.0], {}),
            (RECOVERABLE, ErrorModel(ErrorMode.GAUSSIAN), [0.0, math.inf], {}),
            (RECOVERABLE, ErrorModel(ErrorMode.GAUSSIAN), [math.nan], {}),
            (RECOVERABLE, ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.1), [0.0], {}),
            (RECOVERABLE, ErrorModel(ErrorMode.GAUSSIAN), [0.0], {"eta": math.nan}),
            (RECOVERABLE, ErrorModel(ErrorMode.GAUSSIAN), [0.0],
             {"multiplier_bound": 0}),
        ],
        ids=["no-modulus", "inf", "nan", "width-set", "eta-nan", "bound"],
    )
    def test_usage_errors_come_before_any_transform(
        self, inst, model, magnitudes, kwargs, monkeypatch
    ) -> None:
        def refused(*args):
            raise AssertionError("a realization ran")

        monkeypatch.setattr(experiment, "period_values", refused)
        with pytest.raises(UsageError):
            threshold_sweep(inst, model, magnitudes, **kwargs)

    def test_points_hold_one_realization_at_a_time(self, monkeypatch) -> None:
        # When a point's next realization is computed, the last one's P at
        # the q' points (8 * q' bytes) must already be freed, and so must
        # the baseline's register of P (8 * q bytes) and its q' values.
        inst = ShorInstance.from_factoring(1003, 2)
        period = inst.register_size // math.gcd(inst.order, inst.register_size)
        assert period == 131_072
        model, magnitudes = ErrorModel(ErrorMode.GAUSSIAN), [0.0, 1e-6]
        # Fill the recovery and period-plan caches, so held memory counts
        # only the arrays the sweep keeps.
        threshold_sweep(inst, model, magnitudes)
        held = []

        def traced(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return period_values(*args)

        monkeypatch.setattr(experiment, "period_values", traced)
        tracemalloc.start()
        try:
            threshold_sweep(inst, model, magnitudes, n_realizations=2)
        finally:
            tracemalloc.stop()
        # The baseline, then the two realizations of the 1e-6 point.
        assert len(held) == 3
        assert held[1] - held[0] < 4 * inst.register_size
        assert held[2] - held[1] < 4 * period

    @pytest.mark.parametrize(
        "model",
        [
            ErrorModel(ErrorMode.NONE),
            ErrorModel(ErrorMode.NONE, init_delta=0.01),
            ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.01),
            ErrorModel(ErrorMode.UNIFORM, s_max=0.01),
            ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.01),
        ],
        ids=["none", "none-init-delta", "systematic", "uniform", "gaussian"],
    )
    def test_rejects_base_model_without_a_free_width(self, model) -> None:
        with pytest.raises(ValueError, match="systematic, uniform, or gaussian"):
            threshold_sweep(RECOVERABLE, model, [0.0, 0.1])

    def test_result_carries_the_base_model(self) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, delta0=0.01, init_delta=0.02)
        sweep = threshold_sweep(RECOVERABLE, model, [0.0, 0.1], n_realizations=2)
        assert sweep.model is model

    def test_numpy_base_model_gives_the_python_sweep(self) -> None:
        numpy = ErrorModel("uniform", delta0=np.float64(0.01), init_delta=np.int64(0))
        python = ErrorModel(ErrorMode.UNIFORM, delta0=0.01)
        sweeps = [
            threshold_sweep(RECOVERABLE, model, [0.0, 0.1], n_realizations=2)
            for model in (numpy, python)
        ]
        assert sweeps[0] == sweeps[1]
        assert type(sweeps[0].model.delta0) is float

    @pytest.mark.parametrize("mode", [ErrorMode.GAUSSIAN, ErrorMode.UNIFORM])
    @pytest.mark.parametrize(
        "delta0, bits",
        [(3e-3, "0x1.54ddf9f49fde1p-2"), (6e-3, "0x1.29e30f304e528p-2")],
    )
    def test_combined_baseline_is_the_systematic_point(
        self, mode, delta0, bits
    ) -> None:
        # A random mode at width 0 with a delta0 is the systematic model at
        # that delta0, so its baseline is the systematic sweep's point there.
        inst = ShorInstance.from_factoring(221, 2)
        systematic = threshold_sweep(
            inst, ErrorModel(ErrorMode.SYSTEMATIC), [0.0, delta0], multiplier_bound=1
        )
        combined = threshold_sweep(
            inst, ErrorModel(mode, delta0=delta0), [0.0, 2e-5], n_realizations=2,
            multiplier_bound=1,
        )
        assert combined.baseline == systematic.success_probs[1]
        assert combined.baseline == float.fromhex(bits)
        assert combined.success_probs[0] == combined.baseline
        # delta0 enters the baseline: it is not the noise-free one.
        assert combined.baseline != systematic.baseline


SWEPT = {
    ErrorMode.SYSTEMATIC: "delta0",
    ErrorMode.UNIFORM: "s_max",
    ErrorMode.GAUSSIAN: "sigma0",
}


def former_sweep_points(
    inst: ShorInstance, base: ErrorModel, magnitudes: list[float], count: int,
    master_seed: int, bound: int,
) -> np.ndarray:
    """Each sweep point as computed before: success_probability on the register."""
    points = []
    for index, magnitude in enumerate(magnitudes):
        model = replace(base, **{SWEPT[base.mode]: magnitude})
        magnitude_seed = derive_stream_seed(master_seed, index)
        n = 1 if model.deterministic else count
        seeds = [derive_stream_seed(magnitude_seed, i) for i in range(n)]
        acc = 0.0
        for phase, amp in sample_realizations(model, inst.support_count, seeds):
            values = period_values(inst, phase, amp, model.init_delta)
            register = register_values(inst, values)
            spec = Spectrum(register, SpectrumMethod.DIRECT_SUM, inst)
            acc += success_probability(spec, bound)
        points.append(acc / n)
    return np.array(points)


@st.composite
def sweep_cases(draw) -> tuple:
    """Sweeps of instances with 3 <= modulus <= 60 and L <= 12, any offset.

    Bound 64 is at least every such order, so every outcome hits. The
    base model may carry a delta0 beside a random width (combined
    errors), amplitude errors and preparation weights.
    """
    modulus, base = draw(COPRIME_PAIRS)
    order = find_order(base, modulus)
    n_qubits = draw(st.integers(max(1, (order - 1).bit_length()), 12))
    inst = ShorInstance.synthetic_instance(
        n_qubits, order, offset=draw(st.integers(0, order - 1)),
        modulus=modulus, base=base,
    )
    mode = draw(st.sampled_from([ErrorMode.SYSTEMATIC, ErrorMode.UNIFORM,
                                 ErrorMode.GAUSSIAN]))
    count = 1 if mode is ErrorMode.SYSTEMATIC else draw(st.integers(1, 3))
    width = draw(st.sampled_from([1e-4, 1e-2, 0.3]))
    seed = draw(st.integers(0, 2**64 - 1))
    bound = draw(st.sampled_from([1, 2, 64]))
    random_mode = mode is not ErrorMode.SYSTEMATIC
    model = ErrorModel(
        mode,
        delta0=draw(st.sampled_from([0.0, 0.02])) if random_mode else 0.0,
        include_amplitude_errors=draw(st.booleans()),
        init_delta=draw(st.sampled_from([0.0, -0.02, 0.01])),
    )
    return inst, model, [0.0, width, 2 * width], count, seed, bound


COMBINED = ErrorModel(
    ErrorMode.GAUSSIAN, delta0=0.05, include_amplitude_errors=True, init_delta=0.01
)


FIFTEEN = ShorInstance.from_factoring(15, 7)  # q' = 64, below numpy's 128-block


class TestSweepAtPeriod:
    """Success taken at the period equals the register sum bit for bit."""

    @settings(max_examples=100)
    @given(case=sweep_cases())
    @example(case=(FIFTEEN, ErrorModel(ErrorMode.GAUSSIAN), [0.0, 0.1, 0.5], 3, 7, 1))
    @example(case=(FIFTEEN, ErrorModel(ErrorMode.UNIFORM), [0.0, 0.1, 0.5], 2, 8, 64))
    @example(case=(FIFTEEN, ErrorModel(ErrorMode.SYSTEMATIC), [0.0, 0.1, 0.3], 1, 9, 4))
    @example(case=(FIFTEEN, COMBINED, [0.0, 0.1, 0.5], 3, 7, 1))
    def test_points_match_register_sum_property(self, case) -> None:
        inst, model, magnitudes, count, seed, bound = case
        sweep = threshold_sweep(
            inst, model, magnitudes, n_realizations=count, master_seed=seed,
            multiplier_bound=bound,
        )
        expected = former_sweep_points(inst, model, magnitudes, count, seed, bound)
        assert same_bits(np.array(sweep.success_probs), expected)

    @pytest.mark.parametrize(
        "modulus, mode, magnitudes, count, bound",
        [
            (221, ErrorMode.GAUSSIAN, [0.0, 1.2e-5, 2.8e-5, 4e-5], 3, 1),
            (221, ErrorMode.SYSTEMATIC, [0.0, 1e-4, 3e-4], 1, 64),
            (91, ErrorMode.UNIFORM, [0.0, 2e-4, 1e-3], 2, 2),
        ],
    )
    def test_points_match_register_sum_on_factoring_instances(
        self, modulus, mode, magnitudes, count, bound
    ) -> None:
        inst, model = ShorInstance.from_factoring(modulus, 2), ErrorModel(mode)
        sweep = threshold_sweep(
            inst, model, magnitudes, n_realizations=count, master_seed=5,
            multiplier_bound=bound,
        )
        expected = former_sweep_points(inst, model, magnitudes, count, 5, bound)
        assert same_bits(np.array(sweep.success_probs), expected)

    def test_rejects_non_finite_realization(self, monkeypatch) -> None:
        def poisoned(inst, phase, amp, init_delta):
            values = period_values(inst, phase, amp, init_delta)
            # Only the zero-error baseline draws all-zero phases.
            return values * np.inf if phase.any() else values

        monkeypatch.setattr(experiment, "period_values", poisoned)
        with pytest.raises(ValueError, match="finite"):
            threshold_sweep(RECOVERABLE, ErrorModel(ErrorMode.GAUSSIAN), [0.0, 0.1])


ROOT = Path(__file__).resolve().parent.parent


def perfbench_module(name: str):
    """Load perfbench/<name>.py by path, under the name its siblings import."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestSweepCsv:
    def test_format_and_footer(self, tmp_path) -> None:
        sweep = threshold_sweep(
            RECOVERABLE, ErrorModel(ErrorMode.SYSTEMATIC), [0.0, 0.1, 0.27],
            multiplier_bound=1,
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "magnitude,success_probability"
        assert len(lines) == 5
        footer = lines[-1]
        assert footer.startswith("# threshold=")
        assert "eta=0.5" in footer
        assert "baseline=5.000000000000e-01" in footer
        mag, prob = lines[1].split(",")
        assert float(mag) == 0.0
        assert float(prob) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("eta", [np.float64(0.5), np.float32(0.5)], ids=repr)
    def test_numpy_eta_writes_a_footer_the_benchmark_parses(
        self, tmp_path, eta
    ) -> None:
        args = (RECOVERABLE, ErrorModel(ErrorMode.SYSTEMATIC), [0.0, 0.1, 0.27])
        sweep = threshold_sweep(*args, eta=eta, multiplier_bound=1)
        assert sweep == threshold_sweep(*args, eta=0.5, multiplier_bound=1)
        assert type(sweep.eta) is float
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        assert " eta=0.5 " in path.read_text().splitlines()[-1]
        perfbench_module("workloads")  # checks imports it by this name
        _, threshold, baseline = perfbench_module("checks").read_sweep(path)
        assert (threshold, baseline) == (sweep.threshold, sweep.baseline)

    def test_footer_reports_missing_threshold(self, tmp_path) -> None:
        inst = ShorInstance.synthetic_instance(2, 3, modulus=7, base=2)
        sweep = threshold_sweep(
            inst, ErrorModel(ErrorMode.SYSTEMATIC), [0.0, 0.05], multiplier_bound=1
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        assert "threshold=none" in path.read_text().splitlines()[-1]


NOISY = ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.1, include_amplitude_errors=True)


def seeded_ensemble(seed) -> tuple[bytes, bytes]:
    mean, std = ensemble_spectrum(FIFTEEN, NOISY, 3, seed)
    return mean.values.tobytes(), std.tobytes()


SEEDED = {
    "model_spectrum": lambda seed: model_spectrum(FIFTEEN, NOISY, seed).values.tobytes(),
    "circuit_spectrum": lambda seed: circuit_spectrum(
        FIFTEEN, NOISY, seed
    ).values.tobytes(),
    "ensemble_spectrum": seeded_ensemble,
    "threshold_sweep": lambda seed: threshold_sweep(
        FIFTEEN, ErrorModel(ErrorMode.GAUSSIAN), [0.0, 0.3, 0.6], 2, master_seed=seed
    ),
    "factor": lambda seed: factor(FIFTEEN, NOISY, seed, 8),
}


class TestNumpySeeds:
    """A numpy integer seeds every entry point as the equal Python int does."""

    @pytest.mark.parametrize("entry", SEEDED)
    @pytest.mark.parametrize(
        "seed", [np.int64(5), np.uint64(5), np.uint64(2**63 + 5)], ids=repr
    )
    def test_matches_python_int(self, entry, seed) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SEEDED[entry](seed) == SEEDED[entry](int(seed))

    @pytest.mark.parametrize("entry", SEEDED)
    def test_float_seed_raises_type_error(self, entry) -> None:
        with pytest.raises(TypeError):
            SEEDED[entry](5.0)


def scalar_factor(
    inst: ShorInstance, model: ErrorModel, seed: int, shots: int, bound: int
) -> tuple[int, list[int]] | None:
    """factor's loop with one scalar recovery per outcome, in shot order."""
    q, modulus, base = inst.register_size, inst.modulus, inst.base
    probabilities = circuit_spectrum(inst, model, seed).values
    rng = Xorshift64Star(derive_stream_seed(seed, 0))
    for c in sample_outcomes(outcome_cdf(probabilities), shots, rng).tolist():
        order = recover_order(c, q, modulus, base, bound)
        if order is None or order % 2 == 1:
            continue
        half = pow(base, order // 2, modulus)
        if half == modulus - 1:
            continue
        pair = (math.gcd(half - 1, modulus), math.gcd(half + 1, modulus))
        factors = sorted({f for f in pair if 1 < f < modulus})
        if factors:
            return order, factors
    return None


class TestFactor:
    def test_factors_fifteen(self) -> None:
        inst = ShorInstance.from_factoring(15, 7)
        assert factor(inst, ErrorModel(), seed=1, shots=100) == (4, [3, 5])

    def test_trivial_square_root_gives_none(self) -> None:
        # 14 has order 2 and 14**1 == -1 mod 15 on every outcome.
        inst = ShorInstance.from_factoring(15, 14)
        assert factor(inst, ErrorModel(), seed=1, shots=100) is None

    def test_needs_attached_problem(self) -> None:
        with pytest.raises(ValueError):
            factor(STANDARD, ErrorModel(), seed=1, shots=10)

    def test_matches_scalar_reference_loop(self) -> None:
        configurations = [
            (15, 7, ErrorModel(), 64),
            (55, 2, ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.3), 1),
            (91, 2, ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.05), 2),
            (221, 2, ErrorModel(ErrorMode.GAUSSIAN, sigma0=3.0), 1),
            (221, 2, ErrorModel(ErrorMode.UNIFORM, s_max=0.5), 64),
            # An even modulus: a failed recovery (0) would split off 2.
            (14, 3, ErrorModel(ErrorMode.GAUSSIAN, sigma0=3.0), 1),
        ]
        kinds = set()
        for modulus, base, model, bound in configurations:
            inst = ShorInstance.from_factoring(modulus, base)
            for seed in range(1, 41):
                expected = scalar_factor(inst, model, seed, 100, bound)
                assert factor(inst, model, seed, 100, bound) == expected
                kinds.add("none" if expected is None else expected[0] == inst.order)
        # The grid reaches every kind of result: the order, a multiple, none.
        assert kinds == {True, False, "none"}

    def test_blocks_see_the_outcomes_of_one_draw(self, monkeypatch) -> None:
        # Blocks of 3 shots: the first split often lies past the first block.
        monkeypatch.setattr(experiment, "_LOCKSTEP_LANES", 3)
        model = ErrorModel(ErrorMode.GAUSSIAN, sigma0=3.0)
        inst = ShorInstance.from_factoring(221, 2)
        for seed in range(1, 21):
            for shots in (1, 3, 4, 100):
                expected = scalar_factor(inst, model, seed, shots, 1)
                assert factor(inst, model, seed, shots, 1) == expected

    def test_one_cumulative_sum_serves_every_block(self, monkeypatch) -> None:
        # Three blocks of 3 shots; 220 == -1 mod 221 never splits N, so all
        # three are drawn. They must see the outcomes of the per-block code,
        # which summed every probability again for each block.
        monkeypatch.setattr(experiment, "_LOCKSTEP_LANES", 3)
        inst = ShorInstance.from_factoring(221, 220)
        model = ErrorModel(ErrorMode.GAUSSIAN, sigma0=3.0)
        cumsum, recover = np.cumsum, experiment.recover_orders
        sums, blocks = [], []

        def counted_cumsum(values, *args, **kwargs):
            sums.append(len(values))
            return cumsum(values, *args, **kwargs)

        def recorded_recovery(outcomes, *args):
            blocks.append(outcomes.tolist())
            return recover(outcomes, *args)

        monkeypatch.setattr(np, "cumsum", counted_cumsum)
        monkeypatch.setattr(experiment, "recover_orders", recorded_recovery)
        assert factor(inst, model, 5, 9, 1) is None
        assert sums.count(inst.register_size) == 1

        probabilities = circuit_spectrum(inst, model, 5).values
        rng = Xorshift64Star(derive_stream_seed(5, 0))
        expected = []
        for _ in range(3):
            assert abs(float(np.sum(probabilities)) - 1.0) <= 1e-6
            cdf = cumsum(probabilities)
            indices = np.searchsorted(cdf, rng.uniform01_array(3), side="right")
            expected.append(np.minimum(indices, inst.register_size - 1).tolist())
        assert blocks == expected

    @pytest.mark.parametrize(
        "model", [ErrorModel(), ErrorModel(ErrorMode.GAUSSIAN, sigma0=3.0)]
    )
    def test_minus_one_never_splits_over_many_blocks(self, model) -> None:
        # 220 == -1 mod 221: every recovered order r has 220**(r/2) == +-1,
        # so none of the 20,000 shots (three blocks) splits N.
        inst = ShorInstance.from_factoring(221, 220)
        assert scalar_factor(inst, model, 1, 20_000, 1) is None
        assert factor(inst, model, 1, 20_000, 1) is None

    @pytest.mark.parametrize("shots", [0, -1])
    def test_rejects_shot_count_below_one(self, shots) -> None:
        inst = ShorInstance.from_factoring(15, 7)
        with pytest.raises(ValueError, match="shots must be >= 1"):
            factor(inst, ErrorModel(), seed=1, shots=shots)

    @pytest.mark.parametrize("shots, bound", [(0, 64), (10, 0)])
    def test_usage_errors_come_before_the_circuit(
        self, shots, bound, monkeypatch
    ) -> None:
        def refused(*args):
            raise AssertionError("the circuit ran")

        monkeypatch.setattr(experiment, "circuit_spectrum", refused)
        inst = ShorInstance.from_factoring(15, 7)
        with pytest.raises(UsageError):
            factor(inst, ErrorModel(), 1, shots, bound)

