"""Tests for the measurement-distribution computations.

The reference oracle used throughout is a naive per-outcome complex sum in
pure Python. The production code evaluates the same finite sum through
batched inverse FFTs at the period of the support, so agreement between
the two is a real cross-check of the vectorized kernel, not a tautology.
The dense full-register transform it replaced stays as a second oracle.
"""

from __future__ import annotations

import cmath
import math
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shornoise import spectrum
from shornoise.errmodel import ErrorMode, ErrorModel, Xorshift64Star
from shornoise.numth import ShorInstance
from shornoise.spectrum import (
    Spectrum,
    SpectrumMethod,
    _assemble,
    _csv_rows,
    _period_plan,
    direct_spectrum,
    init_error_weights,
    model_spectrum,
    period_values,
    register_values,
    spectrum_metadata,
    systematic_spectrum_closed_form,
    total_variation_distance,
    write_spectrum_csv,
)
from prng_oracle import amplitude_errors, gaussian, phase_errors
from spectrum_csv import format_spectrum_csv_reference, read_spectrum_csv
from weights_oracle import full_register_weights


def reference_distribution(
    inst: ShorInstance,
    phase_errors: np.ndarray,
    amp_errors: np.ndarray | None = None,
    init_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Naive O(q * M) evaluation of the measurement distribution.

    For each outcome c this sums, term by term in pure Python,

        z(c) = sum_j w_(jr+l) * (1 + d_j) * exp(i * (2*pi*c/q + e_j) * (jr+l))

    and returns (r / q**2) * |z(c)|**2.
    """
    q = inst.register_size
    r = inst.order
    values = np.empty(q)
    support = list(inst.support_values())
    for c in range(q):
        z = 0j
        for j, a in enumerate(support):
            weight = 1.0 if init_weights is None else float(init_weights[a])
            amp = 1.0 if amp_errors is None else 1.0 + float(amp_errors[j])
            angle = (2.0 * math.pi * c / q + float(phase_errors[j])) * a
            z += weight * amp * cmath.exp(1j * angle)
        values[c] = (r / q**2) * abs(z) ** 2
    return values


SMALL = ShorInstance.synthetic_instance(6, 4)
STANDARD = ShorInstance.synthetic_instance(7, 4)


def exact_spectrum(inst: ShorInstance) -> Spectrum:
    """The spectrum with every gate exact: the direct sum at zero errors."""
    return direct_spectrum(inst, np.zeros(inst.support_count))


def every_value(n_qubits: int) -> ShorInstance:
    """Order 1 puts every basis value on the support, in order."""
    return ShorInstance.synthetic_instance(n_qubits, 1)


@st.composite
def weight_cases(draw) -> tuple[ShorInstance, float]:
    """Register shapes with L <= 12, 1 <= r <= q, any offset < r, |delta| <= 0.05."""
    n_qubits = draw(st.integers(1, 12))
    order = draw(st.integers(1, 1 << n_qubits))
    offset = draw(st.integers(0, order - 1))
    delta = draw(st.one_of(st.just(0.0), st.floats(-0.05, 0.05)))
    return ShorInstance.synthetic_instance(n_qubits, order, offset=offset), delta


class TestInitErrorWeights:
    def test_two_qubit_example(self) -> None:
        np.testing.assert_allclose(
            init_error_weights(every_value(2), 0.1), [0.8, 1.0, 1.0, 1.2]
        )

    def test_one_qubit(self) -> None:
        np.testing.assert_allclose(init_error_weights(every_value(1), 0.25), [0.75, 1.25])

    def test_zero_delta_gives_unit_weights(self) -> None:
        assert np.array_equal(init_error_weights(every_value(5), 0.0), np.ones(32))

    def test_weight_depends_only_on_bit_count(self) -> None:
        weights = init_error_weights(every_value(4), 0.05)
        for a in range(16):
            expected = 1.0 + 0.05 * (2 * bin(a).count("1") - 4)
            assert weights[a] == pytest.approx(expected)

    @pytest.mark.parametrize(
        "n_qubits, order, init_delta, norm",
        # The bound overflows with a finite squared norm, squares overflow,
        # weights overflow, the one weight is 1 - 2 * 0.5.
        [(7, 4, 5e152, "inf"), (7, 4, 1e300, "inf"), (7, 4, 1e308, "inf"),
         (2, 4, 0.5, "0")],
    )
    def test_rejects_weights_without_finite_positive_norm(
        self, n_qubits, order, init_delta, norm
    ) -> None:
        inst = ShorInstance.synthetic_instance(n_qubits, order)
        message = rf"init_delta=.* \(sum \|w\|\)\*\*2 is {norm};"
        with pytest.raises(ValueError, match=message):
            init_error_weights(inst, init_delta)
        with pytest.raises(ValueError, match=message):
            direct_spectrum(inst, np.zeros(inst.support_count), init_delta=init_delta)

    @settings(max_examples=200)
    @given(case=weight_cases())
    def test_equals_full_register_oracle_at_support(self, case) -> None:
        inst, delta = case
        got = init_error_weights(inst, delta)
        expected = full_register_weights(inst.n_qubits, delta)[inst.support_values()]
        assert got.shape == (inst.support_count,)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestNoiselessSpectrum:
    def test_full_period_peaks(self) -> None:
        spec = exact_spectrum(STANDARD)
        for c in range(128):
            if c % 32 == 0:
                assert spec.values[c] == pytest.approx(0.25, abs=1e-12)
            else:
                assert abs(spec.values[c]) <= 1e-12

    def test_offset_support(self) -> None:
        inst = ShorInstance.synthetic_instance(3, 2, offset=1)
        spec = exact_spectrum(inst)
        np.testing.assert_allclose(
            spec.values, [0.5, 0, 0, 0, 0.5, 0, 0, 0], atol=1e-12
        )

    def test_total_probability(self) -> None:
        # With unit weights the sum is r * M / q, which is 1 exactly when
        # the order divides the register size (the first two shapes).
        for n_qubits, order, offset, total in [
            (7, 4, 0, 1.0),
            (12, 8, 5, 1.0),
            (3, 3, 0, 9 / 8),
            (14, 5, 3, 16385 / 16384),
            (10, 3, 2, 1023 / 1024),
        ]:
            inst = ShorInstance.synthetic_instance(n_qubits, order, offset=offset)
            assert order * inst.support_count / inst.register_size == total
            assert exact_spectrum(inst).total() == pytest.approx(total, rel=1e-13)

    def test_matches_reference(self) -> None:
        for inst in (SMALL, ShorInstance.synthetic_instance(3, 3, offset=1)):
            spec = exact_spectrum(inst)
            expected = reference_distribution(inst, np.zeros(inst.support_count))
            np.testing.assert_allclose(spec.values, expected, atol=1e-12)


class TestDirectSpectrum:
    def test_matches_reference_with_phase_errors(self) -> None:
        rng = Xorshift64Star(17)
        errors = np.array([0.1 * gaussian(rng) for _ in range(SMALL.support_count)])
        spec = direct_spectrum(SMALL, errors)
        expected = reference_distribution(SMALL, errors)
        np.testing.assert_allclose(spec.values, expected, rtol=1e-10, atol=1e-13)

    def test_matches_reference_with_all_error_channels(self) -> None:
        rng = Xorshift64Star(23)
        m = SMALL.support_count
        phase = np.array([0.05 * gaussian(rng) for _ in range(m)])
        amp = np.array([0.02 * gaussian(rng) for _ in range(m)])
        spec = direct_spectrum(SMALL, phase, amp_errors=amp, init_delta=0.01)
        weights = full_register_weights(SMALL.n_qubits, 0.01)
        expected = reference_distribution(SMALL, phase, amp, weights)
        np.testing.assert_allclose(spec.values, expected, rtol=1e-10, atol=1e-13)

    def test_matches_reference_with_ragged_support(self) -> None:
        inst = ShorInstance.synthetic_instance(5, 3, offset=2)
        rng = Xorshift64Star(31)
        errors = np.array([0.2 * gaussian(rng) for _ in range(inst.support_count)])
        spec = direct_spectrum(inst, errors)
        expected = reference_distribution(inst, errors)
        np.testing.assert_allclose(spec.values, expected, rtol=1e-10, atol=1e-13)

    def test_zero_errors_reduce_to_noiseless(self) -> None:
        spec = direct_spectrum(STANDARD, np.zeros(STANDARD.support_count))
        expected = reference_distribution(STANDARD, np.zeros(STANDARD.support_count))
        np.testing.assert_allclose(spec.values, expected, atol=1e-12)
        assert spec.model is None

    def test_rejects_wrong_lengths(self) -> None:
        with pytest.raises(ValueError):
            direct_spectrum(SMALL, np.zeros(SMALL.support_count - 1))
        with pytest.raises(ValueError):
            direct_spectrum(
                SMALL,
                np.zeros(SMALL.support_count),
                amp_errors=np.zeros(3),
            )


def former_direct_values(
    inst: ShorInstance,
    phase_errors: np.ndarray,
    amp_errors: np.ndarray | None = None,
    init_weights: np.ndarray | None = None,
) -> np.ndarray:
    """The direct sum by one dense transform over the whole register.

    The coefficients are placed on the support of a length-q array and
    the transform is q times the normalized inverse FFT, as before the
    sum was reduced to its period.
    """
    support = np.asarray(
        range(inst.offset, inst.register_size, inst.order), dtype=np.int64
    )
    if amp_errors is None:
        amp_errors = np.zeros(inst.support_count)
    coeff = (1.0 + amp_errors) * np.exp(1j * phase_errors * support)
    if init_weights is not None:
        coeff = coeff * init_weights[support]
    placed = np.zeros(inst.register_size, dtype=complex)
    placed[support] = coeff
    q = inst.register_size
    transform = q * np.fft.ifft(placed)
    return (inst.order / q**2) * np.abs(transform) ** 2


@st.composite
def direct_sum_cases(draw) -> tuple:
    """Register shapes with L <= 12, 1 <= r <= q, any offset < r, and errors.

    Phase errors have a width from 1e-6 to 1 rad; amplitude errors and
    preparation error are each present or absent. The preparation error
    comes as init_delta and as the full-register weights of the oracle.
    """
    n_qubits = draw(st.integers(1, 12))
    q = 1 << n_qubits
    order = draw(st.integers(1, q))
    offset = draw(st.integers(0, order - 1))
    inst = ShorInstance.synthetic_instance(n_qubits, order, offset=offset)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([1e-6, 1e-3, 1.0]))
    phase = rng.normal(0.0, width, inst.support_count)
    amp = rng.normal(0.0, 1e-2, inst.support_count) if draw(st.booleans()) else None
    init_delta, weights = 0.0, None
    if draw(st.booleans()):
        init_delta = draw(st.floats(-0.05, 0.05))
        weights = full_register_weights(n_qubits, init_delta)
    return inst, phase, amp, init_delta, weights


# Unit roundoff of float64.
UNIT_ROUNDOFF = 2.0**-53


def coherent_peak(inst: ShorInstance, coeff_moduli: np.ndarray) -> float:
    """S = (r/q**2) * (sum_j |z_j|)**2, which bounds every P_c."""
    return inst.order / inst.register_size**2 * float(np.sum(coeff_moduli)) ** 2


def transform_error_bound(inst: ShorInstance) -> float:
    """Bound on max_c |P_c - P_c(dense)| in units of the coherent peak S.

    Every output of a length-n radix-2 FFT passes through log2(n)
    butterflies from every input with weight 1, and each butterfly adds
    a relative error of at most eta = 4u, so to first order
    |dY_c| <= eta * log2(n) * sum_j |z_j|. The dense oracle has n = q; the
    period route has n = W <= q plus twiddles and their product, within
    2 eta of |z_j|. Then |dP_c| <= (r/q**2) * 2 |Y_c| |dY_c|, and
    |Y_c| <= sum_j |z_j|, so max |dP| / S <= 2 eta (2 log2(q) + 2), plus
    4u for rounding the square and the scale.
    """
    eta = 4.0 * UNIT_ROUNDOFF
    return 2.0 * eta * (2.0 * inst.n_qubits + 2.0) + 4.0 * UNIT_ROUNDOFF


def assert_matches_dense_oracle(
    inst: ShorInstance,
    got: np.ndarray,
    phase: np.ndarray,
    amp: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> None:
    expected = former_direct_values(inst, phase, amp, weights)
    moduli = np.ones(inst.support_count)
    if amp is not None:
        moduli = np.abs(1.0 + amp)
    if weights is not None:
        moduli = moduli * np.abs(weights[inst.support_values()])
    error = float(np.max(np.abs(got - expected)))
    assert error <= transform_error_bound(inst) * coherent_peak(inst, moduli)


class TestDirectSumAccuracy:
    """The transform at the period agrees with the dense oracle to roundoff."""

    @settings(max_examples=200)
    @given(case=direct_sum_cases())
    def test_matches_dense_oracle_property(self, case) -> None:
        inst, phase, amp, init_delta, weights = case
        got = direct_spectrum(inst, phase, amp_errors=amp, init_delta=init_delta)
        assert_matches_dense_oracle(inst, got.values, phase, amp, weights)

    @pytest.mark.parametrize(
        "inst, model",
        [
            (
                ShorInstance.synthetic_instance(18, 5, offset=3),
                ErrorModel(ErrorMode.GAUSSIAN, sigma0=3e-6),
            ),
            (
                ShorInstance.synthetic_instance(16, 97, offset=5),
                ErrorModel(ErrorMode.GAUSSIAN, sigma0=3e-5),
            ),
            (
                ShorInstance.synthetic_instance(18, 4),
                ErrorModel(ErrorMode.UNIFORM, s_max=1e-3),
            ),
            (
                ShorInstance.from_factoring(221, 2),
                ErrorModel(ErrorMode.GAUSSIAN, sigma0=2e-5),
            ),
        ],
        ids=["direct", "wide", "floor", "N221"],
    )
    def test_matches_dense_oracle_on_benchmark_instances(self, inst, model) -> None:
        phase = phase_errors(model, inst.support_count, 1)
        got = direct_spectrum(inst, phase)
        assert_matches_dense_oracle(inst, got.values, phase)

    def test_sampled_amplitude_errors_match_dense_oracle(self) -> None:
        model = ErrorModel(
            ErrorMode.UNIFORM, s_max=0.1, include_amplitude_errors=True,
            init_delta=0.02,
        )
        inst = ShorInstance.synthetic_instance(10, 7, offset=3)
        phase = phase_errors(model, inst.support_count, 5)
        amp = amplitude_errors(model, inst.support_count, 5)
        weights = full_register_weights(inst.n_qubits, 0.02)
        got = model_spectrum(inst, model, seed=5)
        assert_matches_dense_oracle(inst, got.values, phase, amp, weights)

    @pytest.mark.parametrize(
        "order, offset, width, blocks",
        [
            (1, 0, 1024, 1),  # every value: no twiddle rows
            (1024, 0, 1, 1),  # M = 1 at q' = 1
            (1024, 1023, 1, 1),
            (512, 0, 2, 1),  # g = q/2
            (512, 511, 2, 1),
            (1023, 0, 2, 512),  # M = 2, B = q/2
            (3, 2, 512, 2),  # ragged and offset
            (96, 95, 16, 2),  # g = 32, ragged and offset
        ],
    )
    def test_edge_plans(self, order, offset, width, blocks) -> None:
        inst = ShorInstance.synthetic_instance(10, order, offset=offset)
        plan_width, twiddles, index = _period_plan(1024, order, inst.support_count)
        period = 1024 // math.gcd(order, 1024)
        assert (plan_width, len(index)) == (width, period)
        # Row 0's factors are all exp(0) = 1, so rows 1 .. B-1 have twiddles.
        assert twiddles.shape == (blocks - 1, inst.support_count)
        phase = np.random.default_rng(order).normal(0.0, 0.1, inst.support_count)
        got = direct_spectrum(inst, phase).values
        assert np.array_equal(got, np.tile(got[:period], 1024 // period))
        assert_matches_dense_oracle(inst, got, phase)
        at_period = period_values(inst, phase)
        assert at_period.shape == (period,)
        assert np.array_equal(register_values(inst, at_period), got)
        with pytest.raises(ValueError, match=f"length {period}"):
            register_values(inst, np.zeros(period + 1))

    def test_plan_is_read_only(self) -> None:
        for order, m in [(97, 43), (4, 1024)]:  # B = 64 and B = 1
            _, twiddles, index = _period_plan(1 << 12, order, m)
            assert not twiddles.flags.writeable
            assert not index.flags.writeable


def exact_angle_values(inst: ShorInstance, coeff: np.ndarray) -> np.ndarray:
    """The direct sum of the given coefficients in long double, term by term.

    Each angle 2 pi (c a_j mod q) / q is reduced in exact integers first,
    so the only roundings are long double ones, far below float64's.
    """
    q = inst.register_size
    support = inst.support_values().astype(np.int64)
    terms = coeff.astype(np.clongdouble)
    two_pi = 2 * np.arccos(np.longdouble(-1.0))
    values = np.empty(q, dtype=np.longdouble)
    for start in range(0, q, 256):
        c = np.arange(start, min(q, start + 256), dtype=np.int64)[:, None]
        angle = two_pi * ((c * support) % q).astype(np.longdouble) / q
        sums = (terms * np.exp(1j * angle)).sum(axis=1)
        values[start : start + len(sums)] = sums.real**2 + sums.imag**2
    return values * inst.order / np.longdouble(q) ** 2


class TestExactAngleSum:
    """Against an exact-angle long double sum, the period route is as good as dense."""

    @pytest.mark.parametrize(
        "n_qubits, order, offset, width",
        [(10, 1, 0, 1e-3), (10, 5, 3, 1.0), (11, 3, 2, 1e-6), (12, 97, 5, 1e-3),
         (12, 24, 0, 1.0)],
    )
    def test_no_less_accurate_than_dense(self, n_qubits, order, offset, width) -> None:
        assert np.finfo(np.longdouble).eps < 1e-18, "needs extended long double"
        inst = ShorInstance.synthetic_instance(n_qubits, order, offset=offset)
        phase = np.random.default_rng(n_qubits * order).normal(
            0.0, width, inst.support_count
        )
        exact = exact_angle_values(inst, _assemble(inst, phase, None, 0.0))
        peak = coherent_peak(inst, np.ones(inst.support_count))
        period_error = float(np.max(np.abs(direct_spectrum(inst, phase).values - exact)))
        dense_error = float(
            np.max(np.abs(former_direct_values(inst, phase) - exact))
        )
        # Both routes transform the same z, so transform_error_bound's
        # argument applies with log2(W) + 2 <= L + 1 butterflies for the
        # period route (W < q whenever there are twiddles) and L for the dense.
        bound = 2.0 * 4.0 * UNIT_ROUNDOFF * (n_qubits + 1) + 4.0 * UNIT_ROUNDOFF
        assert dense_error <= bound * peak
        assert period_error <= bound * peak
        # Beyond the dense route's realized error by no more than the
        # rounding of the final square and scale.
        assert period_error <= dense_error + 4.0 * UNIT_ROUNDOFF * peak


@st.composite
def closed_form_cases(draw) -> tuple[ShorInstance, float]:
    """Register shapes with L <= 12, r <= min(q, 300), any offset < r.

    The constant error is zero, a whole number of grid steps 2*pi*k/q, or
    of magnitude 1e-12 to 10 with either sign.
    """
    n_qubits = draw(st.integers(1, 12))
    q = 1 << n_qubits
    order = draw(st.integers(1, min(q, 300)))
    offset = draw(st.integers(0, order - 1))
    delta = draw(
        st.one_of(
            st.just(0.0),
            st.integers(-q, q).map(lambda k: 2.0 * math.pi * k / q),
            st.builds(
                math.copysign, st.floats(1e-12, 10.0), st.sampled_from([1.0, -1.0])
            ),
        )
    )
    return ShorInstance.synthetic_instance(n_qubits, order, offset=offset), delta


class TestClosedForm:
    @settings(max_examples=200)
    @given(case=closed_form_cases())
    def test_agrees_with_direct_sum_property(self, case) -> None:
        inst, delta = case
        closed = systematic_spectrum_closed_form(inst, delta)
        direct = direct_spectrum(inst, np.full(inst.support_count, delta))
        assert total_variation_distance(closed, direct) <= 1e-10

    def test_agrees_with_direct_sum_at_tiny_delta(self) -> None:
        # Near the peaks sin(theta) ~ delta*r/2 ~ 2e-9, so theta may carry
        # no absolute rounding error from pi*c*r/q.
        inst = ShorInstance.synthetic_instance(12, 24, offset=2)
        delta = 1.582385132569706e-10
        closed = systematic_spectrum_closed_form(inst, delta)
        direct = direct_spectrum(inst, np.full(inst.support_count, delta))
        assert total_variation_distance(closed, direct) <= 1e-10

    @pytest.mark.parametrize("delta", [0.02, 0.03, 0.05, 0.1, 0.33])
    @pytest.mark.parametrize("offset", [0, 1, 2, 3])
    def test_agrees_with_direct_sum(self, delta: float, offset: int) -> None:
        inst = ShorInstance.synthetic_instance(7, 4, offset=offset)
        closed = systematic_spectrum_closed_form(inst, delta)
        direct = direct_spectrum(inst, np.full(inst.support_count, delta))
        np.testing.assert_allclose(closed.values, direct.values, atol=1e-9)

    def test_agrees_on_ragged_support(self) -> None:
        inst = ShorInstance.synthetic_instance(5, 3)
        closed = systematic_spectrum_closed_form(inst, 0.07)
        direct = direct_spectrum(inst, np.full(inst.support_count, 0.07))
        np.testing.assert_allclose(closed.values, direct.values, atol=1e-9)

    def test_frozen_point_values(self) -> None:
        spec = systematic_spectrum_closed_form(STANDARD, 0.05)
        assert spec.values[0] == pytest.approx(8.346977154996798e-05, rel=1e-9)
        assert spec.values[127] == pytest.approx(0.24971612174075125, rel=1e-9)

    def test_offset_invariance_for_constant_error(self) -> None:
        # A constant phase error only contributes a global phase through
        # the offset, so the distribution must not depend on it.
        base = systematic_spectrum_closed_form(STANDARD, 0.05).values
        for offset in (1, 2, 3):
            inst = ShorInstance.synthetic_instance(7, 4, offset=offset)
            np.testing.assert_allclose(
                systematic_spectrum_closed_form(inst, 0.05).values, base, atol=1e-12
            )

    def test_zero_delta_equals_noiseless(self) -> None:
        spec = systematic_spectrum_closed_form(STANDARD, 0.0)
        np.testing.assert_allclose(
            spec.values, exact_spectrum(STANDARD).values, atol=1e-15
        )

    def test_zero_delta_matches_zero_error_sum_on_every_shape(self) -> None:
        # The geometric sum is exact for any support count, so at delta = 0
        # the closed form is the exact-gate spectrum for ragged and offset
        # supports too. Worst measured: 1.7e-16 max absolute, 2.1e-16 TVD.
        worst_abs = worst_tvd = 0.0
        for n_qubits in range(1, 13):
            q = 1 << n_qubits
            for order in {1, 2, 3, 4, 5, 7, 12, 33, 97, 255, q // 2 + 1, q - 1, q}:
                if order > q:
                    continue
                for offset in {0, 1 % order, order // 2, order - 1}:
                    inst = ShorInstance.synthetic_instance(n_qubits, order, offset)
                    closed = systematic_spectrum_closed_form(inst, 0.0)
                    exact = exact_spectrum(inst)
                    gap = np.abs(closed.values - exact.values).max()
                    worst_abs = max(worst_abs, gap)
                    tvd = total_variation_distance(closed, exact)
                    worst_tvd = max(worst_tvd, tvd)
        assert worst_abs <= 3e-16
        assert worst_tvd <= 3e-16

    def test_records_its_systematic_model(self) -> None:
        spec = systematic_spectrum_closed_form(STANDARD, 0.05)
        assert spec.model == ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.05)

    def test_tiny_delta_stays_on_closed_form(self) -> None:
        spec = systematic_spectrum_closed_form(STANDARD, 1e-8)
        for k in range(4):
            assert spec.values[32 * k] == pytest.approx(0.25, abs=1e-6)

    def test_peak_value_converges_to_noiseless(self) -> None:
        gaps = []
        for delta in (1e-4, 1e-6, 1e-8):
            spec = systematic_spectrum_closed_form(STANDARD, delta)
            gaps.append(abs(spec.values.max() - 0.25))
        assert gaps[0] > gaps[1] > gaps[2] or gaps[2] < 1e-12

    def test_peak_shift_law(self) -> None:
        # The dominant outcome near each reference peak k*q/r sits at
        # round(k*q/r - delta*q/(2*pi)) modulo q.
        q, r = 128, 4
        half_window = q // (2 * r)
        for delta in (0.01, 0.02, 0.05, 0.08, 0.12):
            values = systematic_spectrum_closed_form(STANDARD, delta).values
            for k in range(r):
                expected = round(k * q / r - delta * q / (2 * math.pi)) % q
                window = [(k * q // r + d) % q for d in range(-half_window, half_window)]
                best = max(window, key=lambda c: values[c])
                assert best == expected, (delta, k, best, expected)


class TestCombinedSpectrum:
    """One direct-sum realization under an error model (`model_spectrum`)."""

    def test_mode_none_reduces_to_noiseless(self) -> None:
        spec = model_spectrum(STANDARD, ErrorModel(), seed=3)
        np.testing.assert_allclose(
            spec.values, exact_spectrum(STANDARD).values, atol=1e-12
        )

    def test_systematic_matches_closed_form(self) -> None:
        # model_spectrum routes this model to the closed form itself.
        spec = direct_spectrum(STANDARD, np.full(STANDARD.support_count, 0.05))
        closed = systematic_spectrum_closed_form(STANDARD, 0.05)
        np.testing.assert_allclose(spec.values, closed.values, atol=1e-9)

    def test_same_seed_reproduces(self) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, s_max=0.05)
        a = model_spectrum(STANDARD, model, seed=42)
        b = model_spectrum(STANDARD, model, seed=42)
        assert np.array_equal(a.values, b.values)
        assert a.model is model

    def test_different_seeds_differ(self) -> None:
        model = ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.05)
        a = model_spectrum(STANDARD, model, seed=1)
        b = model_spectrum(STANDARD, model, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_matches_reference_for_sampled_errors(self) -> None:
        model = ErrorModel(
            ErrorMode.GAUSSIAN, sigma0=0.05, include_amplitude_errors=True,
            init_delta=0.01,
        )
        spec = model_spectrum(SMALL, model, seed=7)
        phase = phase_errors(model, SMALL.support_count, 7)
        amp = amplitude_errors(model, SMALL.support_count, 7)
        weights = full_register_weights(SMALL.n_qubits, 0.01)
        expected = reference_distribution(SMALL, phase, amp, weights)
        np.testing.assert_allclose(spec.values, expected, rtol=1e-10, atol=1e-13)


class TestModelSpectrum:
    @pytest.mark.parametrize(
        "model, method",
        [
            (ErrorModel(), SpectrumMethod.DIRECT_SUM),
            (ErrorModel(ErrorMode.UNIFORM), SpectrumMethod.DIRECT_SUM),
            (ErrorModel(init_delta=0.01), SpectrumMethod.DIRECT_SUM),
            (ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.05), SpectrumMethod.CLOSED_FORM),
            (
                ErrorModel(
                    ErrorMode.SYSTEMATIC, delta0=0.05, include_amplitude_errors=True
                ),
                SpectrumMethod.DIRECT_SUM,
            ),
            (
                ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.05, init_delta=0.01),
                SpectrumMethod.DIRECT_SUM,
            ),
            (ErrorModel(ErrorMode.UNIFORM, s_max=0.02), SpectrumMethod.DIRECT_SUM),
            (ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.02), SpectrumMethod.DIRECT_SUM),
        ],
    )
    def test_picks_route(self, model: ErrorModel, method: SpectrumMethod) -> None:
        assert model_spectrum(STANDARD, model, seed=5).method is method

    def test_direct_route_is_the_seeded_realization(self) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, s_max=0.02, init_delta=0.01)
        spec = model_spectrum(STANDARD, model, seed=5)
        m = STANDARD.support_count
        phase, amp = phase_errors(model, m, 5), amplitude_errors(model, m, 5)
        expected = direct_spectrum(STANDARD, phase, amp, model.init_delta)
        assert np.array_equal(spec.values, expected.values)
        assert spec.model is model

    @pytest.mark.parametrize(
        "inst",
        [STANDARD, ShorInstance.synthetic_instance(9, 7, offset=3),
         ShorInstance.synthetic_instance(12, 5, offset=4)],
    )
    def test_exact_gates_are_the_zero_error_direct_sum(self, inst) -> None:
        model = ErrorModel()
        spec = model_spectrum(inst, model, seed=5)
        zeros = direct_spectrum(inst, np.zeros(inst.support_count))
        assert spec.method is SpectrumMethod.DIRECT_SUM
        assert spec.model is model
        assert np.array_equal(spec.values.view(np.uint64), zeros.values.view(np.uint64))


class TestSpectrumContainer:
    def test_normalize(self) -> None:
        inst = ShorInstance.synthetic_instance(3, 3)
        spec = exact_spectrum(inst)
        normed = spec.normalize()
        assert normed.normalized
        assert normed.total() == pytest.approx(1.0, abs=1e-12)
        assert not spec.normalized

    def test_register_size(self) -> None:
        spec = exact_spectrum(SMALL)
        assert spec.register_size == 64
        assert len(spec.values) == 64

    def test_rejects_non_finite_values(self) -> None:
        for bad in (np.nan, np.inf, -np.inf):
            values = np.full(64, 1.0 / 64)
            values[5] = bad
            with pytest.raises(ValueError, match="finite"):
                Spectrum(values, SpectrumMethod.DIRECT_SUM, SMALL)

    def test_closed_form_rejects_nan_error(self) -> None:
        with pytest.raises(ValueError, match="finite"):
            systematic_spectrum_closed_form(SMALL, float("nan"))

    @pytest.mark.parametrize("channel", ["phase", "amplitude"])
    def test_direct_sum_rejects_nan_errors(self, channel: str) -> None:
        m = SMALL.support_count
        errors = {"phase": np.zeros(m), "amplitude": np.zeros(m)}
        errors[channel][1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            direct_spectrum(SMALL, errors["phase"], errors["amplitude"])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_closed_form_rejects_infinite_delta(self, bad: float) -> None:
        with pytest.raises(ValueError, match="delta must be finite"):
            systematic_spectrum_closed_form(SMALL, bad)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_init_error_weights_reject_infinite_delta(self, bad: float) -> None:
        with pytest.raises(ValueError, match="init_delta must be finite"):
            init_error_weights(SMALL, bad)

    @pytest.mark.parametrize("name", ["phase_errors", "amp_errors", "init_delta"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_direct_sum_names_infinite_input(self, name: str, bad: float) -> None:
        m = SMALL.support_count
        inputs = {"phase_errors": np.zeros(m), "amp_errors": np.zeros(m)}
        if name == "init_delta":
            inputs[name] = bad
        else:
            inputs[name][1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            direct_spectrum(SMALL, **inputs)

    def test_direct_sum_bounds_weighted_amplitude_factors(self) -> None:
        # Weights near 6e150 and factors 1 + 1e10 each pass alone; the
        # (sum |w (1 + d)|)**2 of their products does not. Factors 1 - 1
        # leave every coefficient zero.
        m = SMALL.support_count
        init_error_weights(SMALL, 1e150)
        with pytest.raises(ValueError, match=r"amplitude errors .* is inf;"):
            direct_spectrum(SMALL, np.zeros(m), np.full(m, 1e10), init_delta=1e150)
        with pytest.raises(ValueError, match=r"amplitude errors .* is 0;"):
            direct_spectrum(SMALL, np.zeros(m), np.full(m, -1.0))

    def test_direct_sum_rejects_nan_init_delta(self) -> None:
        m = SMALL.support_count
        with pytest.raises(ValueError, match="init_delta must be finite"):
            direct_spectrum(SMALL, np.zeros(m), init_delta=float("nan"))


class TestTotalVariationDistance:
    def _make(self, values: list[float]) -> Spectrum:
        inst = ShorInstance.synthetic_instance(2, 2)
        return Spectrum(
            values=np.asarray(values, dtype=float),
            method=SpectrumMethod.DIRECT_SUM,
            instance=inst,
        )

    def test_identical_distributions(self) -> None:
        spec = exact_spectrum(STANDARD)
        assert total_variation_distance(spec, spec) == 0.0

    def test_disjoint_distributions(self) -> None:
        a = self._make([1.0, 0.0, 0.0, 0.0])
        b = self._make([0.0, 1.0, 0.0, 0.0])
        assert total_variation_distance(a, b) == pytest.approx(1.0)

    def test_normalizes_before_comparing(self) -> None:
        a = self._make([2.0, 0.0, 0.0, 0.0])
        b = self._make([0.0, 0.0, 3.0, 0.0])
        assert total_variation_distance(a, b) == pytest.approx(1.0)

    def test_known_half_distance(self) -> None:
        a = self._make([0.5, 0.5, 0.0, 0.0])
        b = self._make([0.5, 0.0, 0.5, 0.0])
        assert total_variation_distance(a, b) == pytest.approx(0.5)

    def test_separates_small_from_large_errors(self) -> None:
        # Against the exact four-line comb even a one-bin peak shift moves
        # nearly all mass, so only genuinely tiny errors keep TV small.
        base = exact_spectrum(STANDARD)
        tiny = total_variation_distance(
            base, systematic_spectrum_closed_form(STANDARD, 1e-6)
        )
        large = total_variation_distance(
            base, systematic_spectrum_closed_form(STANDARD, 0.05)
        )
        assert tiny < 1e-3
        assert large > 0.9


class TestCsvRoundTrip:
    def test_write_and_read(self, tmp_path) -> None:
        spec = systematic_spectrum_closed_form(STANDARD, 0.05)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        parsed = read_spectrum_csv(path)
        np.testing.assert_allclose(parsed, spec.values, rtol=1e-12, atol=1e-300)

    def test_format(self, tmp_path) -> None:
        spec = exact_spectrum(SMALL)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "c,probability"
        assert len(lines) == 65
        first = lines[1].split(",")
        assert first[0] == "0"
        float(first[1])


def written_csv(values: np.ndarray) -> bytes:
    """write_spectrum_csv's bytes for one value per register outcome."""
    inst = ShorInstance.synthetic_instance(len(values).bit_length() - 1, 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.csv"
        write_spectrum_csv(Spectrum(values, SpectrumMethod.DIRECT_SUM, inst), path)
        return path.read_bytes()


def assert_csv_matches_reference(values: np.ndarray) -> None:
    """Zero-pad values to a register; both writers must give the same bytes."""
    padded = np.zeros(1 << max(1, (len(values) - 1).bit_length()))
    padded[: len(values)] = values
    assert written_csv(padded) == format_spectrum_csv_reference(padded)


def near_half_digit(digits: int, exponent: int, offset: str) -> float:
    """The float nearest (digits + 1/2 + offset) * 10**(exponent - 12)."""
    exact = Decimal(digits) + Decimal("0.5") + Decimal(offset)
    return float(exact.scaleb(exponent - 12))


# Short decimals ending in 5 at the 14th digit: their scaled fraction is
# within a rounding of 1/2, so the writer must defer to `%.12e`.
near_ties = st.builds(
    lambda digits, exponent: float(f"{digits}5e{exponent - 13}"),
    st.integers(10**12, 10**13 - 1),
    st.integers(-320, 295),
)
csv_values = st.one_of(
    st.floats(min_value=-1e-15, allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    ),
    near_ties,
)


class TestCsvWriter:
    """Byte-for-byte agreement with the f-string row formatter."""

    @settings(max_examples=300)
    @given(st.lists(csv_values, min_size=1, max_size=40))
    def test_matches_reference_property(self, values: list[float]) -> None:
        assert_csv_matches_reference(np.array(values))

    def test_pinned_values(self) -> None:
        pinned = [
            2.0**-20,  # exact tie 9.5367431640625e-07, rounds to even
            9.9999999999995,
            9.99999999999949,
            9.99999999999951,
            0.0,
            -0.0,
            -1e-15,
            5e-324,
            np.nextafter(1e-280, 0.0),
            1e-280,
            1e280,
            np.nextafter(1e280, np.inf),
            1.7976931348623157e308,
        ]
        for digits, exponent in [
            (1234567890123, -5),
            (9999999999999, 0),
            (1000000000000, 7),
            (5000000000000, -200),
            (3141592653589, 250),
        ]:
            for offset in ("-1e-3", "-3e-4", "-1e-4", "0", "1e-4", "3e-4", "1e-3"):
                pinned.append(near_half_digit(digits, exponent, offset))
        assert_csv_matches_reference(np.array(pinned))

    def test_every_chunk_and_c_width_boundary(self) -> None:
        # q = 2**17 rows: sixteen chunks, and c from one to six digits.
        rng = np.random.default_rng(17)
        values = 10.0 ** rng.uniform(-330.0, 300.0, 1 << 17)
        values[rng.integers(0, 1 << 17, 1000)] = 0.0
        assert_csv_matches_reference(values)

    @pytest.mark.parametrize("first_c", [999_990, 9_999_990, (1 << 24) - 10])
    def test_seven_and_eight_digit_c(self, first_c: int) -> None:
        values = np.array([0.25, 0.0, 1e-300, 3e-7, 1.5, 0.1, 7e100, 2e-5, 0.5, 1.0])
        rows = b"c,probability\n" + _csv_rows(values, first_c).tobytes()
        assert rows == format_spectrum_csv_reference(values, first_c)

    def test_benchmark_closed_form_spectrum(self) -> None:
        inst = ShorInstance.synthetic_instance(18, 5, offset=3)
        assert_csv_matches_reference(systematic_spectrum_closed_form(inst, 1e-5).values)


# Values the word rows hold: +0.0 and magnitudes in [1e-99, 1e100), but for
# the few from 9.9999999999995e99 up, which `%.12e` prints with e+100.
plain_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-99, max_value=1e100, exclude_max=True),
)


@pytest.fixture
def fallback_chunks(monkeypatch) -> list[int]:
    """The length of every chunk left to the f-string rows."""
    refused = []
    decimal_digits = spectrum._decimal_digits

    def counted(values: np.ndarray):
        digits = decimal_digits(values)
        if digits is None:
            refused.append(len(values))
        return digits

    monkeypatch.setattr(spectrum, "_decimal_digits", counted)
    return refused


class TestCsvWordRows:
    """Plain values take the word rows, and every chunk matches the f-string."""

    def test_plain_chunks_at_every_c_width(self, fallback_chunks) -> None:
        # q = 2**17 rows: sixteen chunks, and c from one to six digits.
        values = 10.0 ** np.random.default_rng(18).uniform(-30.0, 0.0, 1 << 17)
        assert_csv_matches_reference(values)
        assert fallback_chunks == []

    @pytest.mark.parametrize("first_c", [999_990, 9_999_990, (1 << 24) - 10])
    def test_seven_and_eight_digit_c(self, fallback_chunks, first_c: int) -> None:
        values = np.array([0.25, 0.0, 3e-7, 1.5, 0.1, 2e-5, 0.5, 1.0, 1e-99, 9e99])
        rows = b"c,probability\n" + _csv_rows(values, first_c).tobytes()
        assert rows == format_spectrum_csv_reference(values, first_c)
        assert fallback_chunks == []

    @pytest.mark.parametrize(
        "odd, falls_back",
        [
            (-0.0, True),
            (-1e-16, True),
            (1e-120, True),
            (2.0**-20, False),  # exact tie 9.5367431640625e-07, rounds to even
            (0.99999999999999995, False),  # parses to 1.0: log10 exactly 0
            (np.nextafter(1.0, 0.0), False),  # its 13 digits round up to 10**13
            (np.nextafter(9.9999999999995e99, 0.0), False),  # 9.999999999999e+99
            (9.9999999999995e99, True),  # 1.000000000000e+100, a longer row
        ],
    )
    def test_one_odd_row_in_a_plain_chunk(
        self, fallback_chunks, odd: float, falls_back: bool
    ) -> None:
        values = 10.0 ** np.random.default_rng(19).uniform(-30.0, 0.0, 1 << 13)
        values[4321] = odd
        assert_csv_matches_reference(values)
        assert fallback_chunks == ([1 << 13] if falls_back else [])

    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_exponent_fix_absorbs_a_log10_one_off(
        self, monkeypatch, fallback_chunks, shift: float
    ) -> None:
        # floor(log10(v) + shift) is one off for about half of the values.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
        values = 10.0 ** np.random.default_rng(20).uniform(-30.0, 0.0, 1 << 13)
        assert_csv_matches_reference(values)
        assert fallback_chunks == []

    def test_digits_that_carry_below_a_decade_high_log10(
        self, monkeypatch, fallback_chunks
    ) -> None:
        # With e one high, v * 10**(12-e) lies just below 10**12 and rounds to
        # it, but `%.12e` prints 9.999999999997e-01 at the decade below.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + 1e-12)
        values = np.array([0.9999999999997, 0.5, 0.99999999999999])
        assert_csv_matches_reference(values)
        assert fallback_chunks == []

    @settings(max_examples=300)
    @given(
        st.lists(plain_values, min_size=1, max_size=40),
        st.integers(0, (1 << 24) - 40),
    )
    def test_plain_values_match_reference_property(
        self, values: list[float], first_c: int
    ) -> None:
        values = np.array(values)
        rows = b"c,probability\n" + _csv_rows(values, first_c).tobytes()
        assert rows == format_spectrum_csv_reference(values, first_c)


class TestMetadata:
    def test_core_fields(self) -> None:
        spec = systematic_spectrum_closed_form(STANDARD, 0.05)
        meta = spectrum_metadata(spec, seed=None)
        assert "method=closed_form" in meta
        assert "q=128" in meta
        assert "r=4" in meta
        assert "l=0" in meta
        assert "seed=none" in meta
        assert "normalized=false" in meta
        assert "synthetic=true" in meta

    def test_seed_and_fallback_fields(self) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, s_max=0.05)
        spec = model_spectrum(STANDARD, model, seed=42)
        meta = spectrum_metadata(spec, seed=42)
        assert "seed=42" in meta
        assert "method=direct_sum" in meta
        assert "model=uniform\ndelta0=0.0\ns_max=0.05\nsigma0=0.0\n" in meta
        assert "include_amplitude_errors=false\ninit_delta=0.0\nseed=42\n" in meta
        closed = spectrum_metadata(systematic_spectrum_closed_form(STANDARD, 0.0))
        assert "model=systematic\ndelta0=0.0\n" in closed
        assert "seed=none" in closed

    def test_errors_passed_in_directly_are_custom(self) -> None:
        meta = spectrum_metadata(exact_spectrum(STANDARD), seed=1)
        assert "model=custom\nseed=1\n" in meta
        assert "delta0" not in meta

    def test_partial_support_recorded(self) -> None:
        inst = ShorInstance.synthetic_instance(3, 3)
        meta = spectrum_metadata(exact_spectrum(inst))
        assert "support_count=3" in meta
