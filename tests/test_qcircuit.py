"""Tests for the gate-level state-vector simulator.

The oracle for the transform is a dense matrix F[c, a] = exp(2i*pi*c*a/q)/sqrt(q)
built directly with numpy outer products, against which the gate sequence is
checked column by column and on random states.
"""

from __future__ import annotations

import numpy as np
import pytest

from shornoise.errmodel import ErrorMode, ErrorModel, Xorshift64Star
from shornoise.numth import ShorInstance
from shornoise.qcircuit import (
    MAX_QUBITS,
    GateErrorPlan,
    StateVector,
    _bit_reversal_permutation,
    apply_controlled_phase_noisy,
    apply_hadamard_noisy,
    circuit_spectrum,
    measure_all,
    outcome_from_uniform,
    prepare_period_state,
    qft_noisy,
    sample_outcomes,
)
from shornoise.spectrum import init_error_weights, noiseless_spectrum


def dft_matrix(n_qubits: int) -> np.ndarray:
    q = 1 << n_qubits
    c, a = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    return np.exp(2j * np.pi * c * a / q) / np.sqrt(q)


def random_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    q = 1 << n_qubits
    amps = rng.normal(size=q) + 1j * rng.normal(size=q)
    amps /= np.linalg.norm(amps)
    return StateVector(n_qubits, amps)


class TestStateVector:
    def test_from_basis(self) -> None:
        state = StateVector.from_basis(3, 5)
        assert state.amplitudes[5] == 1.0
        assert state.norm() == pytest.approx(1.0)
        assert np.count_nonzero(state.amplitudes) == 1

    def test_probabilities(self) -> None:
        state = StateVector(1, np.array([0.6, 0.8j]))
        np.testing.assert_allclose(state.probabilities(), [0.36, 0.64])

    def test_copy_is_independent(self) -> None:
        state = StateVector.from_basis(2, 0)
        clone = state.copy()
        clone.amplitudes[0] = 0.0
        assert state.amplitudes[0] == 1.0

    def test_register_width_limits(self) -> None:
        with pytest.raises(ValueError):
            StateVector.from_basis(MAX_QUBITS + 1, 0)
        with pytest.raises(ValueError):
            StateVector.from_basis(3, 8)


class TestHadamardGate:
    def test_exact_columns(self) -> None:
        s = 1.0 / np.sqrt(2.0)
        plus = apply_hadamard_noisy(StateVector.from_basis(1, 0), 0, 0.0)
        np.testing.assert_allclose(plus.amplitudes, [s, s], atol=1e-15)
        minus = apply_hadamard_noisy(StateVector.from_basis(1, 1), 0, 0.0)
        np.testing.assert_allclose(minus.amplitudes, [s, -s], atol=1e-15)

    def test_quarter_turn_sends_zero_to_one(self) -> None:
        out = apply_hadamard_noisy(StateVector.from_basis(1, 0), 0, np.pi / 4)
        np.testing.assert_allclose(out.amplitudes, [0.0, 1.0], atol=1e-15)

    def test_acts_on_selected_qubit(self) -> None:
        # Qubit 0 is the most significant bit of the outcome index.
        s = 1.0 / np.sqrt(2.0)
        out0 = apply_hadamard_noisy(StateVector.from_basis(2, 0), 0, 0.0)
        np.testing.assert_allclose(out0.amplitudes, [s, 0, s, 0], atol=1e-15)
        out1 = apply_hadamard_noisy(StateVector.from_basis(2, 0), 1, 0.0)
        np.testing.assert_allclose(out1.amplitudes, [s, s, 0, 0], atol=1e-15)

    def test_preserves_norm_for_any_angle_error(self) -> None:
        rng = np.random.default_rng(7)
        for delta in (-1.0, -0.3, 0.1, 0.9):
            for qubit in range(4):
                out = apply_hadamard_noisy(random_state(4, rng), qubit, delta)
                assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_involution_at_zero_error(self) -> None:
        rng = np.random.default_rng(8)
        state = random_state(3, rng)
        before = state.amplitudes.copy()
        apply_hadamard_noisy(apply_hadamard_noisy(state, 1, 0.0), 1, 0.0)
        np.testing.assert_allclose(state.amplitudes, before, atol=1e-12)

    def test_updates_state_in_place(self) -> None:
        state = StateVector.from_basis(1, 0)
        out = apply_hadamard_noisy(state, 0, 0.0)
        assert out is state

    def test_rejects_bad_qubit(self) -> None:
        with pytest.raises(ValueError):
            apply_hadamard_noisy(StateVector.from_basis(2, 0), 2, 0.0)


class TestControlledPhaseGate:
    def test_only_double_one_branch_rotates(self) -> None:
        theta, delta = np.pi / 2, 0.05
        for index in range(4):
            out = apply_controlled_phase_noisy(
                StateVector.from_basis(2, index), 0, 1, theta, delta
            )
            expected = np.zeros(4, dtype=complex)
            expected[index] = np.exp(1j * (theta + delta)) if index == 3 else 1.0
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_symmetric_in_control_and_target(self) -> None:
        rng = np.random.default_rng(9)
        state = random_state(3, rng)
        a = apply_controlled_phase_noisy(state.copy(), 0, 2, 0.7, 0.1)
        b = apply_controlled_phase_noisy(state.copy(), 2, 0, 0.7, 0.1)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-15)

    def test_preserves_norm(self) -> None:
        rng = np.random.default_rng(10)
        out = apply_controlled_phase_noisy(random_state(3, rng), 1, 2, 1.3, -0.4)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_equal_control_and_target(self) -> None:
        with pytest.raises(ValueError):
            apply_controlled_phase_noisy(StateVector.from_basis(2, 3), 1, 1, 0.1, 0.0)


class TestGateErrorPlan:
    def test_exact_plan_counts(self) -> None:
        for n in (1, 3, 5, 8):
            plan = GateErrorPlan.exact(n)
            assert len(plan.hadamard_deltas) == n
            assert len(plan.phase_deltas) == n * (n - 1) // 2
            assert not plan.hadamard_deltas.any()
            assert not plan.phase_deltas.any()

    def test_systematic_sample(self) -> None:
        model = ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.01)
        plan = GateErrorPlan.sample(model, 4, seed=5)
        np.testing.assert_allclose(plan.phase_deltas, np.full(6, 0.01))
        assert not plan.hadamard_deltas.any()

    def test_amplitude_toggle_keeps_phase_draws(self) -> None:
        off = ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.1)
        on = ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.1, include_amplitude_errors=True)
        plan_off = GateErrorPlan.sample(off, 4, seed=5)
        plan_on = GateErrorPlan.sample(on, 4, seed=5)
        assert np.array_equal(plan_off.phase_deltas, plan_on.phase_deltas)
        assert not plan_off.hadamard_deltas.any()
        assert plan_on.hadamard_deltas.any()

    def test_single_qubit_plan_has_no_pair_gates(self) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, s_max=0.2)
        plan = GateErrorPlan.sample(model, 1, seed=3)
        assert len(plan.phase_deltas) == 0


class TestQftNoisy:
    def test_matches_dense_transform_on_basis_states(self) -> None:
        n = 3
        dense = dft_matrix(n)
        plan = GateErrorPlan.exact(n)
        for a in range(8):
            out = qft_noisy(StateVector.from_basis(n, a), plan)
            np.testing.assert_allclose(out.amplitudes, dense[:, a], atol=1e-12)

    def test_matches_dense_transform_on_random_states(self) -> None:
        n = 7
        dense = dft_matrix(n)
        plan = GateErrorPlan.exact(n)
        rng = np.random.default_rng(123)
        for _ in range(5):
            state = random_state(n, rng)
            expected = dense @ state.amplitudes
            out = qft_noisy(state, plan)
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)

    def test_transforms_in_place(self) -> None:
        state = StateVector.from_basis(3, 2)
        out = qft_noisy(state, GateErrorPlan.exact(3))
        assert out is state

    def test_pure_frequency_concentrates(self) -> None:
        # exp(2i*pi*k*a/q) input with k = 5 lands on outcome (-k) mod q = 3.
        n, k = 3, 5
        q = 1 << n
        amps = np.exp(2j * np.pi * k * np.arange(q) / q) / np.sqrt(q)
        out = qft_noisy(StateVector(n, amps), GateErrorPlan.exact(n))
        assert int(np.argmax(np.abs(out.amplitudes))) == 3
        assert abs(out.amplitudes[3]) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_under_large_gate_errors(self) -> None:
        rng = np.random.default_rng(77)
        n = 5
        for _ in range(4):
            plan = GateErrorPlan(
                n_qubits=n,
                hadamard_deltas=rng.uniform(-1, 1, n),
                phase_deltas=rng.uniform(-1, 1, n * (n - 1) // 2),
            )
            state = random_state(n, rng)
            out = qft_noisy(state, plan)
            assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_mismatched_plan(self) -> None:
        with pytest.raises(ValueError):
            qft_noisy(StateVector.from_basis(4, 0), GateErrorPlan.exact(3))


def reverse_bits(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


@pytest.mark.parametrize("n_qubits", range(1, 13))
def test_bit_reversal_matches_scalar_oracle(n_qubits: int) -> None:
    expected = [reverse_bits(i, n_qubits) for i in range(1 << n_qubits)]
    assert _bit_reversal_permutation(n_qubits).tolist() == expected


class TestPreparePeriodState:
    def test_uniform_support(self) -> None:
        inst = ShorInstance.from_factoring(15, 7)
        state = prepare_period_state(inst)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        expected = np.zeros(256, dtype=complex)
        expected[::4] = 1.0 / np.sqrt(64)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_weighted_support(self) -> None:
        inst = ShorInstance.synthetic_instance(3, 2)
        state = prepare_period_state(inst, init_delta=0.1)
        weights = init_error_weights(3, 0.1)
        expected = np.zeros(8)
        expected[[0, 2, 4, 6]] = weights[[0, 2, 4, 6]]
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(state.amplitudes.real, expected, atol=1e-12)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_offset_support(self) -> None:
        inst = ShorInstance.synthetic_instance(3, 3, offset=2)
        state = prepare_period_state(inst)
        nonzero = np.nonzero(state.amplitudes)[0]
        assert list(nonzero) == [2, 5]


class TestMeasurement:
    def test_outcome_bins(self) -> None:
        probs = np.full(4, 0.25)
        assert outcome_from_uniform(probs, 0.3) == 1
        assert outcome_from_uniform(probs, 0.0) == 0
        assert outcome_from_uniform(probs, 0.999) == 3
        assert outcome_from_uniform(probs, 0.25) == 1

    def test_measure_consumes_one_draw(self) -> None:
        state = StateVector(2, np.full(4, 0.5, dtype=complex))
        rng = Xorshift64Star(9)
        measure_all(state, rng)
        advanced = Xorshift64Star(9)
        advanced.next_u64()
        assert rng.state == advanced.state

    def test_measure_rejects_unnormalized_state(self) -> None:
        bad = StateVector(1, np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError):
            measure_all(bad, Xorshift64Star(1))

    def test_sampling_matches_probabilities(self) -> None:
        state = StateVector(2, np.full(4, 0.5, dtype=complex))
        rng = Xorshift64Star(314)
        shots = 100_000
        outcomes = sample_outcomes(state, shots, rng)
        counts = np.bincount(outcomes, minlength=4) / shots
        sigma = np.sqrt(0.25 * 0.75 / shots)
        np.testing.assert_allclose(counts, 0.25, atol=3 * sigma)

    def test_sampling_matches_repeated_measurement(self) -> None:
        amps = np.sqrt(np.arange(1, 9) / 36.0).astype(complex)
        state = StateVector(3, amps)
        batch = Xorshift64Star(21)
        scalar = Xorshift64Star(21)
        outcomes = sample_outcomes(state, 300, batch)
        assert outcomes.tolist() == [measure_all(state, scalar) for _ in range(300)]
        assert batch.state == scalar.state

    def test_sampling_is_reproducible(self) -> None:
        state = StateVector(2, np.full(4, 0.5, dtype=complex))
        a = sample_outcomes(state, 50, Xorshift64Star(1))
        b = sample_outcomes(state, 50, Xorshift64Star(1))
        assert np.array_equal(a, b)


class TestCircuitSpectrum:
    def test_zero_error_matches_noiseless(self) -> None:
        inst = ShorInstance.synthetic_instance(5, 4)
        circ = circuit_spectrum(inst, ErrorModel(), seed=0)
        assert circ.normalized
        np.testing.assert_allclose(
            circ.values, noiseless_spectrum(inst).values, atol=1e-12
        )

    def test_distribution_sums_to_one(self) -> None:
        inst = ShorInstance.synthetic_instance(5, 4)
        model = ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.05)
        circ = circuit_spectrum(inst, model, seed=11)
        assert circ.values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_reproducible_for_same_seed(self) -> None:
        inst = ShorInstance.synthetic_instance(5, 4)
        model = ErrorModel(ErrorMode.UNIFORM, s_max=0.05)
        a = circuit_spectrum(inst, model, seed=4)
        b = circuit_spectrum(inst, model, seed=4)
        assert np.array_equal(a.values, b.values)
        assert a.realization_seed == 4

    def test_ragged_support_stays_normalized(self) -> None:
        inst = ShorInstance.synthetic_instance(4, 3, offset=1)
        circ = circuit_spectrum(inst, ErrorModel(), seed=0)
        assert circ.values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_pure_phase_gate_errors_cannot_move_comb_probabilities(self) -> None:
        # On a power-of-two comb each qubit collapses to a definite basis
        # state as soon as its superposition gate has acted, so every
        # controlled-phase error either multiplies the whole register by a
        # global phase or touches an empty branch. The outcome distribution
        # is exactly invariant; only superposition-gate errors (the
        # amplitude channel) can disturb it.
        inst = ShorInstance.synthetic_instance(7, 4)
        phase_only = ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.01)
        circ = circuit_spectrum(inst, phase_only, seed=0)
        np.testing.assert_allclose(
            circ.values, noiseless_spectrum(inst).values, atol=1e-12
        )
        with_amp = ErrorModel(
            ErrorMode.SYSTEMATIC, delta0=0.01, include_amplitude_errors=True
        )
        disturbed = circuit_spectrum(inst, with_amp, seed=0)
        assert np.abs(
            disturbed.values - noiseless_spectrum(inst).values
        ).max() > 1e-4
