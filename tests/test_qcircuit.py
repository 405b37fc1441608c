"""Tests for the gate-level state-vector simulator.

Three oracles check the transform: the dense matrix
F[c, a] = exp(2i*pi*c*a/q)/sqrt(q) built from numpy outer products; a
dense gate-by-gate reference that multiplies out every A_j as a
Kronecker product and every B_jk as a diagonal, for random errors on
all gates; and the closed error kernel
U[c, a] = F[c, a] * exp(i * sum_{j<k} delta_jk * c_j * a_k) for plans
with phase errors only. Gate behaviour is checked through `qft_noisy`
on one- and two-qubit registers.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shornoise import qcircuit
from shornoise.errmodel import ErrorMode, ErrorModel, Xorshift64Star
from shornoise.numth import ShorInstance
from shornoise.qcircuit import (
    GateErrorPlan,
    circuit_spectrum,
    outcome_cdf,
    prepare_period_state,
    qft_noisy,
    sample_outcomes,
)
from shornoise.spectrum import direct_spectrum, init_error_weights
from circuit_oracle import former_qft_noisy
from prng_oracle import amplitude_errors, phase_errors, uniform01
from weights_oracle import full_register_weights


def same_bits(first: np.ndarray, second: np.ndarray) -> bool:
    return first.shape == second.shape and np.array_equal(
        first.view(np.uint64), second.view(np.uint64)
    )


def dft_matrix(n_qubits: int) -> np.ndarray:
    q = 1 << n_qubits
    c, a = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    return np.exp(2j * np.pi * c * a / q) / np.sqrt(q)


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    q = 1 << n_qubits
    amps = rng.normal(size=q) + 1j * rng.normal(size=q)
    return amps / np.linalg.norm(amps)


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[index] = 1.0
    return amps


def zero_plan(n_qubits: int) -> GateErrorPlan:
    n_pairs = n_qubits * (n_qubits - 1) // 2
    return GateErrorPlan(n_qubits, np.zeros(n_qubits), np.zeros(n_pairs))


def phase_plan(n_qubits: int, phase_deltas) -> GateErrorPlan:
    return GateErrorPlan(n_qubits, np.zeros(n_qubits), phase_deltas)


def random_plan(n_qubits: int, rng: np.random.Generator, exact_a: bool) -> GateErrorPlan:
    n_pairs = n_qubits * (n_qubits - 1) // 2
    hadamard = np.zeros(n_qubits) if exact_a else rng.uniform(-1, 1, n_qubits)
    return GateErrorPlan(n_qubits, hadamard, rng.uniform(-1, 1, n_pairs))


def circuit_matrix(plan: GateErrorPlan) -> np.ndarray:
    """The noisy circuit as a matrix, one qft_noisy run per column."""
    n = plan.n_qubits
    return np.column_stack([qft_noisy(basis_state(n, a), plan) for a in range(1 << n)])


def reverse_bits(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def gate_by_gate_matrix(plan: GateErrorPlan) -> np.ndarray:
    """Multiply out the circuit one dense gate at a time.

    A_j is the reflection matrix on qubit j (qubit 0 is the most
    significant index bit) in a Kronecker product with identities, B_jk
    a diagonal with its phase on the indices where qubits j and k are
    both 1, and the final rows are bit-reversed.
    """
    n = plan.n_qubits
    q = 1 << n
    index = np.arange(q)
    bits = [(index >> (n - 1 - j)) & 1 for j in range(n)]
    pair_deltas = iter(plan.phase_deltas)
    unitary = np.eye(q, dtype=complex)
    for j in range(n):
        c, s = np.cos(plan.hadamard_deltas[j]), np.sin(plan.hadamard_deltas[j])
        reflection = np.array([[c - s, c + s], [c + s, s - c]]) / np.sqrt(2.0)
        gate = np.kron(np.kron(np.eye(1 << j), reflection), np.eye(1 << (n - 1 - j)))
        unitary = gate @ unitary
        for k in range(j + 1, n):
            angle = np.pi / 2 ** (k - j) + next(pair_deltas)
            diagonal = np.where(bits[j] & bits[k], np.exp(1j * angle), 1.0)
            unitary = diagonal[:, None] * unitary
    return unitary[[reverse_bits(c, n) for c in range(q)]]


def error_kernel(plan: GateErrorPlan) -> np.ndarray:
    """F[c, a] * exp(i * sum_{j<k} delta_jk * c_j * a_k) for a phase-only plan.

    c_j is bit j of c from the least significant bit; a_k is bit
    L-1-k of a.
    """
    n = plan.n_qubits
    index = np.arange(1 << n)
    phase = np.zeros((1 << n, 1 << n))
    pair_deltas = iter(plan.phase_deltas)
    for j in range(n):
        for k in range(j + 1, n):
            c_j = (index >> j) & 1
            a_k = (index >> (n - 1 - k)) & 1
            phase += next(pair_deltas) * np.outer(c_j, a_k)
    return dft_matrix(n) * np.exp(1j * phase)


class TestHadamardGate:
    """A_j seen through the one- and two-qubit circuits."""

    def test_exact_columns(self) -> None:
        s = 1.0 / np.sqrt(2.0)
        plus = qft_noisy(basis_state(1, 0), zero_plan(1))
        np.testing.assert_allclose(plus, [s, s], atol=1e-15)
        minus = qft_noisy(basis_state(1, 1), zero_plan(1))
        np.testing.assert_allclose(minus, [s, -s], atol=1e-15)

    def test_quarter_turn_sends_zero_to_one(self) -> None:
        out = qft_noisy(basis_state(1, 0), GateErrorPlan(1, [np.pi / 4], []))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_acts_on_selected_qubit(self) -> None:
        # A quarter turn on one qubit sends it from |0> to |1> while the
        # other qubit's exact gate spreads it; qubit j lands on bit j of c.
        s = 1.0 / np.sqrt(2.0)
        out0 = qft_noisy(basis_state(2, 0), GateErrorPlan(2, [np.pi / 4, 0.0], [0.0]))
        np.testing.assert_allclose(out0, [0, s, 0, s], atol=1e-15)
        out1 = qft_noisy(basis_state(2, 0), GateErrorPlan(2, [0.0, np.pi / 4], [0.0]))
        np.testing.assert_allclose(out1, [0, 0, s, s], atol=1e-15)

    def test_preserves_norm_for_any_angle_error(self) -> None:
        rng = np.random.default_rng(7)
        for delta in (-1.0, -0.3, 0.1, 0.9):
            for qubit in range(4):
                deltas = np.zeros(4)
                deltas[qubit] = delta
                plan = GateErrorPlan(4, deltas, np.zeros(6))
                out = qft_noisy(random_state(4, rng), plan)
                assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_involution_at_zero_error(self) -> None:
        # One qubit: the circuit is A_0 alone, a reflection.
        rng = np.random.default_rng(8)
        state = random_state(1, rng)
        before = state.copy()
        qft_noisy(qft_noisy(state, zero_plan(1)), zero_plan(1))
        np.testing.assert_allclose(state, before, atol=1e-12)

    def test_updates_state_in_place(self) -> None:
        state = basis_state(1, 0)
        out = qft_noisy(state, zero_plan(1))
        assert out is state


class TestControlledPhaseGate:
    """B_jk seen through the circuit: a phase on its |11> branch."""

    def test_only_double_one_branch_rotates(self) -> None:
        # B_01 meets output bit c_0 and input bit a_1 (the low bit of a).
        delta = 0.05
        for a in range(4):
            exact = qft_noisy(basis_state(2, a), zero_plan(2))
            noisy = qft_noisy(basis_state(2, a), phase_plan(2, [delta]))
            expected = np.ones(4, dtype=complex)
            if a & 1:
                expected[1::2] = np.exp(1j * delta)
            np.testing.assert_allclose(noisy / exact, expected, atol=1e-14)

    def test_preserves_norm(self) -> None:
        rng = np.random.default_rng(10)
        out = qft_noisy(random_state(3, rng), phase_plan(3, [1.3, -0.4, 0.7]))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_matches_masked_oracle_for_every_pair(self) -> None:
        n = 4
        dense = dft_matrix(n)
        index = np.arange(1 << n)
        pair = 0
        for j in range(n):
            for k in range(j + 1, n):
                deltas = np.zeros(n * (n - 1) // 2)
                deltas[pair] = 0.1
                pair += 1
                mask = np.outer((index >> j) & 1, (index >> (n - 1 - k)) & 1)
                expected = dense * np.where(mask == 1, np.exp(0.1j), 1.0)
                got = circuit_matrix(phase_plan(n, deltas))
                np.testing.assert_allclose(got, expected, atol=1e-12)


class TestGateErrorPlan:
    def test_exact_plan_counts(self) -> None:
        for n in (1, 3, 5, 8):
            plan = zero_plan(n)
            assert len(plan.hadamard_deltas) == n
            assert len(plan.phase_deltas) == n * (n - 1) // 2
            with pytest.raises(ValueError):
                GateErrorPlan(n, np.zeros(n + 1), np.zeros(n * (n - 1) // 2))
            with pytest.raises(ValueError):
                GateErrorPlan(n, np.zeros(n), np.zeros(n * (n - 1) // 2 + 1))

    @pytest.mark.parametrize("n_qubits", [0, -1])
    def test_rejects_width_below_one(self, n_qubits: int) -> None:
        with pytest.raises(ValueError, match=r"n_qubits must be in \[1, 24\]"):
            GateErrorPlan(n_qubits, [], [])

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

    @pytest.mark.parametrize(
        "model",
        [
            ErrorModel(ErrorMode.UNIFORM, delta0=0.03, s_max=0.2),
            ErrorModel(
                ErrorMode.UNIFORM, delta0=0.03, s_max=0.2, include_amplitude_errors=True
            ),
            ErrorModel(ErrorMode.GAUSSIAN, delta0=-0.04, sigma0=0.3),
            ErrorModel(
                ErrorMode.GAUSSIAN, delta0=-0.04, sigma0=0.3, include_amplitude_errors=True
            ),
            ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.05, include_amplitude_errors=True),
        ],
        ids=["uniform", "uniform-amp", "gaussian", "gaussian-amp", "systematic-amp"],
    )
    @pytest.mark.parametrize("n_qubits", range(1, 9))
    def test_sample_is_the_scalar_draws_of_each_stream(self, model, n_qubits) -> None:
        # A_j takes amplitude draw j and B_jk the phase draw at its pair
        # index, each stream read from its start one scalar draw at a
        # time; at n <= 2 there are fewer pair gates than qubits.
        n_pairs = n_qubits * (n_qubits - 1) // 2
        for seed in (0, 5, 2**64 - 1):
            plan = GateErrorPlan.sample(model, n_qubits, seed)
            hadamard = amplitude_errors(model, n_qubits, seed)
            if hadamard is None:
                hadamard = np.zeros(n_qubits)
            phase = phase_errors(model, n_pairs, seed)
            assert same_bits(plan.hadamard_deltas, hadamard)
            assert same_bits(plan.phase_deltas, phase)
            if model.deterministic:
                assert same_bits(plan.phase_deltas, np.full(n_pairs, model.delta0))
                assert same_bits(plan.hadamard_deltas, np.full(n_qubits, model.delta0))


@st.composite
def phase_only_plans(draw) -> GateErrorPlan:
    n = draw(st.integers(1, 8))
    deltas = draw(
        st.lists(
            st.floats(-np.pi, np.pi),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    return phase_plan(n, deltas)


class TestQftNoisy:
    def test_matches_dense_transform_on_basis_states(self) -> None:
        n = 3
        dense = dft_matrix(n)
        plan = zero_plan(n)
        for a in range(8):
            out = qft_noisy(basis_state(n, a), plan)
            np.testing.assert_allclose(out, dense[:, a], atol=1e-12)

    def test_matches_dense_transform_on_random_states(self) -> None:
        n = 7
        dense = dft_matrix(n)
        plan = zero_plan(n)
        rng = np.random.default_rng(123)
        for _ in range(5):
            state = random_state(n, rng)
            expected = dense @ state
            out = qft_noisy(state, plan)
            np.testing.assert_allclose(out, expected, atol=1e-10)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 5, 7])
    def test_matches_gate_by_gate_reference(self, n_qubits: int) -> None:
        rng = np.random.default_rng(600 + n_qubits)
        n_pairs = n_qubits * (n_qubits - 1) // 2
        for _ in range(3):
            plan = GateErrorPlan(
                n_qubits, rng.uniform(-1, 1, n_qubits), rng.uniform(-1, 1, n_pairs)
            )
            expected = gate_by_gate_matrix(plan)
            got = circuit_matrix(plan)
            assert np.abs(got - expected).max() <= 1e-12

    @settings(max_examples=60)
    @given(plan=phase_only_plans())
    def test_phase_errors_follow_the_error_kernel(self, plan: GateErrorPlan) -> None:
        got = circuit_matrix(plan)
        assert np.abs(got - error_kernel(plan)).max() <= 1e-12

    def test_transforms_in_place(self) -> None:
        state = basis_state(3, 2)
        out = qft_noisy(state, zero_plan(3))
        assert out is state

    def test_pure_frequency_concentrates(self) -> None:
        # exp(2i*pi*k*a/q) input with k = 5 lands on outcome (-k) mod q = 3.
        n, k = 3, 5
        q = 1 << n
        amps = np.exp(2j * np.pi * k * np.arange(q) / q) / np.sqrt(q)
        out = qft_noisy(amps, zero_plan(n))
        assert int(np.argmax(np.abs(out))) == 3
        assert abs(out[3]) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_under_large_gate_errors(self) -> None:
        rng = np.random.default_rng(77)
        n = 5
        for _ in range(4):
            plan = GateErrorPlan(
                n_qubits=n,
                hadamard_deltas=rng.uniform(-1, 1, n),
                phase_deltas=rng.uniform(-1, 1, n * (n - 1) // 2),
            )
            out = qft_noisy(random_state(n, rng), plan)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_mismatched_plan(self) -> None:
        with pytest.raises(ValueError):
            qft_noisy(basis_state(4, 0), zero_plan(3))
        with pytest.raises(ValueError):
            qft_noisy(np.zeros(8), zero_plan(3))


@pytest.mark.parametrize("n_qubits", range(1, 13))
def test_bit_reversal_matches_scalar_oracle(n_qubits: int) -> None:
    # Exact gates leave only the final reordering: any other order than
    # the bit reversal moves amplitudes away from the unitary inverse DFT.
    state = random_state(n_qubits, np.random.default_rng(n_qubits))
    expected = np.fft.ifft(state, norm="ortho")
    out = qft_noisy(state, zero_plan(n_qubits))
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


class TestFormerCircuit:
    """qft_noisy against the natural-layout circuit of `circuit_oracle`.

    Both run the same four products per A gate, so exact and perturbed
    A gates must round as the former stages did, signed zeros included.
    """

    @pytest.mark.parametrize("n_qubits", range(1, 15))
    def test_equals_former_circuit_bit_for_bit(self, n_qubits: int) -> None:
        rng = np.random.default_rng(900 + n_qubits)
        comb = prepare_period_state(
            ShorInstance.synthetic_instance(n_qubits, min(3, 1 << n_qubits), offset=0)
        )
        # With g = h, l * (-g) and -(l * g) differ only in the sign of a
        # zero: at upper = -0 + 0j, lower = 0 - 0j the four products give
        # +0 on the lower half, a scaled difference gives -0.
        half = 1 << (n_qubits - 1)
        zeros = np.array([complex(-0.0, 0.0)] * half + [complex(0.0, -0.0)] * half)
        for exact_a in (True, True, False, False):
            plan = random_plan(n_qubits, rng, exact_a)
            for state in (random_state(n_qubits, rng), comb.copy(), zeros.copy()):
                expected = former_qft_noisy(state.copy(), plan)
                assert same_bits(qft_noisy(state, plan), expected)

    @settings(max_examples=40)
    @given(
        n_qubits=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        exact_a=st.booleans(),
    )
    def test_equals_former_circuit_for_any_plan(
        self, n_qubits: int, seed: int, exact_a: bool
    ) -> None:
        rng = np.random.default_rng(seed)
        plan = random_plan(n_qubits, rng, exact_a)
        state = random_state(n_qubits, rng)
        expected = former_qft_noisy(state.copy(), plan)
        assert same_bits(qft_noisy(state, plan), expected)

    def test_exact_gates_need_one_register_of_scratch(self) -> None:
        # The former circuit peaked at 1.5 registers: half a register of
        # scratch, a product temporary and the reversed copy at the end.
        rng = np.random.default_rng(18)
        state = random_state(18, rng)
        plan = random_plan(18, rng, exact_a=True)
        tracemalloc.start()
        try:
            qft_noisy(state, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * state.nbytes


class TestPreparePeriodState:
    def test_uniform_support(self) -> None:
        inst = ShorInstance.from_factoring(15, 7)
        state = prepare_period_state(inst)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        expected = np.zeros(256, dtype=complex)
        expected[::4] = 1.0 / np.sqrt(64)
        np.testing.assert_allclose(state, expected, atol=1e-15)

    def test_weighted_support(self) -> None:
        inst = ShorInstance.synthetic_instance(3, 2)
        state = prepare_period_state(inst, init_delta=0.1)
        weights = init_error_weights(ShorInstance.synthetic_instance(3, 1), 0.1)
        expected = np.zeros(8)
        expected[[0, 2, 4, 6]] = weights[[0, 2, 4, 6]]
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(state.real, expected, atol=1e-12)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_offset_support(self) -> None:
        inst = ShorInstance.synthetic_instance(3, 3, offset=2)
        state = prepare_period_state(inst)
        nonzero = np.nonzero(state)[0]
        assert list(nonzero) == [2, 5]

    @pytest.mark.parametrize(
        "n_qubits, order, offset, init_delta",
        [(3, 2, 0, 0.1), (7, 5, 3, -0.03), (10, 7, 6, 0.02), (12, 97, 5, 0.01)],
    )
    def test_weights_equal_the_former_full_register_gather(
        self, n_qubits, order, offset, init_delta
    ) -> None:
        inst = ShorInstance.synthetic_instance(n_qubits, order, offset=offset)
        support = inst.support_values()
        expected = np.zeros(inst.register_size, dtype=complex)
        expected[support] = full_register_weights(n_qubits, init_delta)[support]
        expected /= np.sqrt(np.sum(np.abs(expected) ** 2))
        state = prepare_period_state(inst, init_delta)
        assert np.array_equal(state.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_init_delta(self, bad: float) -> None:
        with pytest.raises(ValueError, match="init_delta must be finite"):
            prepare_period_state(ShorInstance.synthetic_instance(3, 2), bad)

    @pytest.mark.parametrize(
        "n_qubits, order, init_delta, norm",
        # (sum |w|)**2 overflows, from a finite squared norm at 5e152; the one
        # support value 0 has weight 0.
        [(7, 4, 5e152, "inf"), (7, 4, 1e154, "inf"), (7, 4, -1e300, "inf"),
         (2, 4, 0.5, "0")],
    )
    def test_rejects_weights_without_finite_positive_norm(
        self, n_qubits, order, init_delta, norm
    ) -> None:
        inst = ShorInstance.synthetic_instance(n_qubits, order)
        message = rf"init_delta=.* \(sum \|w\|\)\*\*2 is {norm};"
        with pytest.raises(ValueError, match=message):
            prepare_period_state(inst, init_delta)


class FixedDraws:
    """Stands in for the generator: hands out the given uniform draws."""

    def __init__(self, draws: list[float]) -> None:
        self.draws = np.array(draws)

    def uniform01_array(self, n: int) -> np.ndarray:
        assert n == len(self.draws)
        return self.draws


UNIFORM_TWO_QUBITS = np.full(4, 0.25)


class TestMeasurement:
    def test_outcome_bins(self) -> None:
        draws = FixedDraws([0.3, 0.0, 0.999, 0.25])
        outcomes = sample_outcomes(outcome_cdf(UNIFORM_TWO_QUBITS), 4, draws)
        assert outcomes.tolist() == [1, 0, 3, 1]

    def test_measure_consumes_one_draw(self) -> None:
        rng = Xorshift64Star(9)
        sample_outcomes(outcome_cdf(UNIFORM_TWO_QUBITS), 1, rng)
        advanced = Xorshift64Star(9)
        advanced.next_u64()
        assert rng.state == advanced.state

    @pytest.mark.parametrize("shots", [0, -1])
    def test_rejects_fewer_than_one_shot(self, shots: int) -> None:
        rng = Xorshift64Star(9)
        with pytest.raises(ValueError, match=f"shots must be >= 1, got {shots}"):
            sample_outcomes(outcome_cdf(UNIFORM_TWO_QUBITS), shots, rng)
        assert rng.state == Xorshift64Star(9).state

    def test_measure_rejects_unnormalized_state(self) -> None:
        for second in (1.0, np.nan):
            with pytest.raises(ValueError, match="state norm deviates from 1 by"):
                outcome_cdf(np.array([1.0, second]))

    def test_sampling_matches_probabilities(self) -> None:
        rng = Xorshift64Star(314)
        shots = 100_000
        outcomes = sample_outcomes(outcome_cdf(UNIFORM_TWO_QUBITS), shots, rng)
        counts = np.bincount(outcomes, minlength=4) / shots
        sigma = np.sqrt(0.25 * 0.75 / shots)
        np.testing.assert_allclose(counts, 0.25, atol=3 * sigma)

    def test_sampling_matches_repeated_measurement(self) -> None:
        probabilities = np.arange(1, 9) / 36.0
        batch = Xorshift64Star(21)
        scalar = Xorshift64Star(21)
        cdf = np.cumsum(probabilities)
        outcomes = sample_outcomes(outcome_cdf(probabilities), 300, batch)
        expected = [
            min(int(np.searchsorted(cdf, uniform01(scalar), side="right")), 7)
            for _ in range(300)
        ]
        assert outcomes.tolist() == expected
        assert batch.state == scalar.state

    def test_sampling_is_reproducible(self) -> None:
        a = sample_outcomes(outcome_cdf(UNIFORM_TWO_QUBITS), 50, Xorshift64Star(1))
        b = sample_outcomes(outcome_cdf(UNIFORM_TWO_QUBITS), 50, Xorshift64Star(1))
        assert np.array_equal(a, b)


class TestCircuitSpectrum:
    def test_run_circuit_is_prepare_plan_transform(self) -> None:
        inst = ShorInstance.synthetic_instance(5, 3, offset=1)
        model = ErrorModel(
            ErrorMode.GAUSSIAN, sigma0=0.05, include_amplitude_errors=True,
            init_delta=0.02,
        )
        plan = GateErrorPlan.sample(model, 5, seed=8)
        amplitudes = qft_noisy(prepare_period_state(inst, 0.02), plan)
        circ = circuit_spectrum(inst, model, seed=8)
        assert np.array_equal(circ.values, np.abs(amplitudes) ** 2)

    def test_zero_error_matches_noiseless(self) -> None:
        inst = ShorInstance.synthetic_instance(5, 4)
        circ = circuit_spectrum(inst, ErrorModel(), seed=0)
        assert circ.normalized
        exact = direct_spectrum(inst, np.zeros(inst.support_count))
        np.testing.assert_allclose(circ.values, exact.values, atol=1e-12)

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
        assert a.model is model

    def test_ragged_support_stays_normalized(self) -> None:
        inst = ShorInstance.synthetic_instance(4, 3, offset=1)
        circ = circuit_spectrum(inst, ErrorModel(), seed=0)
        assert circ.values.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("gate", ["hadamard", "phase"])
    def test_rejects_non_finite_gate_errors(self, gate, monkeypatch) -> None:
        inst = ShorInstance.synthetic_instance(5, 4)
        deltas = {"hadamard": np.zeros(5), "phase": np.zeros(10)}
        deltas[gate][2] = np.nan
        plan = GateErrorPlan(5, deltas["hadamard"], deltas["phase"])
        monkeypatch.setattr(
            qcircuit.GateErrorPlan, "sample", staticmethod(lambda *args: plan)
        )
        with pytest.raises(ValueError, match="finite"):
            circuit_spectrum(inst, ErrorModel(), seed=0)

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
        exact = direct_spectrum(inst, np.zeros(inst.support_count))
        np.testing.assert_allclose(circ.values, exact.values, atol=1e-12)
        with_amp = ErrorModel(
            ErrorMode.SYSTEMATIC, delta0=0.01, include_amplitude_errors=True
        )
        disturbed = circuit_spectrum(inst, with_amp, seed=0)
        assert np.abs(disturbed.values - exact.values).max() > 1e-4
