"""Gate-level state-vector simulation of the noisy Fourier readout.

The circuit follows the textbook Fourier-transform gate sequence: for
qubit j = 0 .. L-1 (qubit 0 holds the most significant bit) apply the
superposition gate A_j, then the controlled phases B_jk with angle
pi / 2**(k-j) against every later qubit k; a final bit-reversal
permutation puts the output in natural order. With zero errors the whole
circuit equals the unitary DFT matrix F[c, a] = q**-0.5 * exp(2 pi i c a / q)
exactly.

Errors enter per gate application: A_j is over-rotated by delta (its
matrix stays unitary for any delta) and B_jk picks up an extra phase
delta on its active branch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errmodel import (
    ErrorModel,
    Xorshift64Star,
    sample_amplitude_errors,
    sample_phase_errors,
)
from .numth import MAX_QUBITS, ShorInstance
from .spectrum import Spectrum, SpectrumMethod, init_error_weights

_NORM_TOLERANCE = 1e-6


@dataclass
class StateVector:
    """Dense complex amplitudes over all 2**n_qubits basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError("amplitudes must have length 2**n_qubits")

    @classmethod
    def from_basis(cls, n_qubits: int, index: int) -> StateVector:
        size = 1 << n_qubits
        if not 0 <= index < size:
            raise ValueError(f"basis index must be in [0, {size})")
        amplitudes = np.zeros(size, dtype=complex)
        amplitudes[index] = 1.0
        return cls(n_qubits, amplitudes)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> StateVector:
        return StateVector(self.n_qubits, self.amplitudes.copy())


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits} qubits")


def apply_hadamard_noisy(state: StateVector, qubit: int, delta: float) -> StateVector:
    """Apply the superposition gate with rotation-angle error delta in place.

    The matrix is the unitary reflection

        (1/sqrt 2) * [[cos d - sin d,   cos d + sin d],
                      [cos d + sin d, -(cos d - sin d)]]

    which is the Walsh-Hadamard gate at d = 0 and sends |0> to the
    weighted superposition ((1 - d)|0> + (1 + d)|1>)/sqrt 2 to first
    order, the same miscalibration the preparation-weight model uses.
    """
    _check_qubit(state, qubit)
    c = math.cos(delta)
    s = math.sin(delta)
    g00 = (c - s) / math.sqrt(2.0)
    g01 = (c + s) / math.sqrt(2.0)
    g10 = g01
    g11 = -g00
    n = state.n_qubits
    # qubit 0 is the most significant bit of the amplitude index
    view = state.amplitudes.reshape(1 << qubit, 2, 1 << (n - 1 - qubit))
    upper = view[:, 0, :].copy()
    lower = view[:, 1, :].copy()
    view[:, 0, :] = g00 * upper + g01 * lower
    view[:, 1, :] = g10 * upper + g11 * lower
    return state


def apply_controlled_phase_noisy(
    state: StateVector, control: int, target: int, theta: float, delta: float
) -> StateVector:
    """Multiply the |11> branch of (control, target) by exp(i*(theta + delta))."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("control and target must differ")
    n = state.n_qubits
    hi, lo = sorted((control, target))
    view = state.amplitudes.reshape(
        1 << hi, 2, 1 << (lo - hi - 1), 2, 1 << (n - 1 - lo)
    )
    view[:, 1, :, 1, :] *= np.exp(1j * (theta + delta))
    return state


@dataclass(frozen=True)
class GateErrorPlan:
    """One error per gate application for a full readout circuit.

    hadamard_deltas[j] belongs to A_j; phase_deltas follows the frozen
    pair order (0,1), (0,2), ..., (0,L-1), (1,2), ... for the B_jk gates.
    """

    n_qubits: int
    hadamard_deltas: np.ndarray
    phase_deltas: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "hadamard_deltas", np.asarray(self.hadamard_deltas, dtype=float)
        )
        object.__setattr__(
            self, "phase_deltas", np.asarray(self.phase_deltas, dtype=float)
        )
        n = self.n_qubits
        if self.hadamard_deltas.shape != (n,):
            raise ValueError(f"hadamard_deltas must have length {n}")
        if self.phase_deltas.shape != (n * (n - 1) // 2,):
            raise ValueError(f"phase_deltas must have length {n * (n - 1) // 2}")

    @classmethod
    def exact(cls, n_qubits: int) -> GateErrorPlan:
        return cls(
            n_qubits,
            np.zeros(n_qubits),
            np.zeros(n_qubits * (n_qubits - 1) // 2),
        )

    @classmethod
    def sample(cls, model: ErrorModel, n_qubits: int, seed: int) -> GateErrorPlan:
        """Draw per-gate errors from the model.

        The A gates perturb amplitudes, so they draw from the amplitude
        stream and stay exact while amplitude errors are disabled; the
        B gates draw from the phase stream.
        """
        n_pairs = n_qubits * (n_qubits - 1) // 2
        hadamard = sample_amplitude_errors(model, n_qubits, seed)
        if n_pairs > 0:
            phase = sample_phase_errors(model, n_pairs, seed)
        else:
            phase = np.zeros(0)
        return cls(n_qubits, hadamard, phase)


def _bit_reversal_permutation(n_qubits: int) -> np.ndarray:
    # The reversals of k + 1 bits are those of k bits shifted left, then
    # the same with the new low bit set; build them in place by doubling.
    reversed_indices = np.zeros(1 << n_qubits, dtype=np.int64)
    for bit in range(n_qubits):
        half = reversed_indices[: 1 << bit]
        half <<= 1
        np.bitwise_or(half, 1, out=reversed_indices[1 << bit : 2 << bit])
    return reversed_indices


def qft_noisy(state: StateVector, plan: GateErrorPlan) -> StateVector:
    """Run the noisy Fourier-readout circuit in place.

    Applies L superposition gates and L*(L-1)/2 controlled phases in the
    frozen order, then the bit-reversal permutation. A zero-error plan
    reproduces the DFT matrix exactly.
    """
    n = state.n_qubits
    if plan.n_qubits != n:
        raise ValueError("plan was sampled for a different register width")
    phase_deltas = iter(plan.phase_deltas)
    for j in range(n):
        apply_hadamard_noisy(state, j, float(plan.hadamard_deltas[j]))
        for k in range(j + 1, n):
            theta = math.pi / (1 << (k - j))
            apply_controlled_phase_noisy(state, j, k, theta, next(phase_deltas))
    state.amplitudes = state.amplitudes[_bit_reversal_permutation(n)]
    return state


def prepare_period_state(inst: ShorInstance, init_delta: float = 0.0) -> StateVector:
    """Normalized state over the support offset + j*order, j < support_count.

    With init_delta nonzero the amplitudes carry the preparation weights
    1 + init_delta*(2*popcount(a) - n) before normalization.
    """
    amplitudes = np.zeros(inst.register_size, dtype=complex)
    support = np.asarray(inst.support_values(), dtype=np.int64)
    if init_delta != 0.0:
        weights = init_error_weights(inst.n_qubits, init_delta)[support]
    else:
        weights = np.ones(len(support))
    amplitudes[support] = weights
    amplitudes /= np.sqrt(np.sum(np.abs(amplitudes) ** 2))
    return StateVector(inst.n_qubits, amplitudes)


def sample_outcomes(
    state: StateVector, shots: int, rng: Xorshift64Star
) -> np.ndarray:
    """Sample repeated full-register measurements of the same state.

    Consumes exactly `shots` uniform draws from rng, one per outcome, in
    order. Rejects states whose norm is off by more than 1e-6.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probabilities = state.probabilities()
    total = float(np.sum(probabilities))
    if abs(total - 1.0) > _NORM_TOLERANCE:
        raise ValueError(f"state norm deviates from 1 by {abs(total - 1.0):.3e}")
    cdf = np.cumsum(probabilities)
    draws = rng.uniform01_array(shots)
    indices = np.searchsorted(cdf, draws, side="right")
    return np.minimum(indices, len(probabilities) - 1)


def run_circuit(inst: ShorInstance, model: ErrorModel, seed: int) -> StateVector:
    """The register state after one noisy readout circuit.

    Prepares the period state (with preparation weights when the model
    sets init_delta), samples one GateErrorPlan from the seed, and runs
    the noisy circuit on it.
    """
    state = prepare_period_state(inst, model.init_delta)
    return qft_noisy(state, GateErrorPlan.sample(model, inst.n_qubits, seed))


def circuit_spectrum(inst: ShorInstance, model: ErrorModel, seed: int) -> Spectrum:
    """Readout distribution from the full gate-level simulation.

    Returns |amplitude|**2 of the run_circuit state. The circuit is
    exactly unitary, so the result is a normalized distribution.
    """
    state = run_circuit(inst, model, seed)
    return Spectrum(
        values=state.probabilities(),
        method=SpectrumMethod.CIRCUIT,
        instance=inst,
        normalized=True,
        realization_seed=seed,
        model_label=model.mode.value,
    )
