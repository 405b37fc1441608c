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
delta_jk on its active branch. Each qubit j runs as one stage on a plain
complex amplitude array: the A_j butterfly, then one phase vector over
the later qubits, holding every B_jk, on the half where qubit j is set.
The bit reversal runs before stage L//2, not after the last stage, so
every stage works on contiguous rows of at least 2**(L//2) amplitudes.

With exact A gates the noisy circuit is exactly

    U[c, a] = F[c, a] * exp(i * sum_{j<k} delta_jk * c_j * a_k)

with c_j bit j of c from the least significant bit and a_k bit L-1-k of
a: B_jk acts on output bit c_j and on input bit a_k. The phase depends on
c, so no per-term errors of the effective model in `spectrum` reproduce
the circuit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errmodel import ErrorModel, Xorshift64Star, sample_realizations
from .numth import ShorInstance, _check_width
from .spectrum import Spectrum, SpectrumMethod, init_error_weights

_NORM_TOLERANCE = 1e-6


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
        for name in ("hadamard_deltas", "phase_deltas"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = _check_width(self.n_qubits)
        if self.hadamard_deltas.shape != (n,):
            raise ValueError(f"hadamard_deltas must have length {n}")
        if self.phase_deltas.shape != (n * (n - 1) // 2,):
            raise ValueError(f"phase_deltas must have length {n * (n - 1) // 2}")

    @classmethod
    def sample(cls, model: ErrorModel, n_qubits: int, seed: int) -> GateErrorPlan:
        """Draw per-gate errors from the model.

        The A gates perturb amplitudes, so they draw from the amplitude
        stream and stay exact while amplitude errors are disabled; the
        B gates draw from the phase stream. One realization of
        max(L, L(L-1)/2) draws covers both: each is a stream prefix.
        """
        n_pairs = n_qubits * (n_qubits - 1) // 2
        ((phase, amp),) = sample_realizations(model, max(n_qubits, n_pairs), [seed])
        hadamard = np.zeros(n_qubits) if amp is None else amp[:n_qubits]
        return cls(n_qubits, hadamard, phase[:n_pairs])


def _noisy_stage(
    amplitudes: np.ndarray, plan: GateErrorPlan, j: int, buffer: np.ndarray
) -> None:
    """Apply A_j and every B_jk with k > j to amplitudes in place.

    A_j is the reflection (1/sqrt 2) * [[cos d - sin d, cos d + sin d],
    [cos d + sin d, -(cos d - sin d)]], unitary for any error d. It is the
    Walsh-Hadamard gate at d = 0 and sends |0> to ((1 - d)|0> + (1 + d)|1>)
    / sqrt 2 to first order, as the preparation-weight model does.

    Qubit j is index bit L-1-j before stage L//2 and index bit j from it
    on (see `qft_noisy`). buffer is scratch space of the register size.
    """
    n = plan.n_qubits
    later = n - 1 - j
    natural = j < n // 2
    view = amplitudes.reshape((1 << j, 2, -1) if natural else (-1, 2, 1 << j))
    upper, lower = view[:, 0, :], view[:, 1, :]
    scratch, spare = buffer.reshape(2, *upper.shape)
    c, s = math.cos(plan.hadamard_deltas[j]), math.sin(plan.hadamard_deltas[j])
    g, h = (c - s) / math.sqrt(2.0), (c + s) / math.sqrt(2.0)
    np.multiply(upper, h, out=scratch)
    np.multiply(lower, h, out=spare)
    lower *= -g
    scratch += lower
    upper *= g
    upper += spare
    # The B_jk act on the qubit-j = 1 half, each where qubit k is set, so
    # together they are one phase vector over the later qubits, built by
    # doubling from qubit L-1 (the low bit of the tail index) upwards.
    # From stage L//2 on the later qubits index the rows, low qubit first.
    start = j * (2 * n - j - 1) // 2
    deltas = plan.phase_deltas[start : start + later]
    angles = math.pi / 2.0 ** np.arange(1, n - j) + deltas
    tail = spare.ravel()[: 1 << later]
    tail[0] = 1.0
    for bit, factor in enumerate(np.exp(1j * angles[::-1])):
        np.multiply(tail[: 1 << bit], factor, out=tail[1 << bit : 2 << bit])
    if not natural:
        tail = tail.reshape((2,) * later).T.reshape(-1, 1)
    np.multiply(scratch, tail, out=lower)


def qft_noisy(amplitudes: np.ndarray, plan: GateErrorPlan) -> np.ndarray:
    """Run the noisy Fourier-readout circuit on amplitudes in place.

    amplitudes is a complex array of length 2**plan.n_qubits. Runs one
    stage per qubit, with the bit-reversal permutation before stage L//2;
    stages act on their qubits wherever they sit, so every amplitude is
    that of the reversal after the last stage. Returns the same array. A
    zero-error plan reproduces the DFT matrix exactly.
    """
    n = plan.n_qubits
    if amplitudes.shape != (1 << n,) or amplitudes.dtype != complex:
        raise ValueError(f"amplitudes must be a complex array of length 2**{n}")
    buffer = np.empty(1 << n, dtype=complex)
    for j in range(n):
        if j == n // 2:
            # One axis per qubit: reversing the axes is the bit reversal.
            np.copyto(buffer.reshape((2,) * n), amplitudes.reshape((2,) * n).T)
            amplitudes[:] = buffer
        _noisy_stage(amplitudes, plan, j, buffer)
    return amplitudes


def prepare_period_state(inst: ShorInstance, init_delta: float = 0.0) -> np.ndarray:
    """Normalized amplitudes over the support offset + j*order, j < support_count.

    Before normalization the support amplitudes are the preparation
    weights `init_error_weights(inst, init_delta)`, all one at init_delta 0;
    that function rejects weights it cannot normalize.
    """
    amplitudes = np.zeros(inst.register_size, dtype=complex)
    amplitudes[inst.support_values()] = init_error_weights(inst, init_delta)
    amplitudes /= np.sqrt(np.sum(np.abs(amplitudes) ** 2))
    return amplitudes


def outcome_cdf(probabilities: np.ndarray) -> np.ndarray:
    """Cumulative distribution of a measurement, for `sample_outcomes`.

    probabilities holds |amplitude|**2 per outcome. Rejects distributions
    whose total is NaN or off by more than 1e-6.
    """
    total = float(np.sum(probabilities))
    if not abs(total - 1.0) <= _NORM_TOLERANCE:
        raise ValueError(f"state norm deviates from 1 by {abs(total - 1.0):.3e}")
    return np.cumsum(probabilities)


def sample_outcomes(cdf: np.ndarray, shots: int, rng: Xorshift64Star) -> np.ndarray:
    """Sample repeated full-register measurements of the same state.

    cdf is the state's `outcome_cdf`, so repeated calls build it once.
    Consumes exactly `shots` uniform draws from rng, one per outcome, in
    order.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    draws = rng.uniform01_array(shots)
    indices = np.searchsorted(cdf, draws, side="right")
    return np.minimum(indices, len(cdf) - 1)


def circuit_spectrum(inst: ShorInstance, model: ErrorModel, seed: int) -> Spectrum:
    """Readout distribution from the full gate-level simulation.

    Prepares the period state (with preparation weights when the model
    sets init_delta), samples one GateErrorPlan from the seed, runs the
    noisy circuit on it and returns |amplitude|**2. The circuit is
    exactly unitary, so the result is a normalized distribution.
    """
    amplitudes = prepare_period_state(inst, model.init_delta)
    qft_noisy(amplitudes, GateErrorPlan.sample(model, inst.n_qubits, seed))
    return Spectrum(
        values=np.abs(amplitudes) ** 2,
        method=SpectrumMethod.CIRCUIT,
        instance=inst,
        normalized=True,
        model=model,
    )
