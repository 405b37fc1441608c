"""The noisy readout circuit in its natural layout, as `qft_noisy` must give.

One stage per qubit on the state as prepared, qubit 0 the most
significant index bit: the four products of A_j, then the B_jk phase
vector on the half where qubit j is set, and the bit reversal after the
last stage. The later stages work on ever shorter rows, which is slow
but simple; `qft_noisy` must equal this bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from shornoise.qcircuit import GateErrorPlan


def former_stage(amplitudes: np.ndarray, plan: GateErrorPlan, j: int) -> None:
    n = plan.n_qubits
    view = amplitudes.reshape(1 << j, 2, -1)
    upper, lower = view[:, 0, :], view[:, 1, :]
    c, s = math.cos(plan.hadamard_deltas[j]), math.sin(plan.hadamard_deltas[j])
    g, h = (c - s) / math.sqrt(2.0), (c + s) / math.sqrt(2.0)
    scratch = lower * h
    lower *= -g
    lower += h * upper
    upper *= g
    upper += scratch
    # Tail bit b belongs to qubit L-1-b; the doubling runs from that bit up.
    start = j * (2 * n - j - 1) // 2
    deltas = plan.phase_deltas[start : start + n - 1 - j]
    angles = math.pi / 2.0 ** np.arange(1, n - j) + deltas
    tail = np.empty(view.shape[2], dtype=complex)
    tail[0] = 1.0
    for bit, factor in enumerate(np.exp(1j * angles[::-1])):
        np.multiply(tail[: 1 << bit], factor, out=tail[1 << bit : 2 << bit])
    lower *= tail


def former_qft_noisy(amplitudes: np.ndarray, plan: GateErrorPlan) -> np.ndarray:
    n = plan.n_qubits
    for j in range(n):
        former_stage(amplitudes, plan, j)
    amplitudes[:] = amplitudes.reshape((2,) * n).T.ravel()
    return amplitudes
