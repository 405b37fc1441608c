"""Preparation weights for every basis value of a register, in plain Python.

Weight 1 + delta*(2*popcount(a) - n) for each a < 2**n, one float
operation at a time in the order the library uses, so the value at a
support position must equal the library's weight bit for bit. The
direct-sum oracles take these full-register arrays and gather the
support themselves.
"""

from __future__ import annotations

import numpy as np


def full_register_weights(n_qubits: int, delta: float) -> np.ndarray:
    return np.array(
        [1.0 + delta * (2.0 * bin(a).count("1") - n_qubits) for a in range(1 << n_qubits)]
    )
