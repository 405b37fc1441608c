"""Scalar xorshift64* draws, one at a time, as the batched sampler must give.

`errmodel._uniform01_rows` reproduces `uniform01` bit for bit, and
`errmodel._sample` the Box-Muller pairing of `gaussian`; nothing here
shares code with them beyond the generator's `next_u64` and the
substream seeding `errmodel._substream`. `phase_errors` and
`amplitude_errors` give one realization's errors for a seed, drawn one
at a time, as `errmodel.sample_realizations` must give them.
"""

from __future__ import annotations

import math

import numpy as np

from shornoise.errmodel import (
    _AMPLITUDE_STREAM_SALT,
    _PHASE_STREAM_SALT,
    ErrorMode,
    ErrorModel,
    Xorshift64Star,
    _substream,
)


def uniform01(rng: Xorshift64Star) -> float:
    """Uniform draw in [0, 1) with 53-bit resolution."""
    return (rng.next_u64() >> 11) * 2.0**-53


def gaussian(rng: Xorshift64Star) -> float:
    """Standard normal draw via Box-Muller.

    Consumes two uniforms; the radial one is taken as 1 - u so the
    logarithm never sees zero.
    """
    u1 = 1.0 - uniform01(rng)
    u2 = uniform01(rng)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def model_errors(model: ErrorModel, count: int, rng: Xorshift64Star) -> np.ndarray:
    """count errors of the model from rng: delta0 plus the scaled draw."""
    if model.deterministic:
        return np.full(count, model.delta0)
    if model.mode is ErrorMode.UNIFORM:
        draws = [
            model.delta0 + (2.0 * uniform01(rng) - 1.0) * model.s_max
            for _ in range(count)
        ]
    else:
        draws = [model.delta0 + model.sigma0 * gaussian(rng) for _ in range(count)]
    return np.array(draws)


def phase_errors(model: ErrorModel, count: int, seed: int) -> np.ndarray:
    """The phase errors of the realization drawn from seed."""
    return model_errors(model, count, _substream(seed, _PHASE_STREAM_SALT))


def amplitude_errors(model: ErrorModel, count: int, seed: int) -> np.ndarray | None:
    """The amplitude errors of the realization drawn from seed, None when off."""
    if not model.include_amplitude_errors:
        return None
    return model_errors(model, count, _substream(seed, _AMPLITUDE_STREAM_SALT))
