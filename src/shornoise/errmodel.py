"""Gate-error models and the reproducible random stream behind them.

Every stochastic quantity in the package flows through the xorshift64*
generator defined here, so runs are bit-reproducible across platforms and
processes. Phase and amplitude errors draw from disjoint substreams
derived from one user seed, which keeps toggling amplitude errors from
perturbing the phase draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 2685821657736338717  # 0x2545F4914F6CDD1D

# Salts for substream derivation. Values are arbitrary but frozen:
# changing them changes every sampled spectrum.
_PHASE_STREAM_SALT = 0x9E3779B97F4A7C15
_AMPLITUDE_STREAM_SALT = 0xD1B54A32D192ED03
_INDEX_STRIDE = 0x9E3779B97F4A7C15
_ZERO_STATE_SUBSTITUTE = 0x6A09E667F3BCC909


class Xorshift64Star:
    """xorshift64* pseudo-random stream.

    State transition: x ^= x >> 12; x ^= x << 25; x ^= x >> 27 on 64 bits,
    output = x * 2685821657736338717 mod 2**64. The all-zero state is a
    fixed point of the transition, so seed 0 is remapped to a fixed
    nonzero constant instead of being rejected.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        state = seed & _MASK64
        if state == 0:
            state = _ZERO_STATE_SUBSTITUTE
        self.state = state

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _MULTIPLIER) & _MASK64

    def uniform01(self) -> float:
        """Uniform draw in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gaussian(self) -> float:
        """Standard normal draw via Box-Muller.

        Consumes two uniforms; the radial one is taken as 1 - u so the
        logarithm never sees zero.
        """
        u1 = 1.0 - self.uniform01()
        u2 = self.uniform01()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def derive_stream_seed(master_seed: int, index: int) -> int:
    """Derive the seed of substream `index` from a master seed.

    The pair is combined and pushed through one xorshift64* step, giving
    independent-looking streams for ensemble realizations.
    """
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    mixed = (master_seed ^ ((index + 1) * _INDEX_STRIDE)) & _MASK64
    return Xorshift64Star(mixed).next_u64()


def _substream(seed: int, salt: int) -> Xorshift64Star:
    # One mixing step between the user seed and the draws proper.
    mixed = (seed ^ salt) & _MASK64
    return Xorshift64Star(Xorshift64Star(mixed).next_u64())


class ErrorMode(Enum):
    """How per-term gate errors are generated."""

    NONE = "none"
    SYSTEMATIC = "systematic"
    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class ErrorModel:
    """Gate-error configuration.

    delta0 is the constant part of every error. Uniform mode adds
    (2u - 1) * s_max with u uniform in [0, 1); Gaussian mode adds
    sigma0 * z with z standard normal (no cutoff). Amplitude errors
    default to off, in which case the amplitude sampler returns zeros
    without touching any stream. init_delta feeds the preparation-stage
    weights and is not sampled.
    """

    mode: ErrorMode = ErrorMode.NONE
    delta0: float = 0.0
    s_max: float = 0.0
    sigma0: float = 0.0
    include_amplitude_errors: bool = False
    init_delta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("delta0", "s_max", "sigma0", "init_delta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.s_max < 0.0:
            raise ValueError(f"s_max must be >= 0, got {self.s_max}")
        if self.sigma0 < 0.0:
            raise ValueError(f"sigma0 must be >= 0, got {self.sigma0}")

    @property
    def deterministic(self) -> bool:
        """True when sampling never consumes randomness."""
        return self.mode in (ErrorMode.NONE, ErrorMode.SYSTEMATIC)


def _sample(model: ErrorModel, count: int, rng: Xorshift64Star | None) -> np.ndarray:
    if model.mode is ErrorMode.NONE:
        return np.zeros(count)
    if model.mode is ErrorMode.SYSTEMATIC:
        return np.full(count, model.delta0)
    assert rng is not None
    values = np.empty(count)
    if model.mode is ErrorMode.UNIFORM:
        for i in range(count):
            values[i] = model.delta0 + (2.0 * rng.uniform01() - 1.0) * model.s_max
    else:
        for i in range(count):
            values[i] = model.delta0 + model.sigma0 * rng.gaussian()
    return values


def sample_phase_errors(model: ErrorModel, count: int, seed: int) -> np.ndarray:
    """Draw the per-term phase errors for one realization.

    Deterministic modes (none, systematic) ignore the seed entirely.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = None if model.deterministic else _substream(seed, _PHASE_STREAM_SALT)
    return _sample(model, count, rng)


def sample_amplitude_errors(model: ErrorModel, count: int, seed: int) -> np.ndarray:
    """Draw the per-term amplitude errors, or zeros when they are disabled."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not model.include_amplitude_errors:
        return np.zeros(count)
    rng = None if model.deterministic else _substream(seed, _AMPLITUDE_STREAM_SALT)
    return _sample(model, count, rng)
