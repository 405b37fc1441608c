"""Gate-error models and the reproducible random stream behind them.

Every stochastic quantity in the package flows through the xorshift64*
generator defined here, so runs are bit-reproducible across platforms and
processes. Phase and amplitude errors draw from disjoint substreams
derived from one user seed, which keeps toggling amplitude errors from
perturbing the phase draws.

A uniform draw u in [0, 1) is the top 53 bits of one output,
(next_u64() >> 11) * 2**-53; a gaussian draw pairs two by Box-Muller,
sqrt(-2 log(1 - u1)) * cos(2 pi u2). The tests keep both scalar draws
as their oracle.
Batches of draws come from `_uniform01_rows`, which returns exactly the
values, and leaves exactly the states, of the same number of scalar
draws on each of K streams (`uniform01_array` is K = 1). The
xorshift transition T is linear over GF(2), so position p of a stream is
T**p applied to its state. Each stream splits into _LANES lanes of
s = ceil(n/_LANES) draws: lane j starts at position j*s, reached through
a cached table of the 64-column matrices T**(j*s), and the K*_LANES lanes
then step together in numpy uint64. `sample_realizations`, the one
sampler behind every realization and gate plan, draws a chunk of seeds
this way at once. Gaussian draws keep the scalar Box-Muller pairing.
Their logarithms must be the C library's, as `math.log` gives them:
numpy's vectorized float64 log differs in the last bit (11,055 of
3,142,080 inputs 1 - u on an AVX-512 host, numpy 2.4.6), which would
change seeded results. numpy calls the C library's scalar log on each
element when its vector loop cannot take the strides, and a 1-D call
that reads backwards into a fresh forward array is such a case: on that
host it equals `math.log` on all of those inputs and on every row of 1
to 1,000 of them. A 2-D call, or one in place, does not: numpy flips
both strides to forward and takes the vector loop, which differed on
the same 11,055. Their cosines come from `np.cos`, which on the same
host equals `math.cos` on all of 21,000,000 angles 2*pi*u, strided and
in place as here. Tests keep both checked. The square root, products
and sums are IEEE-exact either way.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import ERROR_MODES
from .numth import UsageError

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 2685821657736338717  # 0x2545F4914F6CDD1D

# Salts for substream derivation. Values are arbitrary but frozen:
# changing them changes every sampled spectrum.
_PHASE_STREAM_SALT = 0x9E3779B97F4A7C15
_AMPLITUDE_STREAM_SALT = 0xD1B54A32D192ED03
_INDEX_STRIDE = 0x9E3779B97F4A7C15
_ZERO_STATE_SUBSTITUTE = 0x6A09E667F3BCC909

# Lanes per stream; of 64 to 1024, 256 was fastest on batches of a few
# thousand draws (one ensemble realization).
_LANES = 256
_BITS = np.arange(64, dtype=np.uint64)


def _step_lanes(x: np.ndarray, buffer: np.ndarray) -> None:
    """One xorshift transition of every uint64 in x, in place."""
    np.right_shift(x, 12, out=buffer)
    x ^= buffer
    np.left_shift(x, 25, out=buffer)
    x ^= buffer
    np.right_shift(x, 27, out=buffer)
    x ^= buffer


def _gf2_apply(columns: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Apply the 64x64 GF(2) matrix with these columns to every vector.

    Column i is the image of bit i. The matrix is tabulated per byte of
    the input (eight 256-entry tables), so each vector costs eight
    lookups. Applied to the columns of B, this returns the columns of
    the product columns @ B.
    """
    tables = np.zeros((8, 256), dtype=np.uint64)
    per_byte = columns.reshape(8, 8)
    for bit in range(8):
        width = 1 << bit
        np.bitwise_xor(
            tables[:, :width], per_byte[:, bit : bit + 1], out=tables[:, width : 2 * width]
        )
    out = tables[0][vectors & np.uint64(0xFF)]
    for byte in range(1, 8):
        out ^= tables[byte][(vectors >> np.uint64(8 * byte)) & np.uint64(0xFF)]
    return out


def _transition_power(exponent: int) -> np.ndarray:
    """Columns of T**exponent, by square-and-multiply."""
    power = np.uint64(1) << _BITS
    base = power.copy()
    _step_lanes(base, np.empty_like(base))
    while exponent:
        if exponent & 1:
            power = _gf2_apply(base, power)
        exponent >>= 1
        if exponent:
            base = _gf2_apply(base, base)
    return power


@lru_cache(maxsize=16)
def _jump_table(stride: int, lanes: int) -> np.ndarray:
    """Row k holds the 64 columns of T**(k*stride), for k < lanes.

    Built by doubling: rows [m, 2m) are T**(m*stride) times rows [0, m).
    """
    table = np.empty((lanes, 64), dtype=np.uint64)
    table[0] = np.uint64(1) << _BITS
    jump = _transition_power(stride)
    filled = 1
    while filled < lanes:
        count = min(filled, lanes - filled)
        table[filled : filled + count] = _gf2_apply(jump, table[:count])
        filled += count
        if filled < lanes:
            jump = _gf2_apply(jump, jump)
    table.flags.writeable = False
    return table


class Xorshift64Star:
    """xorshift64* pseudo-random stream.

    State transition: x ^= x >> 12; x ^= x << 25; x ^= x >> 27 on 64 bits,
    output = x * 2685821657736338717 mod 2**64. Any integer seed, numpy's
    included, is taken mod 2**64; as the all-zero state is a fixed point
    of the transition, seed 0 is remapped to a fixed nonzero constant
    instead of being rejected.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        state = operator.index(seed) & _MASK64
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

    def uniform01_array(self, n: int) -> np.ndarray:
        """The next n uniform draws as a float array, bit for bit.

        Leaves the state where n scalar calls would: the one-stream case
        of `_uniform01_rows`.
        """
        return _uniform01_rows([self], n)[0]


def _uniform01_rows(rngs: Sequence[Xorshift64Star], n: int) -> np.ndarray:
    """The next n uniform draws of each stream, one row per stream.

    Row k holds, bit for bit, what n scalar calls on rngs[k] return, and
    rngs[k] is left where they leave it. Lane j of row k covers stream
    positions [j*s, (j+1)*s), so each row of the (K, _LANES, s) block
    read in order is stream order; the K*_LANES lanes step together.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    stride = -(-n // _LANES)
    table = _jump_table(stride, _LANES)
    x = np.empty((len(rngs), _LANES), dtype=np.uint64)
    for lanes, rng in zip(x, rngs):
        seed_bits = ((np.uint64(rng.state) >> _BITS) & np.uint64(1)).astype(bool)
        np.bitwise_xor.reduce(table[:, seed_bits], axis=1, out=lanes)
    buffer = np.empty_like(x)
    draws = np.empty((len(rngs), _LANES, stride))
    last_lane, last_step = divmod(n - 1, stride)
    multiplier = np.uint64(_MULTIPLIER)
    shift = np.uint64(11)
    for step in range(stride):
        _step_lanes(x, buffer)
        if step == last_step:
            for rng, state in zip(rngs, x[:, last_lane].tolist()):
                rng.state = state
        np.multiply(x, multiplier, out=buffer)
        # Below 2**53 after the shift, so the cast to float is exact.
        np.right_shift(buffer, shift, out=draws[:, :, step], casting="unsafe")
    draws *= 2.0**-53
    return draws.reshape(len(rngs), -1)[:, :n]


def derive_stream_seed(master_seed: int, index: int) -> int:
    """Derive the seed of substream `index` from a master seed.

    The pair is combined and pushed through one xorshift64* step, giving
    independent-looking streams for ensemble realizations.
    """
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    mixed = (operator.index(master_seed) ^ ((index + 1) * _INDEX_STRIDE)) & _MASK64
    return Xorshift64Star(mixed).next_u64()


def _substream(seed: int, salt: int) -> Xorshift64Star:
    # One mixing step between the user seed and the draws proper.
    mixed = (operator.index(seed) ^ salt) & _MASK64
    return Xorshift64Star(Xorshift64Star(mixed).next_u64())


class ErrorMode(Enum):
    """How per-term gate errors are generated."""

    NONE, SYSTEMATIC, UNIFORM, GAUSSIAN = ERROR_MODES


@dataclass(frozen=True)
class ErrorModel:
    """Gate-error configuration.

    delta0 is the constant part of every error. Uniform mode adds
    (2u - 1) * s_max with u uniform in [0, 1); Gaussian mode adds
    sigma0 * z with z standard normal (no cutoff). Amplitude errors
    default to off, in which case no amplitude stream is drawn; mode none
    rejects them. init_delta feeds the preparation-stage weights and is
    not sampled. A magnitude the mode does not read (delta0 under none,
    s_max outside uniform, sigma0 outside gaussian) must be zero, so the
    model is deterministic exactly when both widths are zero.
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
                raise UsageError(f"{name} must be finite, got {value}")
        if self.s_max < 0.0:
            raise UsageError(f"s_max must be >= 0, got {self.s_max}")
        if self.sigma0 < 0.0:
            raise UsageError(f"sigma0 must be >= 0, got {self.sigma0}")
        mode = self.mode.value
        if self.mode is ErrorMode.NONE and self.delta0 != 0.0:
            raise UsageError(f"mode {mode} reads no delta0, got {self.delta0}")
        if self.mode is ErrorMode.NONE and self.include_amplitude_errors:
            raise UsageError(f"mode {mode} draws no amplitude errors")
        if self.mode is not ErrorMode.UNIFORM and self.s_max != 0.0:
            raise UsageError(f"mode {mode} reads no s_max, got {self.s_max}")
        if self.mode is not ErrorMode.GAUSSIAN and self.sigma0 != 0.0:
            raise UsageError(f"mode {mode} reads no sigma0, got {self.sigma0}")

    @property
    def deterministic(self) -> bool:
        """True when sampling never consumes randomness: both widths are zero."""
        return self.s_max == 0.0 and self.sigma0 == 0.0


def _sample(
    model: ErrorModel, count: int, rngs: Sequence[Xorshift64Star]
) -> np.ndarray:
    """count errors from each stream, one row per stream."""
    # Same float operations, in the same order, as the scalar
    # delta0 + (2u - 1) * s_max and delta0 + sigma0 * z, z by Box-Muller.
    if model.mode is ErrorMode.UNIFORM:
        values = _uniform01_rows(rngs, count)
        values *= 2.0
        values -= 1.0
        values *= model.s_max
        values += model.delta0
        return values
    pairs = _uniform01_rows(rngs, 2 * count).reshape(len(rngs), count, 2)
    # 1 - u goes to a fresh array, whose rows (unlike the block's, padded
    # to whole lanes) merge into one 1-D view.
    flat = np.empty(len(rngs) * count)
    values, angle = flat.reshape(len(rngs), count), pairs[..., 1]
    np.subtract(1.0, pairs[..., 0], out=values)
    # The C library's scalar log, through one 1-D np.log call that reads
    # backwards and writes a fresh forward array: strides of opposite sign
    # keep numpy off its vectorized log (module docstring). Keep this
    # shape: a 2-D call, or one in place such as
    # np.log(v[:, ::-1], out=v[:, ::-1]), lets numpy flip both strides and
    # reach the vector loop, which differs in the last bit.
    flat[:] = np.log(flat[::-1])[::-1]
    values *= -2.0
    np.sqrt(values, out=values)
    angle *= 2.0 * math.pi
    np.cos(angle, out=angle)
    values *= angle
    values *= model.sigma0
    values += model.delta0
    return values


def _draw(model: ErrorModel, count: int, seeds: Sequence[int], salt: int) -> np.ndarray:
    """Row k: count errors from the substream of seeds[k] with this salt."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if model.deterministic:
        return np.full((len(seeds), count), model.delta0)
    return _sample(model, count, [_substream(seed, salt) for seed in seeds])


def sample_realizations(
    model: ErrorModel, count: int, seeds: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Phase and amplitude errors of the realizations drawn from seeds.

    Pair k holds count draws from each substream of seeds[k], amplitude
    errors None when the model disables them; draw i does not depend on
    count. Deterministic models (mode none or systematic, or a zero
    width) give delta0 for every term and ignore the seeds. All draws
    are made before this returns, the streams of all seeds stepping
    together.
    """
    phase = _draw(model, count, seeds, _PHASE_STREAM_SALT)
    if not model.include_amplitude_errors:
        return zip(phase, [None] * len(seeds))
    return zip(phase, _draw(model, count, seeds, _AMPLITUDE_STREAM_SALT))
