"""Scalar xorshift64* draws, one at a time, as the batched sampler must give.

`errmodel._uniform01_rows` reproduces `uniform01` bit for bit, and
`errmodel._sample` the Box-Muller pairing of `gaussian`; nothing here
shares code with them beyond the generator's `next_u64`.
"""

from __future__ import annotations

import math

from shornoise.errmodel import Xorshift64Star


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
