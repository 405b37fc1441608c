"""Scalar order recovery, one outcome at a time, as `recover_orders` must give.

The convergents of c/q are expanded in plain Python integers, and each
candidate multiple of a convergent denominator is tried by modular
exponentiation, so nothing here shares code with the vectorized path.
The module also holds the (modulus, base) strategy that the recovery
properties draw from.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

# (modulus, base) with 3 <= modulus <= 60 and base coprime to it.
COPRIME_PAIRS = st.integers(3, 60).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sampled_from([y for y in range(2, n) if math.gcd(y, n) == 1]),
    )
)


def convergents(c: int, q: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents of c/q as (numerator, denominator).

    The list starts at the zeroth convergent and ends with the fraction
    c/q itself in lowest terms. Denominators are strictly positive and
    nondecreasing.
    """
    if q < 1:
        raise ValueError(f"denominator must be >= 1, got {q}")
    if not 0 <= c <= q:
        raise ValueError(f"need 0 <= c <= q, got c={c}, q={q}")
    result: list[tuple[int, int]] = []
    h_prev, h = 0, 1
    k_prev, k = 1, 0
    num, den = c, q
    while True:
        a, rem = divmod(num, den)
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        result.append((h, k))
        if rem == 0:
            return result
        num, den = den, rem


def recover_order(
    c: int, q: int, modulus: int, base: int, multiplier_bound: int
) -> int | None:
    """Least candidate lam*d with base**(lam*d) == 1 mod modulus, or None.

    d runs over the convergent denominators d < modulus of c/q and lam
    over 1 .. multiplier_bound.
    """
    if multiplier_bound < 1 or math.gcd(base, modulus) != 1:
        raise ValueError("no recovery for these inputs")
    denominators = {d for _, d in convergents(c, q) if d < modulus}
    candidates = sorted(
        {lam * d for d in denominators for lam in range(1, multiplier_bound + 1)}
    )
    for v in candidates:
        if pow(base, v, modulus) == 1:
            return v
    return None
