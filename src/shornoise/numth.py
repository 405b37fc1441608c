"""Integer arithmetic for the order-finding pipeline.

Multiplicative orders by brute-force search on plain Python integers,
order recovery from a whole array of measured register values at once,
and the `ShorInstance` problem container.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import DEFAULT_MULTIPLIER_BOUND

# Brute-force order search walks up to N multiplications; keep N bounded.
ORDER_SEARCH_CAP = 1 << 20

# Widest register: every route holds 2**MAX_QUBITS values in memory.
MAX_QUBITS = 24

# Outcomes whose expansions recover_orders runs in lockstep at once. Of
# 2,048 to 32,768, 8,192 was fastest at q = 2**16 and q = 2**20, and it
# bounds the temporaries: 1.4 MiB rather than 5.1 MiB at q = 2**16.
_LOCKSTEP_LANES = 1 << 13


class UsageError(ValueError):
    """An argument the caller passed is invalid; raised before any work runs."""


def _check_width(n_qubits: int) -> int:
    """Return n_qubits, or raise UsageError unless 1 <= n_qubits <= MAX_QUBITS."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise UsageError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    return n_qubits


@lru_cache(maxsize=32)
def find_order(y: int, modulus: int) -> int:
    """Least r >= 1 with y**r == 1 mod modulus, by brute-force stepping.

    The one check of a (modulus, base) pair. Cached, so the search runs
    once per (y, modulus) in a process and every later check is a hit.

    Args:
        y: base, must satisfy 2 <= y < modulus and gcd(y, modulus) == 1.
        modulus: modulus, at least 2 and at most ORDER_SEARCH_CAP.

    Returns:
        The multiplicative order of y modulo modulus.

    Raises:
        UsageError: when modulus < 2 or y is outside [2, modulus).
        ValueError: when modulus exceeds ORDER_SEARCH_CAP or y shares a
            factor with it (that factor already solves the factoring
            problem, so order finding is the wrong tool).
    """
    if modulus < 2:
        raise UsageError(f"modulus must be >= 2, got {modulus}")
    if not 2 <= y < modulus:
        raise UsageError(f"need 2 <= base < modulus, got base={y}")
    if modulus > ORDER_SEARCH_CAP:
        raise ValueError(
            f"modulus {modulus} exceeds brute-force cap {ORDER_SEARCH_CAP}"
        )
    g = math.gcd(y, modulus)
    if g != 1:
        raise ValueError(
            f"gcd({y}, {modulus}) = {g} != 1; {g} is already a factor"
        )
    value = y
    order = 1
    while value != 1:
        value = value * y % modulus
        order += 1
        if order > modulus:
            raise RuntimeError("order search failed to terminate")
    return order


def _check_recovery_inputs(multiplier_bound: int) -> None:
    """Raise UsageError unless multiplier_bound >= 1."""
    if multiplier_bound < 1:
        raise UsageError(f"multiplier_bound must be >= 1, got {multiplier_bound}")


def recover_orders(
    outcomes: np.ndarray,
    q: int,
    modulus: int,
    base: int,
    multiplier_bound: int = DEFAULT_MULTIPLIER_BOUND,
) -> np.ndarray:
    """Recover a candidate order from each register value c in outcomes.

    For each c of the 1-D integer array outcomes (0 <= c <= q), scans the
    continued-fraction convergent denominators d < modulus of c/q with
    their multiples lam*d for lam up to multiplier_bound, and returns the
    least candidate v with base**v == 1 mod modulus, or 0 when none works.

    Every such v is a multiple of the true order r, and the least one
    built on d is lcm(d, r), reachable when r/gcd(d, r) <= multiplier_bound.
    So the result is r exactly when some d divides r with
    r/d <= multiplier_bound. d = 1 is always a convergent denominator, so
    any multiplier_bound >= r recovers r from every c.

    The expansions of c/q run in lockstep, _LOCKSTEP_LANES outcomes at a
    time. A lane stops when its expansion ends or its denominator reaches
    modulus, since denominators never decrease. Every value stays at or
    below q <= 2**MAX_QUBITS, so the lanes are int32; only the returned
    orders are int64. The (modulus, base) pair is checked by `find_order`.
    """
    _check_recovery_inputs(multiplier_bound)
    r = find_order(base, modulus)
    if not 1 <= q <= 1 << MAX_QUBITS:
        raise ValueError(f"need 1 <= q <= 2**{MAX_QUBITS}, got q={q}")
    c = np.asarray(outcomes)
    if c.ndim != 1 or (c.size and not np.issubdtype(c.dtype, np.integer)):
        raise ValueError("outcomes must be a 1-D integer array")
    if c.size and not (0 <= c.min() and c.max() <= q):
        raise ValueError(f"need 0 <= c <= q, got c in [{c.min()}, {c.max()}], q={q}")
    # Per outcome, the least lcm(d, r) / r over the reachable d so far.
    unreached = np.iinfo(np.int32).max
    least = np.full(c.size, unreached, dtype=np.int32)
    for start in range(0, c.size, _LOCKSTEP_LANES):
        block = c[start : start + _LOCKSTEP_LANES]
        n = block.size
        lane = np.arange(start, start + n, dtype=np.int32)
        num, den = block.astype(np.int32, copy=False), np.full(n, q, dtype=np.int32)
        k_prev, k = np.ones(n, dtype=np.int32), np.zeros(n, dtype=np.int32)
        while lane.size:
            a, rem = np.divmod(num, den)
            k_prev, k = k, a * k + k_prev
            below = k < modulus
            g = np.gcd(k, r)
            reachable = below & (r // g <= multiplier_bound)
            at = lane[reachable]
            least[at] = np.minimum(least[at], k[reachable] // g[reachable])
            keep = below & (rem != 0)
            lane, num, den = lane[keep], den[keep], rem[keep]
            k_prev, k = k_prev[keep], k[keep]
    least[least == unreached] = 0
    return np.multiply(least, r, dtype=np.int64)


@lru_cache(maxsize=32)
def _recovery_hits(
    q: int, modulus: int, base: int, multiplier_bound: int
) -> np.ndarray | None:
    """The outcomes c in range(q) from which `recover_orders` gives r.

    None, every outcome, exactly when multiplier_bound >= r, as d = 1
    then reaches r; else sorted, read-only int32. r comes from a
    convergent p/d of c/q with d dividing r, d * multiplier_bound >= r
    and |c/q - p/d| < 1/d**2 (Legendre), so only c within q/d**2 + 1 of
    floor(p*q/d), p = 0 .. d, are expanded.
    """
    r = find_order(base, modulus)
    if multiplier_bound >= r:
        return None
    small = [k for k in range(1, math.isqrt(r) + 1) if r % k == 0]
    near = np.zeros(q, dtype=bool)
    for d in {*small, *(r // k for k in small)}:
        if d * multiplier_bound >= r:
            half = q // (d * d) + 1
            for p in range(d + 1):
                center = p * q // d
                near[max(0, center - half) : center + half + 1] = True
    candidates = np.flatnonzero(near).astype(np.int32)
    orders = recover_orders(candidates, q, modulus, base, multiplier_bound)
    hits = candidates[orders == r]
    hits.flags.writeable = False
    return hits


@dataclass(frozen=True)
class ShorInstance:
    """One order-finding setup: register size, period, and offset.

    After the modular-exponentiation register is measured, the remaining
    register holds an equal superposition over offset + j*order for
    j = 0 .. support_count-1, all below register_size. The spectra in
    this package are distributions of the Fourier readout of that state.

    modulus and base are optional but come together: synthetic instances
    fix the register shape directly and only need them for order
    recovery. Given, order must be base's order mod modulus. Every
    constructor runs this one check; `find_order` checks the pair.
    """

    modulus: int | None
    base: int | None
    n_qubits: int
    order: int
    offset: int
    synthetic: bool = False

    def __post_init__(self) -> None:
        for name in ("modulus", "base", "n_qubits", "order", "offset"):
            value = getattr(self, name)  # numpy integers become Python ints
            if value is not None:
                object.__setattr__(self, name, operator.index(value))
        if (self.modulus is None) != (self.base is None):
            raise UsageError("modulus and base must be given together")
        actual = None if self.base is None else find_order(self.base, self.modulus)
        _check_width(self.n_qubits)
        if not 1 <= self.order <= self.register_size:
            raise UsageError(f"order must be in [1, register_size], got {self.order}")
        if not 0 <= self.offset < self.order:
            raise UsageError(
                f"offset must satisfy 0 <= offset < order, got {self.offset}"
            )
        if actual is not None and actual != self.order:
            raise ValueError(
                f"base {self.base} has order {actual} mod {self.modulus}, "
                f"not {self.order}"
            )

    @property
    def register_size(self) -> int:
        return 1 << self.n_qubits

    @property
    def support_count(self) -> int:
        return (self.register_size - 1 - self.offset) // self.order + 1

    @classmethod
    def from_factoring(cls, modulus: int, base: int, offset: int = 0) -> ShorInstance:
        """Build an instance from (modulus, base) with the standard register size.

        The register width L is the smallest with 2**L >= modulus**2, the
        order is found by brute force, and the support offset defaults to 0.
        A modulus too large for the widest register fails before the search.
        """
        modulus, base = operator.index(modulus), operator.index(base)
        n_qubits = max(1, (modulus * modulus - 1).bit_length())
        if n_qubits > MAX_QUBITS:
            raise UsageError(
                f"modulus {modulus} needs {n_qubits} qubits; "
                f"the widest register has {MAX_QUBITS}"
            )
        return cls(modulus, base, n_qubits, find_order(base, modulus), offset)

    @classmethod
    def synthetic_instance(
        cls,
        n_qubits: int,
        order: int,
        offset: int = 0,
        modulus: int | None = None,
        base: int | None = None,
    ) -> ShorInstance:
        """Build a register-shape-only instance from (n_qubits, order, offset).

        The usual size constraint modulus**2 <= register_size is not
        enforced here; the instance is flagged synthetic. An optional
        (modulus, base) pair may be attached for order recovery; the
        instance checks that order is the order of base mod modulus.
        """
        return cls(modulus, base, n_qubits, order, offset, synthetic=True)

    def support_values(self) -> np.ndarray:
        """Basis values offset, offset+order, ... that carry amplitude."""
        return np.arange(self.offset, self.register_size, self.order)

    @property
    def full_period_support(self) -> bool:
        """True when order divides register_size, so the support has q/order points."""
        return self.register_size % self.order == 0
