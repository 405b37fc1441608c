"""Integer arithmetic for the order-finding pipeline.

Modular exponentiation, multiplicative orders, continued-fraction
convergents, and order recovery from a measured register value. All
functions work on plain Python integers, so they are exact at any size
the brute-force order search can reach.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# Brute-force order search walks up to N multiplications; keep N bounded.
ORDER_SEARCH_CAP = 1 << 20

DEFAULT_MULTIPLIER_BOUND = 64


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """Return base**exponent mod modulus in O(log exponent) multiplications."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    if base < 0:
        raise ValueError(f"base must be >= 0, got {base}")
    return pow(base, exponent, modulus)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor; rejects gcd(0, 0)."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def popcount(a: int) -> int:
    """Number of set bits in a nonnegative integer."""
    if a < 0:
        raise ValueError(f"popcount needs a nonnegative value, got {a}")
    return a.bit_count()


def find_order(y: int, modulus: int) -> int:
    """Least r >= 1 with y**r == 1 mod modulus, by brute-force stepping.

    Args:
        y: base, must satisfy 1 <= y < modulus and gcd(y, modulus) == 1.
        modulus: modulus, bounded by ORDER_SEARCH_CAP.

    Returns:
        The multiplicative order of y modulo modulus.

    Raises:
        ValueError: on out-of-range arguments or when y shares a factor
            with the modulus (that factor already solves the factoring
            problem, so order finding is the wrong tool).
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if modulus > ORDER_SEARCH_CAP:
        raise ValueError(
            f"modulus {modulus} exceeds brute-force cap {ORDER_SEARCH_CAP}"
        )
    if not 1 <= y < modulus:
        raise ValueError(f"base must satisfy 1 <= y < modulus, got y={y}")
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


def _check_recovery_inputs(modulus: int, base: int, multiplier_bound: int) -> None:
    """Raise ValueError unless (modulus, base, multiplier_bound) admit recovery."""
    if multiplier_bound < 1:
        raise ValueError(f"multiplier_bound must be >= 1, got {multiplier_bound}")
    if not 2 <= base < modulus:
        raise ValueError(f"need 2 <= base < modulus, got base={base}")
    if math.gcd(base, modulus) != 1:
        raise ValueError(f"base {base} shares a factor with modulus {modulus}")


def recover_order(
    c: int,
    q: int,
    modulus: int,
    base: int,
    multiplier_bound: int = DEFAULT_MULTIPLIER_BOUND,
) -> int | None:
    """Recover a candidate order from a measured register value c.

    Scans the convergent denominators d < modulus of c/q together with
    their small multiples lam*d for lam up to multiplier_bound, and
    returns the least candidate v with base**v == 1 mod modulus, or None
    when no candidate works.

    Every v with base**v == 1 is a multiple of the true order r, so the
    result is r exactly when some convergent denominator d < modulus
    satisfies d | r and r/d <= multiplier_bound. In particular d = 1 is
    always a convergent denominator, so any multiplier_bound >= r
    recovers r from every outcome c.
    """
    _check_recovery_inputs(modulus, base, multiplier_bound)
    denominators = {d for _, d in convergents(c, q) if d < modulus}
    candidates = sorted(
        {lam * d for d in denominators for lam in range(1, multiplier_bound + 1)}
    )
    for v in candidates:
        if pow(base, v, modulus) == 1:
            return v
    return None


def _register_width(modulus: int) -> int:
    """Smallest L with 2**L >= modulus**2 (which also gives 2**L < 2*modulus**2)."""
    target = modulus * modulus
    width = max(1, (target - 1).bit_length())
    return width


@dataclass(frozen=True)
class ShorInstance:
    """One order-finding setup: register size, period, and offset.

    After the modular-exponentiation register is measured, the remaining
    register holds an equal superposition over offset + j*order for
    j = 0 .. support_count-1, all below register_size. The spectra in
    this package are distributions of the Fourier readout of that state.

    modulus and base are optional: synthetic instances fix the register
    shape directly and only need them when order recovery is evaluated.
    """

    modulus: int | None
    base: int | None
    n_qubits: int
    register_size: int
    order: int
    offset: int
    support_count: int
    synthetic: bool = False

    def __post_init__(self) -> None:
        if self.n_qubits < 1 or self.n_qubits > 24:
            raise ValueError(f"n_qubits must be in [1, 24], got {self.n_qubits}")
        if self.register_size != 1 << self.n_qubits:
            raise ValueError("register_size must equal 2**n_qubits")
        if not 1 <= self.order <= self.register_size:
            raise ValueError(f"order must be in [1, register_size], got {self.order}")
        if not 0 <= self.offset < self.order:
            raise ValueError(
                f"offset must satisfy 0 <= offset < order, got {self.offset}"
            )
        expected = (self.register_size - 1 - self.offset) // self.order + 1
        if self.support_count != expected:
            raise ValueError(
                f"support_count {self.support_count} does not match the "
                f"register arithmetic (expected {expected})"
            )

    @classmethod
    def from_factoring(cls, modulus: int, base: int, offset: int = 0) -> ShorInstance:
        """Build an instance from (modulus, base) with the standard register size.

        The register width L is the smallest with 2**L >= modulus**2, the
        order is found by brute force, and the support offset defaults to 0.
        """
        if modulus < 3:
            raise ValueError(f"modulus must be >= 3, got {modulus}")
        if not 2 <= base < modulus:
            raise ValueError(f"need 2 <= base < modulus, got base={base}")
        order = find_order(base, modulus)
        n_qubits = _register_width(modulus)
        register_size = 1 << n_qubits
        if not 0 <= offset < order:
            raise ValueError(f"offset must be in [0, order), got {offset}")
        support = (register_size - 1 - offset) // order + 1
        return cls(
            modulus=modulus,
            base=base,
            n_qubits=n_qubits,
            register_size=register_size,
            order=order,
            offset=offset,
            support_count=support,
        )

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
        (modulus, base) pair may be attached for order recovery, in which
        case the order of base mod modulus must equal the given order.
        """
        register_size = 1 << n_qubits
        if (modulus is None) != (base is None):
            raise ValueError("modulus and base must be given together")
        if modulus is not None and base is not None:
            actual = find_order(base, modulus)
            if actual != order:
                raise ValueError(
                    f"base {base} has order {actual} mod {modulus}, not {order}"
                )
        if not 1 <= order <= register_size:
            raise ValueError(f"order must be in [1, 2**n_qubits], got {order}")
        if not 0 <= offset < order:
            raise ValueError(f"offset must be in [0, order), got {offset}")
        support = (register_size - 1 - offset) // order + 1
        return cls(
            modulus=modulus,
            base=base,
            n_qubits=n_qubits,
            register_size=register_size,
            order=order,
            offset=offset,
            support_count=support,
            synthetic=True,
        )

    def support_values(self) -> range:
        """Basis values offset, offset+order, ... that carry amplitude."""
        stop = self.offset + self.support_count * self.order
        return range(self.offset, stop, self.order)

    @property
    def order_divides_register(self) -> bool:
        return self.register_size % self.order == 0

    @property
    def full_period_support(self) -> bool:
        """True when the support has exactly register_size/order points."""
        return (
            self.order_divides_register
            and self.support_count == self.register_size // self.order
        )
