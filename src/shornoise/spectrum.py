"""Readout spectra of the order-finding register under gate errors.

The register state before readout is supported on basis values
a_j = offset + j*order for j = 0 .. M-1. A Fourier readout with per-term
phase errors d'_j and amplitude errors d_j sends it to the distribution

    P_c = (r / q**2) * | sum_j w_j (1 + d_j) exp(i (2 pi c / q + d'_j) a_j) |**2

where q is the register size, r the order, and w_j an optional
preparation weight. The support is an arithmetic progression, so with
g = gcd(r, q), q' = q/g and r' = r/g the sum is a phase times
Z[c r' mod q'], Z[k] = sum_j z_j exp(2 pi i k j / q'): only q' values
are distinct, and P_c repeats with period q'. `period_values` evaluates
Z by transforms of length W, the smallest power of two >= M, never on
the whole register, and `register_values` maps the q' values onto it;
`direct_spectrum` is the two in turn. Ensembles sum realizations at the
q' points and map the mean and std onto the register once. For
constant phase error d the geometric sum is exact for any M and gives
the closed form

    P_c = (r / q**2) * sin(M th)**2 / sin(th)**2,   th = pi c r / q + d r / 2

whose numerator equals sin(d q / 2)**2 whenever M r == q. The ratio has
period pi in th, so it is evaluated at th reduced into [-pi/2, pi/2]
through the exact integer c r mod q; it needs no special case beyond its
limit M at th = 0. Both routes are implemented here and agree to
floating-point accuracy.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errmodel import ErrorMode, ErrorModel, sample_realizations
from .numth import ShorInstance


class SpectrumMethod(Enum):
    DIRECT_SUM = "direct_sum"
    CLOSED_FORM = "closed_form"
    CIRCUIT = "circuit"


@dataclass(frozen=True)
class Spectrum:
    """A readout distribution P_c for c = 0 .. register_size - 1.

    Values are relative probabilities unless normalized is set; spectra
    from the unitary circuit route sum to one by construction. model is
    the error model behind them, None for errors passed in directly.
    """

    values: np.ndarray
    method: SpectrumMethod
    instance: ShorInstance
    normalized: bool = False
    model: ErrorModel | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) != self.instance.register_size:
            raise ValueError("values must have one entry per register value")
        # Reductions, not masks, so no register-size temporary; both keep NaN.
        low, high = values.min(), values.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("probabilities must be finite")
        if low < -1e-15:
            raise ValueError("probabilities must be nonnegative")

    @property
    def register_size(self) -> int:
        return len(self.values)

    def total(self) -> float:
        return float(np.sum(self.values))

    def positive_total(self) -> float:
        """The total, which normalization divides by; it must be positive."""
        total = self.total()
        if total <= 0.0:
            raise ValueError("cannot normalize an all-zero spectrum")
        return total

    def normalize(self) -> Spectrum:
        """Return a copy scaled to unit total."""
        total = self.positive_total()
        return replace(self, values=self.values / total, normalized=True)


def init_error_weights(inst: ShorInstance, init_delta: float) -> np.ndarray:
    """Preparation weights 1 + init_delta*(2*popcount(a) - n) at the support.

    Models a constant miscalibration of the state-preparation rotations:
    each set bit of a pulls its weight up by init_delta, each clear bit
    down. Returns one weight per value of inst.support_values().
    """
    if not math.isfinite(init_delta):
        raise ValueError(f"init_delta must be finite, got {init_delta}")
    bits = np.bitwise_count(inst.support_values())
    return 1.0 + init_delta * (2.0 * bits - inst.n_qubits)


def _checked(name: str, values: np.ndarray, length: int) -> np.ndarray:
    """values as a float array of the given length, all finite."""
    values = np.asarray(values, dtype=float)
    if values.shape != (length,):
        raise ValueError(f"{name} must have length {length}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


def _assemble(
    inst: ShorInstance,
    phase_errors: np.ndarray,
    amp_errors: np.ndarray | None,
    init_delta: float,
) -> np.ndarray:
    """The M per-term complex coefficients z_j, in support order."""
    m = inst.support_count
    support = inst.support_values()
    phase_errors = _checked("phase_errors", phase_errors, m)
    if amp_errors is None:
        amp_errors = np.zeros(m)
    amp_errors = _checked("amp_errors", amp_errors, m)
    coeff = (1.0 + amp_errors) * np.exp(1j * phase_errors * support)
    if init_delta != 0.0:
        coeff *= init_error_weights(inst, init_delta)
    return coeff


# At most one plan: at L = 24 its twiddles and index reach a register's size.
@functools.lru_cache(maxsize=1)
def _period_plan(q: int, r: int, m: int) -> tuple[int, np.ndarray | None, np.ndarray]:
    """Width W, twiddles and gather index of the transform at the period.

    With q' = q/gcd(r, q), W the smallest power of two >= m and B = q'/W,
    Z[t*B + s] = sum_j (z_j exp(2 pi i s j / q')) exp(2 pi i t j / W), so
    row s of a (B, W) complex array transforms z times twiddle row s.
    Twiddles are None when B == 1. Index entry c < q' is the position of
    Z[c r' mod q'] in that array flattened, so also the position of
    P_c in `period_values`. Both arrays are read-only.
    """
    period = q // math.gcd(r, q)
    width = 1 << (m - 1).bit_length()
    blocks = period // width
    twiddles = None
    if blocks > 1:
        # exp(2 pi i s j / q') for j = high + low, low < split, is the product
        # of a high and a low factor, so only the two small tables take trig.
        # s*j < B*m <= q', so the angles need no reduction.
        split = 1 << (m.bit_length() + 1) // 2
        s = np.arange(blocks)[:, None] * (2.0 * math.pi / period)
        high = np.exp(1j * (s * np.arange(0, m, split)))
        low = np.exp(1j * (s * np.arange(split)))
        twiddles = (high[:, :, None] * low[:, None, :]).reshape(blocks, -1)[:, :m]
        twiddles.flags.writeable = False
    # c*r' wraps modulo 2**32, which q' divides, so the mask gives c*r' mod q'.
    index = np.arange(period, dtype=np.uint32)
    index *= r * period // q
    index &= period - 1
    # Z[k] sits at row k mod B, column k // B: entry row * W + column.
    row = index & (blocks - 1)
    index >>= blocks.bit_length() - 1
    row *= width
    index += row
    index = index.view(np.int32)
    index.flags.writeable = False
    return width, twiddles, index


def period_values(
    inst: ShorInstance,
    phase_errors: np.ndarray,
    amp_errors: np.ndarray | None = None,
    init_delta: float = 0.0,
) -> np.ndarray:
    """P at the q' distinct points, in the order of the transform at the period.

    One batched inverse FFT gives Z at all q' points (module docstring).
    The result is one contiguous array of q' floats; `register_values`
    maps it onto the register. Arguments are those of `direct_spectrum`.
    """
    coeff = _assemble(inst, phase_errors, amp_errors, init_delta)
    q, r, m = inst.register_size, inst.order, inst.support_count
    width, twiddles, index = _period_plan(q, r, m)
    rows = np.empty((len(index) // width, width), dtype=complex)
    rows[:, m:] = 0.0
    if twiddles is None:
        rows[0, :m] = coeff
    else:
        np.multiply(twiddles, coeff, out=rows[:, :m])
    # The unscaled ("forward") inverse equals W * ifft exactly: W is a power of 2.
    np.fft.ifft(rows, norm="forward", axis=1, out=rows)
    # |Z|**2: both parts squared in place, then each pair added.
    parts = rows.view(float).reshape(-1, 2)
    np.square(parts, out=parts)
    values = np.add(parts[:, 0], parts[:, 1])
    values *= r / q**2
    return values


def register_values(inst: ShorInstance, at_period: np.ndarray) -> np.ndarray:
    """The q register values of P from the q' of `period_values`.

    The plan's index gathers P_c for c < q', and P_c repeats with period q'.
    """
    _, _, index = _period_plan(inst.register_size, inst.order, inst.support_count)
    if at_period.shape != index.shape:
        raise ValueError(f"at_period must have length {len(index)}")
    values = np.empty(inst.register_size)
    head = values[: len(index)]
    np.take(at_period, index, out=head, mode="clip")
    values.reshape(-1, len(index))[1:] = head
    return values


def direct_spectrum(
    inst: ShorInstance,
    phase_errors: np.ndarray,
    amp_errors: np.ndarray | None = None,
    init_delta: float = 0.0,
) -> Spectrum:
    """Evaluate the readout distribution by direct summation.

    It is evaluated at the period (`period_values`) and mapped onto the
    register (`register_values`).

    Args:
        inst: register geometry (size, order, offset, support count).
        phase_errors: per-term phase errors d'_j, length support_count.
        amp_errors: per-term amplitude errors d_j, same length; zeros when
            omitted.
        init_delta: preparation miscalibration; nonzero values weight each
            term by `init_error_weights`.

    Returns:
        Spectrum of relative probabilities. When all amplitude factors and
        weights are one they total r*M/q, which is one only when M*r == q.
    """
    at_period = period_values(inst, phase_errors, amp_errors, init_delta)
    values = register_values(inst, at_period)
    return Spectrum(values=values, method=SpectrumMethod.DIRECT_SUM, instance=inst)


def systematic_spectrum_closed_form(inst: ShorInstance, delta: float) -> Spectrum:
    """Closed-form readout distribution for a constant phase error delta.

    Evaluates (r/q**2) * sin(M*th)**2 / sin(th)**2 with
    th = pi*c*r/q + delta*r/2 at every c. The ratio has period pi in th,
    so th = pi*u with u = (c*r mod q)/q + delta*r/(2*pi) reduced to
    |u| <= 1/2. The integer c*r mod q is exact (c*r < 2**48), so near the
    peaks u carries only relative rounding, and sin(pi*u) vanishes only
    at u = 0, where the ratio is M.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    q = inst.register_size
    r = inst.order
    m = inst.support_count
    # c*r mod q, folded into [-q/2, q/2) so that u is small near every peak
    u = np.arange(q, dtype=np.int64)
    u *= r
    u += q // 2
    u %= q
    u -= q // 2
    u = u / q
    u += math.remainder(delta * r / (2.0 * math.pi), 1.0)
    u -= np.rint(u)
    u *= math.pi
    values = m * u
    np.sin(values, out=values)
    np.sin(u, out=u)
    np.divide(values, u, out=values, where=u != 0.0)
    values[u == 0.0] = m
    values *= values
    values *= r / q**2
    return Spectrum(
        values=values,
        method=SpectrumMethod.CLOSED_FORM,
        instance=inst,
        model=ErrorModel(ErrorMode.SYSTEMATIC, delta0=delta),
    )


def realizations_at_period(
    inst: ShorInstance, model: ErrorModel, seeds: Sequence[int]
) -> Iterator[np.ndarray]:
    """`period_values` of the `combined_spectrum` realizations drawn from seeds.

    Their errors are drawn together (`errmodel.sample_realizations`);
    each realization is then transformed on its own, in the order of seeds.
    """
    for phase, amp in sample_realizations(model, inst.support_count, seeds):
        yield period_values(inst, phase, amp, model.init_delta)


def combined_spectrum(
    inst: ShorInstance, model: ErrorModel, seed: int
) -> Spectrum:
    """One realization of the readout distribution under an error model.

    Phase and amplitude errors are drawn once for the whole spectrum
    (quenched draws: a realization is one miscalibrated apparatus, not a
    per-shot fluctuation). Preparation weights enter when the model's
    init_delta is nonzero.
    """
    phase, amp = next(sample_realizations(model, inst.support_count, [seed]))
    return replace(direct_spectrum(inst, phase, amp, model.init_delta), model=model)


def model_spectrum(inst: ShorInstance, model: ErrorModel, seed: int) -> Spectrum:
    """The effective-model readout distribution by the route exact for the model.

    A systematic phase error with neither amplitude nor preparation error
    gives the closed form; every other model, exact gates included, gives
    one direct-sum realization drawn from seed (`combined_spectrum`).
    """
    if (
        model.mode is ErrorMode.SYSTEMATIC
        and not model.include_amplitude_errors
        and model.init_delta == 0.0
    ):
        return systematic_spectrum_closed_form(inst, model.delta0)
    return combined_spectrum(inst, model, seed)


def total_variation_distance(first: Spectrum, second: Spectrum) -> float:
    """Total-variation distance between two spectra, normalizing both."""
    p = first.normalize().values
    s = second.normalize().values
    if len(p) != len(s):
        raise ValueError("spectra must have the same register size")
    return float(0.5 * np.sum(np.abs(p - s)))


def spectrum_metadata(spec: Spectrum, seed: int | None = None) -> str:
    """key=value metadata block describing how a spectrum was produced.

    `model=` gives the mode, then each other `ErrorModel` field its own line;
    `model=custom` means errors passed in directly (`direct_spectrum`).
    """
    inst = spec.instance
    model = spec.model
    lines = [
        f"method={spec.method.value}",
        f"q={inst.register_size}",
        f"r={inst.order}",
        f"l={inst.offset}",
        "model=custom" if model is None else f"model={model.mode.value}",
    ]
    if model is not None:
        for field in fields(model)[1:]:  # the mode is field 0, written above
            value = getattr(model, field.name)
            shown = str(value).lower() if isinstance(value, bool) else repr(value)
            lines.append(f"{field.name}={shown}")
    lines.append(f"seed={seed if seed is not None else 'none'}")
    lines.append(f"normalized={str(spec.normalized).lower()}")
    if inst.synthetic:
        lines.append("synthetic=true")
    if not inst.full_period_support:
        lines.append(f"support_count={inst.support_count}")
    return "\n".join(lines) + "\n"


# A row `c,-d.dddddddddddde+0eee\n` at its widest, with eight c digits.
_ROW_TEMPLATE = np.frombuffer(b"00000000,-0.000000000000e+0000\n", dtype=np.uint8)
# 8,192 rows keep each chunk's temporaries at or below 254 KiB, small enough to
# be reused from the heap rather than mapped and faulted in again per chunk.
_CSV_CHUNK_ROWS = 1 << 13
# |v| * fl(10**(12-e)) has two roundings of 2**-53 relative, so below 10**13 it
# is within 2.3e-3 of exact, and rounds exactly if its fraction is this far from 1/2.
_TIE_MARGIN = 5e-3


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray]:
    """ASCII words "0000" .. "9999", and 10**(k - 300) parsed, so correctly rounded."""
    groups = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    return groups.astype(np.uint8).view("<u4").ravel(), powers


def _decimal_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 13 digits and the exponent that `%.12e` prints for each value."""
    pow10 = _format_tables()[1]
    mag = np.abs(values)
    normal = (mag >= 1e-280) & (mag <= 1e280)
    safe = np.where(normal, mag, 1.0)
    exp = np.floor(np.log10(safe)).astype(np.int64)
    scaled = safe * pow10[312 - exp]
    exp += (scaled >= 1e13).astype(np.int64) - (scaled < 1e12)  # log10 may be one off
    scaled = safe * pow10[312 - exp]
    digits = np.rint(scaled)
    doubt = (np.abs(scaled - digits) > 0.5 - _TIE_MARGIN) | (scaled < 1e12)
    doubt |= (digits >= 1e13) | (~normal & (mag != 0.0))
    digits[mag == 0.0] = 0.0
    digits = digits.astype(np.int64)
    for i in np.flatnonzero(doubt):
        mantissa, _, exponent = f"{float(values[i]):.12e}".partition("e")
        digits[i] = int(mantissa.lstrip("-").replace(".", ""))
        exp[i] = int(exponent)
    return digits, exp


def _csv_rows(values: np.ndarray, first_c: int) -> np.ndarray:
    """The bytes of rows c = first_c, first_c + 1, ... for values."""
    groups = _format_tables()[0]
    n = len(values)
    digits, exp = _decimal_digits(values)
    lead, digits = np.divmod(digits, 10**12)
    c = np.arange(first_c, first_c + n)
    buf = np.tile(_ROW_TEMPLATE, (n, 1))
    buf[:, 10] += lead.astype(np.uint8)
    buf[:, 25] = np.where(exp < 0, ord("-"), ord("+"))
    words = (c // 10**4, c % 10**4, digits // 10**8, digits // 10**4 % 10**4)
    words += (digits % 10**4, np.abs(exp))
    for offset, word in zip((0, 4, 12, 16, 20, 26), words):
        buf[:, offset : offset + 4].view("<u4")[:, 0] = groups[word]
    # Drop unused leading c digits, a clear sign, the exponent's thousands
    # digit and, below 100, its hundreds digit.
    keep = np.ones(buf.shape, dtype=bool)
    for width in range(1, 8):
        keep[: max(0, min(n, 10**width - first_c)), : 8 - width] = False
    keep[:, 9] = np.signbit(values)
    keep[:, 26] = False
    keep[:, 27] = np.abs(exp) >= 100
    return buf[keep]


def write_spectrum_csv(spec: Spectrum, path: str | Path) -> None:
    """Write `c,probability` rows with 12 significant digits after the header.

    Rows are byte-identical to f"{c},{value:.12e}", with `\\n` line ends on
    every platform. numpy assembles them chunk by chunk: the 13 digits of
    v are rint(|v| * 10**(12-e)), the power of ten correctly rounded. That
    product is within 2.3e-3 of the exact scaled value, so its rounding
    is exact when its fraction is 5e-3 or more away from 1/2. Python's
    `%.12e` formats the others, about one value in a hundred, values that
    round up to 10**13, and values outside [1e-280, 1e280] other than zero.
    """
    with open(path, "wb") as f:
        f.write(b"c,probability\n")
        for start in range(0, spec.register_size, _CSV_CHUNK_ROWS):
            f.write(_csv_rows(spec.values[start : start + _CSV_CHUNK_ROWS], start))
