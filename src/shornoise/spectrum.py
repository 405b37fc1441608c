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
import sys
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


def _check_probabilities(values: np.ndarray) -> None:
    """Raise ValueError unless every value is finite and at least -1e-15."""
    # Reductions, not masks, so no full-size temporary; both keep NaN.
    low, high = values.min(), values.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("probabilities must be finite")
    if low < -1e-15:
        raise ValueError("probabilities must be nonnegative")


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
        _check_probabilities(values)

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


def _check_coefficient_sum(magnitudes: np.ndarray, whose: str) -> None:
    """Raise ValueError unless (sum magnitudes)**2 is in (0, half the largest float)."""
    with np.errstate(over="ignore"):
        total = float(np.sum(magnitudes))
    if not 0.0 < 2.0 * total * total < math.inf:
        raise ValueError(
            f"{whose}**2 is {total * total:g}; it must be positive and "
            f"below {sys.float_info.max / 2:.3g}"
        )


def init_error_weights(inst: ShorInstance, init_delta: float) -> np.ndarray:
    """Preparation weights 1 + init_delta*(2*popcount(a) - n) at the support.

    Models a constant miscalibration of the state-preparation rotations:
    each set bit of a pulls its weight up by init_delta, each clear bit
    down. Returns one weight per value of inst.support_values(). Every
    route calls this, so all reject alike weights that are all zero or
    whose (sum_j |w_j|)**2, a bound on the squared norm and on the
    effective |Z|**2, reaches half the largest float (half for rounding).
    """
    if not math.isfinite(init_delta):
        raise ValueError(f"init_delta must be finite, got {init_delta}")
    bits = np.bitwise_count(inst.support_values())
    with np.errstate(over="ignore"):
        weights = 1.0 + init_delta * (2.0 * bits - inst.n_qubits)
    whose = f"init_delta={init_delta:g} gives preparation weights whose (sum |w|)"
    _check_coefficient_sum(np.abs(weights), whose)
    return weights


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
    coeff = np.exp(1j * phase_errors * support)
    weights = 1.0 if init_delta == 0.0 else init_error_weights(inst, init_delta)
    if amp_errors is not None:
        factors = 1.0 + _checked("amp_errors", amp_errors, m)
        coeff *= factors
        whose = "the amplitude errors give coefficients whose (sum |w (1 + d)|)"
        _check_coefficient_sum(np.abs(factors * weights), whose)
    if init_delta != 0.0:
        coeff *= weights
    return coeff


# At most one plan: at L = 24 its twiddles and index reach a register's size.
@functools.lru_cache(maxsize=1)
def _period_plan(q: int, r: int, m: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Width W, twiddles and gather index of the transform at the period.

    With q' = q/gcd(r, q), W the smallest power of two >= m and B = q'/W,
    Z[t*B + s] = sum_j (z_j exp(2 pi i s j / q')) exp(2 pi i t j / W), so
    row s >= 1 of a (B, W) complex array transforms z times twiddle row
    s - 1 and row 0, whose factors are 1, z itself. Index entry c < q' is
    the position of Z[c r' mod q'] in that array flattened, so also the
    position of P_c in `period_values`. Both arrays are read-only.
    """
    period = q // math.gcd(r, q)
    width = 1 << (m - 1).bit_length()
    blocks = period // width
    # exp(2 pi i s j / q') for j = high + low, low < split, is the product
    # of a high and a low factor, so only the two small tables take trig.
    # s*j < B*m <= q', so the angles need no reduction.
    split = 1 << (m.bit_length() + 1) // 2
    s = np.arange(1, blocks)[:, None] * (2.0 * math.pi / period)
    high = np.exp(1j * (s * np.arange(0, m, split)))
    low = np.exp(1j * (s * np.arange(split)))
    products = high[:, :, None] * low[:, None, :]
    twiddles = products.reshape(-1, products.shape[1] * split)[:, :m]
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
    # Huge amplitude factors or preparation weights overflow to inf or
    # nan here without a warning; every caller rejects a non-finite P.
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = _assemble(inst, phase_errors, amp_errors, init_delta)
        q, r, m = inst.register_size, inst.order, inst.support_count
        width, twiddles, index = _period_plan(q, r, m)
        rows = np.empty((len(index) // width, width), dtype=complex)
        rows[:, m:] = 0.0
        rows[0, :m] = coeff
        np.multiply(twiddles, coeff, out=rows[1:, :m])
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


def model_spectrum(inst: ShorInstance, model: ErrorModel, seed: int) -> Spectrum:
    """The effective-model readout distribution by the route exact for the model.

    A systematic phase error with neither amplitude nor preparation error
    gives the closed form. Every other model, exact gates included, gives
    one direct-sum realization, its errors drawn once from seed (quenched:
    one miscalibrated apparatus, not a per-shot fluctuation).
    """
    if (
        model.mode is ErrorMode.SYSTEMATIC
        and not model.include_amplitude_errors
        and model.init_delta == 0.0
    ):
        return systematic_spectrum_closed_form(inst, model.delta0)
    ((phase, amp),) = sample_realizations(model, inst.support_count, [seed])
    return replace(direct_spectrum(inst, phase, amp, model.init_delta), model=model)


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


# 8,192 rows keep a chunk's largest temporaries, its words and row bytes, at 224
# KiB each, small enough to be reused from the heap rather than mapped afresh.
_CSV_CHUNK_ROWS = 1 << 13


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """Words "0000".."9999", ",0.0"..",9.9", "000e".."999e" and "-99\\n".."+99\\n",
    then fl(10**(12-e)), parsed so correctly rounded, for e = -99..99."""
    # numpy writes the 10,000 groups several times faster than f-strings would.
    groups = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype("u1")
    texts = (
        [f",{i // 10}.{i % 10}" for i in range(100)],
        [f"{i:03d}e" for i in range(1000)],
        [f"{e:+03d}\n" for e in range(-99, 100)],
    )
    scales = np.array([float(f"1e{12 - e}") for e in range(-99, 100)])
    words = [np.frombuffer("".join(t).encode(), dtype="<u4") for t in texts]
    return (groups.view("<u4").ravel(), *words, scales)


def _decimal_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The 13 digits and the exponent e + 99 that `%.12e` prints for each value.

    None unless all values are +0.0 or in [1e-99, 9.9999999999995e99), the
    values `%.12e` prints with a two-digit exponent. The digits are
    rint(v * fl(10**(12-e))) for e = floor(log10(v)), clipped to [-99, 99].
    """
    safe = np.where(values == 0.0, 1.0, values)
    if np.signbit(values).any() or not (
        safe.min() >= 1e-99 and safe.max() < 9.9999999999995e99
    ):
        return None
    biased = np.floor(np.log10(safe)).astype(np.intp) + 99
    scaled = safe * np.take(_format_tables()[4], biased, mode="clip")
    digits = np.rint(scaled)
    # v * fl(10**(12-e)) has two roundings of 2**-53 relative, so below 10**13 it is
    # within 2.3e-3 of exact, and its rint is exact 2.5e-3 or more from a tie.
    # `%.12e` itself settles the rest, about one value in 200, and every product
    # below 10**12 (log10 a decade high) or rounding to 10**13 (a decade low, or
    # digits that carry into the next decade).
    doubt = np.abs(scaled - digits) > 0.5 - 2.5e-3
    doubt |= (scaled < 1e12) | (digits >= 1e13)
    if doubt.any():
        # d.dddddddddddde+XX without its point, split at e: the digits, then e.
        text = " ".join(format(v, ".12e") for v in safe[doubt].tolist())
        printed = np.array(text.replace(".", "").replace("e", " ").split(), np.int64)
        digits[doubt], biased[doubt] = printed[::2], printed[1::2] + 99
    digits[values == 0.0] = 0.0
    return digits.astype(np.intp), biased


def _csv_rows(values: np.ndarray, first_c: int) -> np.ndarray:
    """The bytes of rows c = first_c, first_c + 1, ... for values.

    A row is seven uint32 words: c in 8 digits, ",L.D", 8 digits, "DDDe" and
    "+EE\\n". A decade of c is one strided copy that drops unused c digits.
    A chunk with rows of another width, from a sign bit (-0.0 included), a
    nonzero value below 1e-99 or a three-digit exponent, is the f-string's.
    """
    decimal = _decimal_digits(values)
    if decimal is None:  # the f-string formats the whole chunk
        rows = (f"{c},{v:.12e}\n" for c, v in enumerate(values.tolist(), first_c))
        return np.frombuffer("".join(rows).encode(), dtype=np.uint8)
    groups, leads, fractions, exponents = _format_tables()[:4]
    (digits, biased), n = decimal, len(values)
    c = np.arange(first_c, first_c + n)
    high, c_high = digits // 10**7, c // 10**4  # numpy's integer % is far slower
    low, lead = digits - high * 10**7, high // 10**4
    tail = low // 1000
    words = np.empty((n, 7), dtype="<u4")
    words[:, 0] = groups[c_high]
    words[:, 1] = groups[c - c_high * 10**4]
    words[:, 2] = leads[lead]
    words[:, 3] = groups[high - lead * 10**4]
    words[:, 4] = groups[tail]
    words[:, 5] = fractions[low - tail * 1000]
    words[:, 6] = np.take(exponents, biased, mode="clip")
    rows, out, size = words.view(np.uint8), np.empty(n * 28, dtype=np.uint8), 0
    for width in range(1, 9):
        start = max(0, (10 ** (width - 1) if width > 1 else 0) - first_c)
        stop, row = min(n, 10**width - first_c), np.dtype(f"V{20 + width}")
        if start < stop:  # each row one opaque item, so the copy moves whole rows
            block = out[size : size + (stop - start) * row.itemsize].view(row)
            block[:] = rows[start:stop, 8 - width :].view(row)[:, 0]
            size += block.nbytes
    return out[:size]


def write_spectrum_csv(spec: Spectrum, path: str | Path) -> None:
    """Write the `c,probability` header, then rows byte-identical to
    f"{c},{value:.12e}\\n" on every platform, 8,192 at a time (`_csv_rows`)."""
    with open(path, "wb") as f:
        f.write(b"c,probability\n")
        for start in range(0, spec.register_size, _CSV_CHUNK_ROWS):
            f.write(_csv_rows(spec.values[start : start + _CSV_CHUNK_ROWS], start))
