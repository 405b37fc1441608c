"""Readout spectra of the order-finding register under gate errors.

The register state before readout is supported on basis values
a_j = offset + j*order for j = 0 .. M-1. A Fourier readout with per-term
phase errors d'_j and amplitude errors d_j sends it to the distribution

    P_c = (r / q**2) * | sum_j w_j (1 + d_j) exp(i (2 pi c / q + d'_j) a_j) |**2

where q is the register size, r the order, and w_j an optional
preparation weight. For constant phase error d and full period support
the sum telescopes into the closed form

    P_c = (r / q**2) * sin(M th)**2 / sin(th)**2,   th = pi c r / q + d r / 2

whose numerator equals sin(d q / 2)**2 whenever M r == q. The ratio has
period pi in th, so it is evaluated at th reduced into [-pi/2, pi/2]
through the exact integer c r mod q; it needs no special case beyond its
limit M at th = 0. Both routes are implemented here and agree to
floating-point accuracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errmodel import (
    ErrorMode,
    ErrorModel,
    sample_amplitude_errors,
    sample_phase_errors,
)
from .numth import MAX_QUBITS, ShorInstance


class SpectrumMethod(Enum):
    NOISELESS = "noiseless"
    DIRECT_SUM = "direct_sum"
    CLOSED_FORM = "closed_form"
    CIRCUIT = "circuit"


@dataclass(frozen=True)
class Spectrum:
    """A readout distribution P_c for c = 0 .. register_size - 1.

    Values are relative probabilities unless normalized is set; spectra
    from the unitary circuit route sum to one by construction.
    """

    values: np.ndarray
    method: SpectrumMethod
    instance: ShorInstance
    normalized: bool = False
    realization_seed: int | None = None
    model_label: str = "none"

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

    def normalize(self) -> Spectrum:
        """Return a copy scaled to unit total."""
        total = self.total()
        if total <= 0.0:
            raise ValueError("cannot normalize an all-zero spectrum")
        return replace(self, values=self.values / total, normalized=True)


def init_error_weights(n_qubits: int, delta: float) -> np.ndarray:
    """Preparation weights 1 + delta*(2*popcount(a) - n) for all a < 2**n.

    Models a constant miscalibration of the state-preparation rotations:
    each set bit pulls the weight up by delta, each clear bit down.
    """
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    a = np.arange(1 << n_qubits, dtype=np.uint32)
    # vectorized popcount (SWAR)
    v = a - ((a >> 1) & 0x55555555)
    v = (v & 0x33333333) + ((v >> 2) & 0x33333333)
    v = (v + (v >> 4)) & 0x0F0F0F0F
    bits = ((v * 0x01010101) >> 24).astype(np.int64)
    return 1.0 + delta * (2.0 * bits - n_qubits)


def _assemble(
    inst: ShorInstance,
    phase_errors: np.ndarray,
    amp_errors: np.ndarray | None,
    init_weights: np.ndarray | None,
) -> np.ndarray:
    """Per-term complex coefficients placed on the support positions."""
    m = inst.support_count
    support = np.asarray(inst.support_values(), dtype=np.int64)
    phase_errors = np.asarray(phase_errors, dtype=float)
    if phase_errors.shape != (m,):
        raise ValueError(f"phase_errors must have length {m}")
    if amp_errors is None:
        amp_errors = np.zeros(m)
    amp_errors = np.asarray(amp_errors, dtype=float)
    if amp_errors.shape != (m,):
        raise ValueError(f"amp_errors must have length {m}")
    coeff = (1.0 + amp_errors) * np.exp(1j * phase_errors * support)
    if init_weights is not None:
        init_weights = np.asarray(init_weights, dtype=float)
        if init_weights.shape != (inst.register_size,):
            raise ValueError(
                f"init_weights must cover the register, length {inst.register_size}"
            )
        coeff = coeff * init_weights[support]
    placed = np.zeros(inst.register_size, dtype=complex)
    placed[support] = coeff
    return placed


def direct_spectrum(
    inst: ShorInstance,
    phase_errors: np.ndarray,
    amp_errors: np.ndarray | None = None,
    init_weights: np.ndarray | None = None,
    method: SpectrumMethod = SpectrumMethod.DIRECT_SUM,
    model_label: str = "custom",
    realization_seed: int | None = None,
) -> Spectrum:
    """Evaluate the readout distribution by direct summation.

    Args:
        inst: register geometry (size, order, offset, support count).
        phase_errors: per-term phase errors d'_j, length support_count.
        amp_errors: per-term amplitude errors d_j, same length; zeros when
            omitted.
        init_weights: optional preparation weights indexed by basis value,
            length register_size; the support positions are picked out.

    Returns:
        Spectrum of relative probabilities (exactly normalized only when
        all amplitude factors and weights are one).
    """
    placed = _assemble(inst, phase_errors, amp_errors, init_weights)
    q = inst.register_size
    # sum_j z_j exp(2 pi i c a_j / q) for every c at once
    transform = q * np.fft.ifft(placed)
    values = (inst.order / q**2) * np.abs(transform) ** 2
    return Spectrum(
        values=values,
        method=method,
        instance=inst,
        realization_seed=realization_seed,
        model_label=model_label,
    )


def noiseless_spectrum(inst: ShorInstance) -> Spectrum:
    """Readout distribution with every gate exact.

    When the order divides the register size this is r/q**2 * M**2 at the
    multiples of q/r and zero elsewhere; otherwise the peaks broaden and
    the same direct summation covers it.
    """
    zeros = np.zeros(inst.support_count)
    return direct_spectrum(
        inst, zeros, method=SpectrumMethod.NOISELESS, model_label="none"
    )


def systematic_spectrum_closed_form(inst: ShorInstance, delta: float) -> Spectrum:
    """Closed-form readout distribution for a constant phase error delta.

    Evaluates (r/q**2) * sin(M*th)**2 / sin(th)**2 with
    th = pi*c*r/q + delta*r/2 at every c. The ratio has period pi in th,
    so th = pi*u with u = (c*r mod q)/q + delta*r/(2*pi) reduced to
    |u| <= 1/2. The integer c*r mod q is exact (c*r < 2**48), so near the
    peaks u carries only relative rounding, and sin(pi*u) vanishes only
    at u = 0, where the ratio is M.
    """
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
        model_label=f"systematic delta={delta!r}",
    )


def combined_spectrum(
    inst: ShorInstance, model: ErrorModel, seed: int
) -> Spectrum:
    """One realization of the readout distribution under an error model.

    Phase and amplitude errors are drawn once for the whole spectrum
    (quenched draws: a realization is one miscalibrated apparatus, not a
    per-shot fluctuation). Preparation weights enter when the model's
    init_delta is nonzero.
    """
    m = inst.support_count
    phase = sample_phase_errors(model, m, seed)
    amp = sample_amplitude_errors(model, m, seed)
    weights = None
    if model.init_delta != 0.0:
        weights = init_error_weights(inst.n_qubits, model.init_delta)
    return direct_spectrum(
        inst,
        phase,
        amp,
        weights,
        method=SpectrumMethod.DIRECT_SUM,
        model_label=model.mode.value,
        realization_seed=seed,
    )


def model_spectrum(inst: ShorInstance, model: ErrorModel, seed: int) -> Spectrum:
    """The effective-model readout distribution by the route exact for the model.

    Exact gates without preparation error give the noiseless spectrum, a
    systematic phase error with neither amplitude nor preparation error
    gives the closed form, and every other model gives one direct-sum
    realization drawn from seed.
    """
    if model.mode is ErrorMode.NONE and model.init_delta == 0.0:
        return noiseless_spectrum(inst)
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
    """key=value metadata block describing how a spectrum was produced."""
    inst = spec.instance
    shown_seed = seed if seed is not None else spec.realization_seed
    lines = [
        f"method={spec.method.value}",
        f"q={inst.register_size}",
        f"r={inst.order}",
        f"l={inst.offset}",
        f"model={spec.model_label}",
        f"seed={shown_seed if shown_seed is not None else 'none'}",
        f"normalized={str(spec.normalized).lower()}",
    ]
    if inst.synthetic:
        lines.append("synthetic=true")
    if not inst.full_period_support:
        lines.append(f"support_count={inst.support_count}")
    return "\n".join(lines) + "\n"


def write_spectrum_csv(spec: Spectrum, path: str | Path) -> None:
    """Write `c,probability` rows with 12 significant digits after the header."""
    lines = ["c,probability"]
    for c, value in enumerate(map(float, spec.values)):
        lines.append(f"{c},{value:.12e}")
    Path(path).write_text("\n".join(lines) + "\n")
