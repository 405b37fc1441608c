"""Ensembles, peak reports, recovery success, threshold sweeps, factoring."""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errmodel import ErrorMode, ErrorModel, Xorshift64Star, derive_stream_seed
from .numth import (
    DEFAULT_MULTIPLIER_BOUND,
    ShorInstance,
    _check_recovery_inputs,
    find_order,
    recover_order,
)
from .qcircuit import circuit_spectrum, sample_outcomes
from .spectrum import Spectrum, SpectrumMethod, combined_spectrum

DEFAULT_HEIGHT_FLOOR_FRACTION = 0.1
DEFAULT_ETA = 0.5


@dataclass(frozen=True)
class PeakReport:
    """Local maxima of a spectrum matched against the ideal peak grid.

    peaks holds (position, height) pairs sorted by position;
    reference_positions is the ideal grid k*q/r for k = 0 .. r-1; shifts
    gives, per peak, the signed cyclic distance to its nearest reference.
    """

    peaks: list[tuple[int, float]]
    reference_positions: list[float]
    shifts: list[int]

    def positions(self) -> list[int]:
        return [position for position, _ in self.peaks]


def _cyclic_shift(positions: np.ndarray, refs: np.ndarray, size: int) -> np.ndarray:
    raw = np.remainder(positions - refs, size)
    return np.where(raw > size / 2, raw - size, raw)


def reference_positions(inst: ShorInstance) -> list[float]:
    q = inst.register_size
    r = inst.order
    return [k * q / r for k in range(r)]


def peak_report(
    spec: Spectrum,
    height_floor_fraction: float = DEFAULT_HEIGHT_FLOOR_FRACTION,
) -> PeakReport:
    """Find cyclic local maxima above a height floor and their shifts.

    A position qualifies when it is at least as high as both cyclic
    neighbors, strictly higher than at least one of them, and reaches
    height_floor_fraction of the global maximum. A flat spectrum
    therefore yields an empty peak list.
    """
    if not 0.0 <= height_floor_fraction <= 1.0:
        raise ValueError("height_floor_fraction must be in [0, 1]")
    values = spec.values
    floor = height_floor_fraction * float(np.max(values))
    left = np.roll(values, 1)
    right = np.roll(values, -1)
    is_peak = (
        (values >= left)
        & (values >= right)
        & ((values > left) | (values > right))
        & (values >= floor)
    )
    positions = np.nonzero(is_peak)[0]
    references = reference_positions(spec.instance)
    size = spec.register_size
    order = spec.instance.order
    peaks = list(zip(positions.tolist(), values[positions].tolist()))
    # The nearest reference is one of the two that bracket the position;
    # a tie goes to the lower index.
    grid = np.array(references)
    low = positions * order // size
    high = (low + 1) % order
    below = _cyclic_shift(positions, grid[low], size)
    above = _cyclic_shift(positions, grid[high], size)
    nearer = np.abs(above) - np.abs(below)
    take_above = (nearer < 0.0) | ((nearer == 0.0) & (high < low))
    shifts = np.rint(np.where(take_above, above, below)).astype(int).tolist()
    return PeakReport(peaks=peaks, reference_positions=references, shifts=shifts)


def _realizations(
    inst: ShorInstance, model: ErrorModel, count: int, master_seed: int
) -> Iterator[Spectrum]:
    """Quenched realizations i = 0 .. count-1, in index order.

    Realization i draws from the seed derived from (master_seed, i).
    Deterministic models yield a single realization since every draw
    would repeat it.
    """
    for i in range(1 if model.deterministic else count):
        yield combined_spectrum(inst, model, derive_stream_seed(master_seed, i))


def ensemble_spectrum(
    inst: ShorInstance,
    model: ErrorModel,
    n_realizations: int,
    master_seed: int,
) -> tuple[Spectrum, np.ndarray]:
    """Mean spectrum over quenched realizations, plus the per-c std dev.

    Realization i draws from the seed derived from (master_seed, i);
    accumulation runs in fixed index order so reruns are bit-identical.
    Deterministic models collapse to a single realization since every
    draw would repeat it.

    Returns:
        (mean spectrum, population standard deviation per register value).
    """
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    total = np.zeros(inst.register_size)
    total_sq = np.zeros(inst.register_size)
    square = np.empty(inst.register_size)
    realizations = _realizations(inst, model, n_realizations, master_seed)
    for effective, spec in enumerate(realizations, start=1):
        total += spec.values
        total_sq += np.square(spec.values, out=square)
    mean = total / effective
    variance = np.maximum(total_sq / effective - mean**2, 0.0)
    std = np.sqrt(variance)
    label = model.mode.value
    if effective != n_realizations:
        label += " (deterministic, collapsed to 1 realization)"
    mean_spec = Spectrum(
        values=mean,
        method=SpectrumMethod.DIRECT_SUM,
        instance=inst,
        model_label=label,
    )
    return mean_spec, std


@lru_cache(maxsize=32)
def _recovery_mask(
    q: int, modulus: int, base: int, order: int, multiplier_bound: int
) -> bytes:
    """Per outcome c in range(q), one byte: 1 if recover_order(c, ...) == order.

    recover_order returns the least candidate lam*d with base**(lam*d) == 1,
    that is, the least multiple of the true order r among them. Built on
    a convergent denominator d, that multiple is lcm(d, r), reachable when
    r/gcd(d, r) <= multiplier_bound; c succeeds when the least reachable
    lcm(d, r) over its denominators d < modulus equals order. For
    order == r this reads: some d divides r with r/d <= multiplier_bound.

    The continued-fraction expansion of c/q runs for all c in lockstep.
    A lane stops when its expansion ends or its denominator reaches
    modulus, since denominators never decrease. Every value stays at or
    below q <= 2**24, so the lanes are int32. The mask is immutable bytes,
    so the cached value can be viewed as a bool array without a copy.
    """
    _check_recovery_inputs(modulus, base, multiplier_bound)
    r = find_order(base, modulus)
    if order % r:
        return bytes(q)
    bound = min(multiplier_bound, r)
    # Per outcome, the least lcm(d, r) / r over the reachable d so far.
    least = np.full(q, np.iinfo(np.int32).max, dtype=np.int32)
    lane = np.arange(q, dtype=np.int32)
    num, den = lane.copy(), np.full(q, q, dtype=np.int32)
    k_prev, k = np.ones(q, dtype=np.int32), np.zeros(q, dtype=np.int32)
    while lane.size:
        a, rem = np.divmod(num, den)
        k_prev, k = k, a * k + k_prev
        below = k < modulus
        g = np.gcd(k, r)
        reachable = below & (r // g <= bound)
        at = lane[reachable]
        least[at] = np.minimum(least[at], k[reachable] // g[reachable])
        keep = below & (rem != 0)
        lane, num, den = lane[keep], den[keep], rem[keep]
        k_prev, k = k_prev[keep], k[keep]
    return (least == order // r).tobytes()


def success_probability(
    spec: Spectrum,
    multiplier_bound: int = DEFAULT_MULTIPLIER_BOUND,
) -> float:
    """Probability mass on register values whose recovery yields the order.

    Outcome c counts when recover_order(c, ...) returns the order r, that
    is, when some continued-fraction convergent denominator d < modulus
    of c/q satisfies d | r and r/d <= multiplier_bound. Since d = 1 always
    qualifies once multiplier_bound >= r, such a bound gives success 1.0
    whatever the spectrum; multiplier_bound=1 demands d == r.

    The spectrum is normalized internally, so relative spectra are fine.
    The instance must carry (modulus, base) for recovery to be defined.
    """
    inst = spec.instance
    if inst.modulus is None or inst.base is None:
        raise ValueError("success_probability needs an instance with modulus and base")
    mask = np.frombuffer(
        _recovery_mask(
            inst.register_size, inst.modulus, inst.base, inst.order, multiplier_bound
        ),
        dtype=bool,
    )
    # Dividing only the gathered entries gives normalize().values[mask] exactly.
    return float(np.sum(spec.values[mask] / spec.positive_total()))


@dataclass(frozen=True)
class SweepResult:
    """Success probability versus error magnitude, with the threshold.

    threshold is the last magnitude of the leading run whose success
    stays at or above eta * baseline, that is, the magnitude just before
    recovery first breaks down. Later magnitudes that pass again (a
    systematic error that shifts peaks by whole grid spacings revives
    recovery) do not count. It is None when the baseline itself is zero
    or the first magnitude already fails.
    """

    mode: ErrorMode
    magnitudes: list[float]
    success_probs: list[float]
    baseline: float
    threshold: float | None
    eta: float
    n_realizations: int


def _model_at_magnitude(mode: ErrorMode, magnitude: float) -> ErrorModel:
    if mode is ErrorMode.SYSTEMATIC:
        return ErrorModel(mode=mode, delta0=magnitude)
    if mode is ErrorMode.UNIFORM:
        return ErrorModel(mode=mode, s_max=magnitude)
    if mode is ErrorMode.GAUSSIAN:
        return ErrorModel(mode=mode, sigma0=magnitude)
    raise ValueError("threshold sweeps need a systematic, uniform, or gaussian mode")


def threshold_sweep(
    inst: ShorInstance,
    mode: ErrorMode,
    magnitudes: list[float],
    n_realizations: int = 1,
    eta: float = DEFAULT_ETA,
    master_seed: int = 42,
    multiplier_bound: int = DEFAULT_MULTIPLIER_BOUND,
) -> SweepResult:
    """Sweep the error magnitude and report where recovery first breaks down.

    For each magnitude the mode's width parameter is set to it
    (systematic: delta0, uniform: s_max, gaussian: sigma0) and the
    success probability is averaged over n_realizations quenched
    realizations with seeds derived from (master_seed, magnitude index,
    realization index). Deterministic modes use one realization per
    magnitude regardless of n_realizations. The baseline is the success
    probability at zero error, computed through the same path, so a
    leading magnitude of 0.0 reproduces it exactly.
    """
    if not magnitudes:
        raise ValueError("magnitudes must be nonempty")
    if any(m < 0 for m in magnitudes):
        raise ValueError("magnitudes must be nonnegative")
    if sorted(magnitudes) != list(magnitudes):
        raise ValueError("magnitudes must be ascending")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")

    def mean_success(magnitude: float, magnitude_index: int) -> float:
        model = _model_at_magnitude(mode, magnitude)
        count = 1 if magnitude == 0.0 else n_realizations
        magnitude_seed = derive_stream_seed(master_seed, magnitude_index)
        acc = 0.0
        realizations = _realizations(inst, model, count, magnitude_seed)
        for effective, spec in enumerate(realizations, start=1):
            acc += success_probability(spec, multiplier_bound)
        return acc / effective

    # Zero error is deterministic, so the magnitude index cannot matter.
    baseline = mean_success(0.0, 0)
    success_probs = [
        mean_success(magnitude, index) for index, magnitude in enumerate(magnitudes)
    ]
    threshold = None
    if baseline != 0.0:
        for magnitude, success in zip(magnitudes, success_probs):
            if success < eta * baseline:
                break
            threshold = magnitude
    return SweepResult(
        mode=mode,
        magnitudes=list(magnitudes),
        success_probs=success_probs,
        baseline=baseline,
        threshold=threshold,
        eta=eta,
        n_realizations=n_realizations,
    )


def write_sweep_csv(result: SweepResult, path: str | Path) -> None:
    """Write magnitude,success rows plus a footer with the threshold."""
    lines = ["magnitude,success_probability"]
    for magnitude, success in zip(result.magnitudes, result.success_probs):
        lines.append(f"{magnitude:.12e},{success:.12e}")
    threshold = "none" if result.threshold is None else f"{result.threshold:.12e}"
    lines.append(
        f"# threshold={threshold} eta={result.eta!r} baseline={result.baseline:.12e}"
    )
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def factor(
    inst: ShorInstance,
    model: ErrorModel,
    seed: int,
    shots: int,
    multiplier_bound: int = DEFAULT_MULTIPLIER_BOUND,
) -> tuple[int, list[int]] | None:
    """Run the whole pipeline: one noisy circuit, shots, order, factors.

    Runs the circuit with the gate errors drawn from seed, samples shots
    outcomes from the stream derived from (seed, 0), and takes them in
    order. The first outcome whose recovered order r is even, with
    base**(r/2) != -1 mod modulus and a nontrivial divisor among
    gcd(base**(r/2) -+ 1, modulus), gives (r, sorted divisors). Returns
    None when no outcome does, so the caller should retry with a new base.
    """
    if inst.modulus is None or inst.base is None:
        raise ValueError("factor needs an instance with modulus and base")
    q, modulus, base = inst.register_size, inst.modulus, inst.base
    probabilities = circuit_spectrum(inst, model, seed).values
    rng = Xorshift64Star(derive_stream_seed(seed, 0))
    for c in sample_outcomes(probabilities, shots, rng):
        order = recover_order(int(c), q, modulus, base, multiplier_bound)
        if order is None or order % 2 == 1:
            continue
        half = pow(base, order // 2, modulus)
        if half == modulus - 1:
            continue
        pair = (math.gcd(half - 1, modulus), math.gcd(half + 1, modulus))
        factors = sorted({f for f in pair if 1 < f < modulus})
        if factors:
            return order, factors
    return None
