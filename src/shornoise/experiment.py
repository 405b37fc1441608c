"""Ensembles, peak reports, recovery success, threshold sweeps, factoring."""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errmodel import ErrorMode, ErrorModel, Xorshift64Star, derive_stream_seed
from .errmodel import sample_realizations
from .numth import DEFAULT_MULTIPLIER_BOUND, ShorInstance, find_order, recover_orders
from .numth import _LOCKSTEP_LANES, _check_recovery_inputs
from .qcircuit import circuit_spectrum, sample_outcomes
from .spectrum import Spectrum, SpectrumMethod, period_values, register_values
from .spectrum import _check_probabilities, _period_plan

DEFAULT_HEIGHT_FLOOR_FRACTION = 0.1
DEFAULT_ETA = 0.5
# Bytes of uniform draws per error stream that a chunk of realizations
# holds at once. At 256 KiB the standalone peak RSS of the benchmark's
# ensembles stays within 0.2 MiB of drawing one realization at a time.
_CHUNK_BYTES = 1 << 18
# numpy's pairwise float sum adds runs of up to 128 values in its leaves.
_PAIRWISE_LEAF = 128


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
    # Only values at or above the floor are compared with their neighbors.
    candidates = np.flatnonzero(values >= floor)
    heights = values[candidates]
    left = values[candidates - 1]  # -1 indexes the last value
    right = values.take(candidates + 1, mode="wrap")
    is_peak = (
        (heights >= left) & (heights >= right) & ((heights > left) | (heights > right))
    )
    positions = candidates[is_peak]
    references = reference_positions(spec.instance)
    size = spec.register_size
    order = spec.instance.order
    peaks = list(zip(positions.tolist(), heights[is_peak].tolist()))
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
) -> Iterator[np.ndarray]:
    """Quenched realizations i = 0 .. count-1, in index order, at the period.

    Realization i draws from the seed derived from (master_seed, i) and
    comes as P at the q' distinct points (`spectrum.period_values`).
    Chunks of consecutive realizations draw their errors together
    (`errmodel.sample_realizations`): as many as fit _CHUNK_BYTES per
    error stream at 16 bytes per support point, two uniforms of 8 bytes
    for each error. Each realization is still transformed alone.
    Deterministic models yield a single realization since every draw
    would repeat it.
    """
    count = 1 if model.deterministic else count
    chunk = max(1, _CHUNK_BYTES // (16 * inst.support_count))
    for start in range(0, count, chunk):
        stop = min(count, start + chunk)
        seeds = [derive_stream_seed(master_seed, i) for i in range(start, stop)]
        for phase, amp in sample_realizations(model, inst.support_count, seeds):
            yield period_values(inst, phase, amp, model.init_delta)


def ensemble_spectrum(
    inst: ShorInstance,
    model: ErrorModel,
    n_realizations: int,
    master_seed: int,
) -> tuple[Spectrum, np.ndarray]:
    """Mean spectrum over quenched realizations, plus the per-c std dev.

    Realization i draws from the seed derived from (master_seed, i);
    chunks of consecutive realizations draw their errors together, and
    accumulation runs in fixed index order, so reruns are bit-identical
    and the result does not depend on the chunk size. Realizations and
    their squares are summed at the q' distinct points, mean and std are
    formed there, and both are mapped onto the register once.
    Deterministic models collapse to a single realization since every
    draw would repeat it.

    Returns:
        (mean spectrum, population standard deviation per register value).
    """
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    period = inst.register_size // math.gcd(inst.order, inst.register_size)
    total = np.zeros(period)
    total_sq = np.zeros(period)
    square = np.empty(period)
    realizations = _realizations(inst, model, n_realizations, master_seed)
    for effective, values in enumerate(realizations, start=1):
        total += values
        total_sq += np.square(values, out=square)
    # In place: mean = total / n, std = sqrt(max(total_sq / n - mean**2, 0)).
    total /= effective
    total_sq /= effective
    total_sq -= np.square(total, out=square)
    np.maximum(total_sq, 0.0, out=total_sq)
    np.sqrt(total_sq, out=total_sq)
    mean_spec = Spectrum(
        values=register_values(inst, total),
        method=SpectrumMethod.DIRECT_SUM,
        instance=inst,
        model=model,
    )
    return mean_spec, register_values(inst, total_sq)


@lru_cache(maxsize=32)
def _recovery_hits(
    q: int, modulus: int, base: int, order: int, multiplier_bound: int
) -> np.ndarray:
    """The outcomes c in range(q) from which `recover_orders` gives order.

    Sorted, read-only int32. order comes from a convergent p/d of c/q with
    d dividing order and d * multiplier_bound >= r, the true order, and
    |c/q - p/d| < 1/d**2 (Legendre). So only c within q/d**2 + 1 of
    floor(p*q/d), p = 0 .. d, are expanded. Any bound >= r lets d = 1,
    always a convergent denominator, give r from every c, unexpanded.
    """
    _check_recovery_inputs(modulus, base, multiplier_bound)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    r = find_order(base, modulus)
    if multiplier_bound >= r:
        hits = np.arange(q if order == r else 0, dtype=np.int32)
    else:
        small = [k for k in range(1, math.isqrt(order) + 1) if order % k == 0]
        near = np.zeros(q, dtype=bool)
        for d in {*small, *(order // k for k in small)}:
            if d * multiplier_bound >= r:
                half = q // (d * d) + 1
                for p in range(d + 1):
                    center = p * q // d
                    near[max(0, center - half) : center + half + 1] = True
        candidates = np.flatnonzero(near).astype(np.int32)
        orders = recover_orders(candidates, q, modulus, base, multiplier_bound)
        hits = candidates[orders == order]
    hits.flags.writeable = False
    return hits


@lru_cache(maxsize=32)
def _recovery_mask(
    q: int, modulus: int, base: int, order: int, multiplier_bound: int
) -> bytes:
    """Per outcome c in range(q), one byte: 1 if c is in `_recovery_hits`.

    The mask is immutable bytes, so the cached value can be viewed as a
    bool array without a copy.
    """
    mask = np.zeros(q, dtype=bool)
    mask[_recovery_hits(q, modulus, base, order, multiplier_bound)] = True
    return mask.tobytes()


def success_probability(
    spec: Spectrum,
    multiplier_bound: int = DEFAULT_MULTIPLIER_BOUND,
) -> float:
    """Probability mass on register values whose recovery yields the order.

    Outcome c counts when `numth.recover_orders` recovers the order r
    from it. A multiplier_bound >= r gives success 1.0 whatever the
    spectrum; multiplier_bound=1 demands the convergent denominator r.
    The sum runs over the whole register, so any spectrum, a circuit's
    included, may be passed.

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
    realization index). A systematic sweep is deterministic and takes
    n_realizations=1; a random one runs magnitude 0.0 once. The baseline
    is `success_probability` at zero error, on the register, and every
    magnitude of 0.0 reuses it. Every other realization's success is
    taken at the period: its P at the `_recovery_hits` is gathered from
    `spectrum.period_values` at c mod q', and its total is that of
    q/n0 identical blocks of n0 = min(q, max(q', 128)) values, which
    numpy's pairwise sum adds by exact doublings. So each point equals
    the register sum bit for bit.
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
    if mode is ErrorMode.SYSTEMATIC and n_realizations > 1:
        raise ValueError("a systematic sweep is deterministic; need n_realizations=1")

    # Zero error is deterministic, so the seed cannot matter.
    (zero_error,) = _realizations(inst, _model_at_magnitude(mode, 0.0), 1, master_seed)
    zero = Spectrum(register_values(inst, zero_error), SpectrumMethod.DIRECT_SUM, inst)
    baseline = success_probability(zero, multiplier_bound)
    q = inst.register_size
    _, _, plan = _period_plan(q, inst.order, inst.support_count)
    blocks = min(q, max(len(plan), _PAIRWISE_LEAF))
    scale, tiles = q / blocks, blocks // len(plan)
    hits = _recovery_hits(q, inst.modulus, inst.base, inst.order, multiplier_bound)
    at = None if len(hits) == q else hits % len(plan)

    def success_at_period(values: np.ndarray) -> float:
        head = values[plan]  # P_c for c < q'
        _check_probabilities(head)
        total = scale * np.sum(np.tile(head, tiles))
        if total <= 0.0:
            raise ValueError("cannot normalize an all-zero spectrum")
        if at is None:  # every c hits
            return float(scale * np.sum(np.tile(head / total, tiles)))
        return float(np.sum(head[at] / total))

    def mean_success(magnitude: float, magnitude_index: int) -> float:
        model = _model_at_magnitude(mode, magnitude)
        magnitude_seed = derive_stream_seed(master_seed, magnitude_index)
        acc = 0.0
        realizations = _realizations(inst, model, n_realizations, magnitude_seed)
        for effective, values in enumerate(realizations, start=1):
            acc += success_at_period(values)
        return acc / effective

    success_probs = [
        baseline if magnitude == 0.0 else mean_success(magnitude, index)
        for index, magnitude in enumerate(magnitudes)
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
    Shots are drawn and recovered in blocks of _LOCKSTEP_LANES, which read
    the stream in order, so any shot count fits in memory.
    """
    if inst.modulus is None or inst.base is None:
        raise ValueError("factor needs an instance with modulus and base")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    q, modulus, base = inst.register_size, inst.modulus, inst.base
    probabilities = circuit_spectrum(inst, model, seed).values
    rng = Xorshift64Star(derive_stream_seed(seed, 0))
    for start in range(0, shots, _LOCKSTEP_LANES):
        block = min(shots - start, _LOCKSTEP_LANES)
        outcomes = sample_outcomes(probabilities, block, rng)
        orders = recover_orders(outcomes, q, modulus, base, multiplier_bound)
        # Whether a shot splits N depends only on its order, so each distinct
        # order is checked once, in the order of its first shot.
        for order in dict.fromkeys(orders.tolist()):
            if order == 0 or order % 2 == 1:
                continue
            half = pow(base, order // 2, modulus)
            if half == modulus - 1:
                continue
            pair = (math.gcd(half - 1, modulus), math.gcd(half + 1, modulus))
            factors = sorted({f for f in pair if 1 < f < modulus})
            if factors:
                return order, factors
    return None
