"""Ensembles, peak reports, recovery success, threshold sweeps, factoring."""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import DEFAULT_ETA
from .errmodel import ErrorMode, ErrorModel, Xorshift64Star, derive_stream_seed
from .errmodel import sample_realizations
from .numth import DEFAULT_MULTIPLIER_BOUND, ShorInstance, find_order, recover_orders
from .numth import _LOCKSTEP_LANES, UsageError, _check_recovery_inputs, _recovery_hits
from .qcircuit import circuit_spectrum, outcome_cdf, sample_outcomes
from .spectrum import Spectrum, SpectrumMethod, period_values, register_values
from .spectrum import _check_probabilities, _period_plan

_HEIGHT_FLOOR_FRACTION = 0.1
# Bytes of uniform draws per error stream that a chunk of realizations
# holds at once. At 256 KiB the standalone peak RSS of the benchmark's
# ensembles stays within 0.2 MiB of drawing one realization at a time.
_CHUNK_BYTES = 1 << 18
# numpy's pairwise float sum adds runs of up to 128 values in its leaves.
_PAIRWISE_LEAF = 128
# The ErrorModel field that a threshold sweep sets to each magnitude.
SWEPT_FIELD = {
    ErrorMode.SYSTEMATIC: "delta0",
    ErrorMode.UNIFORM: "s_max",
    ErrorMode.GAUSSIAN: "sigma0",
}


@dataclass(frozen=True)
class PeakReport:
    """Local maxima of a spectrum matched against the ideal peak grid.

    peaks holds (position, height) pairs sorted by position. shifts gives,
    per peak, its signed cyclic distance from the nearest ideal point
    k*q/r, k = 0 .. r-1, rounded to a whole number of register values;
    a tie goes to the lower k.
    """

    peaks: list[tuple[int, float]]
    shifts: list[int]

    def positions(self) -> list[int]:
        return [position for position, _ in self.peaks]


def peak_report(spec: Spectrum) -> PeakReport:
    """Find cyclic local maxima above a height floor and their shifts.

    A position qualifies when it is at least as high as both cyclic
    neighbors, strictly higher than at least one of them, and reaches a
    tenth of the global maximum. A flat spectrum therefore yields an
    empty peak list. The shifts are found in exact integers.
    """
    values = spec.values
    floor = _HEIGHT_FLOOR_FRACTION * float(np.max(values))
    # Only values at or above the floor are compared with their neighbors.
    candidates = np.flatnonzero(values >= floor)
    heights = values[candidates]
    left = values[candidates - 1]  # -1 indexes the last value
    right = values.take(candidates + 1, mode="wrap")
    is_peak = (
        (heights >= left) & (heights >= right) & ((heights > left) | (heights > right))
    )
    positions = candidates[is_peak]
    peaks = list(zip(positions.tolist(), heights[is_peak].tolist()))
    q = spec.register_size
    r = spec.instance.order
    # Peak p lies rest/r above point k and (q - rest)/r below point k + 1,
    # which is point 0 past the last; p*r < 2**48, so this is exact. A tie
    # goes to the lower index; with r = 1 both are point 0, at +q/2.
    k, rest = np.divmod(positions * r, q)
    upper = (2 * rest > q) | ((2 * rest == q) & (k == r - 1) & (r > 1))
    # q is a power of two, so 2**v2(r) divides rest and chosen/r is never
    # a half-integer: its rounding cannot go either way.
    chosen = np.where(upper, rest - q, rest)
    shifts = np.rint(chosen / r).astype(int).tolist()
    return PeakReport(peaks=peaks, shifts=shifts)


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
    """
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
    and the result does not depend on the chunk size. Sums run at the q'
    distinct points, mean and std are formed there, and both are mapped
    onto the register once. The variance is mean(D**2) - mean(D)**2 over
    deviations D = P - P_0 from the first realization, which are as small
    as the spread, so it does not cancel away as in E[P**2] - E[P]**2.
    A deterministic model takes n_realizations=1, since every draw would
    repeat the first.

    Returns:
        (mean spectrum, population standard deviation per register value).
    """
    if n_realizations < 1:
        raise UsageError(f"n_realizations must be >= 1, got {n_realizations}")
    if model.deterministic and n_realizations > 1:
        raise UsageError("the model is deterministic; need n_realizations=1")
    period = inst.register_size // math.gcd(inst.order, inst.register_size)
    total = np.zeros(period)
    dev = np.zeros(period)
    dev_sq = np.zeros(period)
    realizations = _realizations(inst, model, n_realizations, master_seed)
    first = next(realizations)
    total += first
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan in the sums
        for values in realizations:
            total += values
            values -= first
            dev += values
            dev_sq += np.square(values, out=values)
            del values  # freed before the next realization is computed
    if not (np.isfinite(total.max()) and np.isfinite(dev_sq.max())):
        raise ValueError("the realizations' probabilities or their squares overflow")
    # In place: mean = total / n, std = sqrt(max(dev_sq / n - (dev / n)**2, 0)).
    total /= n_realizations
    dev /= n_realizations
    dev_sq /= n_realizations
    dev_sq -= np.square(dev, out=dev)
    np.maximum(dev_sq, 0.0, out=dev_sq)
    np.sqrt(dev_sq, out=dev_sq)
    mean_spec = Spectrum(
        values=register_values(inst, total),
        method=SpectrumMethod.DIRECT_SUM,
        instance=inst,
        model=model,
    )
    return mean_spec, register_values(inst, dev_sq)


def _check_recovery(inst: ShorInstance, multiplier_bound: int, caller: str) -> None:
    """Raise UsageError unless inst carries (modulus, base) and the bound is valid."""
    if inst.modulus is None:
        raise UsageError(f"{caller} needs an instance with modulus and base")
    _check_recovery_inputs(multiplier_bound)


@lru_cache(maxsize=32)
def _recovery_mask(
    q: int, modulus: int, base: int, order: int, multiplier_bound: int
) -> bytes:
    """Per outcome c in range(q), one byte: 1 if recovery from c gives order.

    Ones at `numth._recovery_hits` (all for None) if order is r, else zeros;
    a cached bytes copy kept only for perfbench/.
    """
    hits = _recovery_hits(q, modulus, base, multiplier_bound)
    mask = np.zeros(q, dtype=bool)
    if order == find_order(base, modulus):
        mask[slice(None) if hits is None else hits] = True
    return mask.tobytes()


def _hit_share(head: np.ndarray, hits: np.ndarray | None, q: int) -> float:
    """The share of P's register total on the hits, as summed over q values.

    head is P_c for c < q' = len(head), already checked, P repeating with
    period q' (q' = q for any register spectrum). hits, from
    `numth._recovery_hits`, lie at hits % q' in head; None gives exactly 1.
    numpy's pairwise sum doubles up from leaves of up to 128 values, so
    q/n0 blocks of n0 = min(q, max(q', 128)) sum to q/n0 times one, exactly.
    """
    tiles = min(q, max(len(head), _PAIRWISE_LEAF)) // len(head)
    block = head if tiles == 1 else np.tile(head, tiles)  # no copy of a register
    total = q / len(block) * np.sum(block)
    if total <= 0.0:
        raise ValueError("cannot normalize an all-zero spectrum")
    if hits is None:
        return 1.0
    return float(np.sum(head[hits % len(head)] / total))


def success_probability(
    spec: Spectrum,
    multiplier_bound: int = DEFAULT_MULTIPLIER_BOUND,
) -> float:
    """Probability mass on register values whose recovery yields the order.

    Outcome c counts when `numth.recover_orders` recovers the order r
    from it. A multiplier_bound >= r gives success exactly 1;
    multiplier_bound=1 demands the convergent denominator r. `_hit_share`
    sums over the whole register at the cached `numth._recovery_hits`, so
    any spectrum, a circuit's included, may be passed.

    The spectrum is normalized internally, so relative spectra are fine.
    The instance must carry (modulus, base) for recovery to be defined.
    """
    inst = spec.instance
    _check_recovery(inst, multiplier_bound, "success_probability")
    q = inst.register_size
    hits = _recovery_hits(q, inst.modulus, inst.base, multiplier_bound)
    return _hit_share(spec.values, hits, q)


@dataclass(frozen=True)
class SweepResult:
    """Success probability versus error magnitude, with the threshold.

    threshold is the last magnitude of the leading run whose success
    stays at or above eta * baseline, that is, the magnitude just before
    recovery first breaks down. Later magnitudes that pass again (a
    systematic error that shifts peaks by whole grid spacings revives
    recovery) do not count. It is None when the baseline itself is zero
    or the first magnitude already fails. model is the base model swept.
    """

    model: ErrorModel
    magnitudes: list[float]
    success_probs: list[float]
    baseline: float
    threshold: float | None
    eta: float
    n_realizations: int


def threshold_sweep(
    inst: ShorInstance,
    model: ErrorModel,
    magnitudes: Sequence[float],
    n_realizations: int = 1,
    eta: float = DEFAULT_ETA,
    master_seed: int = 42,
    multiplier_bound: int = DEFAULT_MULTIPLIER_BOUND,
) -> SweepResult:
    """Sweep model's width and report where recovery first breaks down.

    Each point runs on model with its SWEPT_FIELD, zero in model, set to
    the magnitude; the other fields stay, so a random mode with a delta0
    sweeps combined errors. The success probability is averaged over
    n_realizations quenched realizations with seeds derived from
    (master_seed, magnitude index, realization index). A systematic
    sweep is deterministic and takes n_realizations=1; a random one runs
    magnitude 0.0 once. The baseline is `success_probability`, on the
    register, of model itself, with its delta0, amplitude errors and
    init_delta, and every magnitude of 0.0 reuses it. Every other
    realization's `spectrum.period_values`, checked once, give its success
    by `_hit_share`, the register sum bit for bit. magnitudes may be any
    sequence; each, and eta, is taken as a Python float.
    """
    _check_recovery(inst, multiplier_bound, "threshold_sweep")
    magnitudes, eta = [float(magnitude) for magnitude in magnitudes], float(eta)
    if not magnitudes:
        raise UsageError("magnitudes must be nonempty")
    if not all(0.0 <= m < math.inf for m in magnitudes):
        raise UsageError("magnitudes must be finite and >= 0")
    if sorted(magnitudes) != magnitudes:
        raise UsageError("magnitudes must be ascending")
    if not 0.0 < eta <= 1.0:
        raise UsageError(f"eta must be in (0, 1], got {eta}")
    if n_realizations < 1:
        raise UsageError(f"n_realizations must be >= 1, got {n_realizations}")
    field = SWEPT_FIELD.get(model.mode)
    if field is None:
        raise UsageError("a sweep needs a systematic, uniform, or gaussian model")
    if getattr(model, field) != 0.0:
        raise UsageError(
            f"a {model.mode.value} sweep sets {field} itself; need a systematic, "
            "uniform, or gaussian model of width 0"
        )
    if model.mode is ErrorMode.SYSTEMATIC and n_realizations > 1:
        raise UsageError("a systematic sweep is deterministic; need n_realizations=1")

    # model has zero width, so it is deterministic: the seed cannot matter.
    (zero_error,) = _realizations(inst, model, 1, master_seed)
    zero = Spectrum(register_values(inst, zero_error), SpectrumMethod.DIRECT_SUM, inst)
    baseline = success_probability(zero, multiplier_bound)
    del zero, zero_error  # a register of P and its q' values, freed before the points
    q = inst.register_size
    _, _, plan = _period_plan(q, inst.order, inst.support_count)
    hits = _recovery_hits(q, inst.modulus, inst.base, multiplier_bound)

    def mean_success(magnitude: float, magnitude_index: int) -> float:
        point = replace(model, **{field: magnitude})
        magnitude_seed = derive_stream_seed(master_seed, magnitude_index)
        acc = 0.0
        for values in _realizations(inst, point, n_realizations, magnitude_seed):
            _check_probabilities(values)
            acc += _hit_share(values[plan], hits, q)
            del values  # freed before the next realization is computed
        return acc / n_realizations

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
        model=model,
        magnitudes=magnitudes,
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
    _check_recovery(inst, multiplier_bound, "factor")
    if shots < 1:
        raise UsageError(f"shots must be >= 1, got {shots}")
    q, modulus, base = inst.register_size, inst.modulus, inst.base
    cdf = outcome_cdf(circuit_spectrum(inst, model, seed).values)
    rng = Xorshift64Star(derive_stream_seed(seed, 0))
    for start in range(0, shots, _LOCKSTEP_LANES):
        block = min(shots - start, _LOCKSTEP_LANES)
        outcomes = sample_outcomes(cdf, block, rng)
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
