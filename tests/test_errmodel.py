"""Tests for the deterministic PRNG and the gate-error sampling models."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prng_oracle import amplitude_errors, gaussian, phase_errors, uniform01

from shornoise.errmodel import (
    _AMPLITUDE_STREAM_SALT,
    _LANES,
    _PHASE_STREAM_SALT,
    ErrorMode,
    ErrorModel,
    Xorshift64Star,
    _sample,
    _substream,
    _uniform01_rows,
    derive_stream_seed,
    sample_realizations,
)
from shornoise.numth import UsageError


class TestXorshift64Star:
    def test_first_outputs_from_seed_one(self) -> None:
        rng = Xorshift64Star(1)
        assert rng.next_u64() == 5180492295206395165
        assert rng.next_u64() == 12380297144915551517

    def test_first_uniform_from_seed_one(self) -> None:
        rng = Xorshift64Star(1)
        assert uniform01(rng) == 0.28083505005035947

    def test_uniform_is_top_53_bits(self) -> None:
        for seed in (1, 7, 42, 2**63):
            a = Xorshift64Star(seed)
            b = Xorshift64Star(seed)
            assert uniform01(a) == (b.next_u64() >> 11) * 2.0**-53

    def test_zero_seed_is_remapped(self) -> None:
        zero = Xorshift64Star(0)
        outputs = [zero.next_u64() for _ in range(16)]
        assert all(x != 0 for x in outputs)
        # The remap is a fixed nonzero state, so the stream is reproducible.
        again = Xorshift64Star(0)
        assert [again.next_u64() for _ in range(16)] == outputs

    def test_seed_is_reduced_modulo_word_size(self) -> None:
        assert Xorshift64Star(-1).next_u64() == Xorshift64Star(2**64 - 1).next_u64()
        assert Xorshift64Star(2**70).next_u64() == Xorshift64Star(0).next_u64()

    def test_uniform_range_and_mean(self) -> None:
        rng = Xorshift64Star(2024)
        draws = np.array([uniform01(rng) for _ in range(100_000)])
        assert np.all(draws >= 0.0)
        assert np.all(draws < 1.0)
        assert 0.497 < draws.mean() < 0.503

    def test_gaussian_moments(self) -> None:
        rng = Xorshift64Star(99)
        draws = np.array([gaussian(rng) for _ in range(100_000)])
        assert abs(draws.mean()) < 0.02
        assert 0.97 < draws.var() < 1.03

    def test_gaussian_has_three_sigma_tail(self) -> None:
        rng = Xorshift64Star(5)
        hits = 0
        for _ in range(1_000_000):
            if abs(gaussian(rng)) > 3.0:
                hits += 1
        # Expected count is about 2700; demand at least one event.
        assert hits >= 1

    def test_streams_with_different_seeds_differ(self) -> None:
        a = Xorshift64Star(1)
        b = Xorshift64Star(2)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


class TestUniformArray:
    """The lane-stepped batch against the scalar stream it replaces."""

    @settings(max_examples=60)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        n=st.integers(min_value=1, max_value=3 * _LANES + 1).filter(
            lambda n: n % _LANES != 0
        ),
    )
    @example(seed=0, n=1)
    @example(seed=2**64 - 1, n=3 * _LANES + 1)
    @example(seed=0, n=_LANES + 1)
    def test_equals_scalar_draws_and_state(self, seed: int, n: int) -> None:
        batch = Xorshift64Star(seed)
        scalar = Xorshift64Star(seed)
        expected = [uniform01(scalar) for _ in range(n)]
        assert batch.uniform01_array(n).tolist() == expected
        assert batch.state == scalar.state

    def test_rejects_empty_request(self) -> None:
        with pytest.raises(ValueError):
            Xorshift64Star(1).uniform01_array(0)

    @settings(max_examples=60)
    @given(
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
        n=st.integers(min_value=1, max_value=3 * _LANES + 1),
    )
    @example(seeds=[0], n=1)
    @example(seeds=[1, 2, 3, 4, 5], n=_LANES)
    @example(seeds=[0, 2**64 - 1], n=_LANES + 1)
    @example(seeds=[7, 7, 8], n=2 * _LANES - 1)
    def test_rows_equal_scalar_streams_and_states(self, seeds, n: int) -> None:
        rngs = [Xorshift64Star(seed) for seed in seeds]
        block = _uniform01_rows(rngs, n)
        assert block.shape == (len(seeds), n)
        for row, rng, seed in zip(block, rngs, seeds):
            scalar = Xorshift64Star(seed)
            assert row.tolist() == [uniform01(scalar) for _ in range(n)]
            assert rng.state == scalar.state


def one_realization(
    model: ErrorModel, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Phase and amplitude errors of the realization drawn from seed."""
    ((phase, amp),) = sample_realizations(model, count, [seed])
    return phase, amp


class TestSamplerMatchesScalarOracle:
    @pytest.mark.parametrize("count", [1, 2, 255, 3277])
    def test_uniform(self, count: int) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, delta0=0.013, s_max=0.37)
        expected = phase_errors(model, count, 5).tolist()
        assert one_realization(model, count, 5)[0].tolist() == expected

    @pytest.mark.parametrize("count", [1, 2, 255, 3277])
    def test_gaussian(self, count: int) -> None:
        model = ErrorModel(ErrorMode.GAUSSIAN, delta0=-0.02, sigma0=0.7)
        expected = phase_errors(model, count, 5).tolist()
        assert one_realization(model, count, 5)[0].tolist() == expected

    def test_gaussian_many_draws(self) -> None:
        # Enough logarithms that a vectorized log differing from the C
        # library in the last bit (about 0.4% of inputs on some hosts)
        # shows up.
        model = ErrorModel(ErrorMode.GAUSSIAN, sigma0=1.0)
        expected = phase_errors(model, 20_000, 1234).tolist()
        assert one_realization(model, 20_000, 1234)[0].tolist() == expected

    def test_gaussian_cosines_match_the_c_library(self) -> None:
        # Box-Muller takes its cosines from np.cos and its logarithms from
        # np.log, which must equal math.cos and math.log exactly: enough
        # draws that a numpy whose float64 cosine or logarithm is
        # vectorized, and so can differ in the last bit, fails.
        # Four rows of 250,000 draws, so the in-place column is strided.
        model = ErrorModel(ErrorMode.GAUSSIAN, sigma0=1.0)
        count, seeds = 250_000, [21, 22, 23, 24]
        draws = sample_realizations(model, count, seeds)
        for (row, _), seed in zip(draws, seeds):
            pairs = _substream(seed, _PHASE_STREAM_SALT).uniform01_array(2 * count)
            radial = (1.0 - pairs[0::2]).tolist()
            angle = (2.0 * math.pi * pairs[1::2]).tolist()
            expected = [
                math.sqrt(-2.0 * math.log(u1)) * math.cos(theta)
                for u1, theta in zip(radial, angle)
            ]
            assert row.tolist() == expected

    @pytest.mark.parametrize("chunk", [1, 5])
    @pytest.mark.parametrize("count", [1, 2])
    def test_gaussian_short_rows_take_the_c_library_log(self, chunk, count) -> None:
        # The 1M-draw test above only has long rows. Here each seed's first
        # radial input 1 - u is, where this host's numpy has one, a value
        # on which a contiguous np.log differs from math.log. Where none
        # differs the seeds are still sampled and compared.
        seeds = list(range(20_000))
        radial = [1.0 - uniform01(_substream(s, _PHASE_STREAM_SALT)) for s in seeds]
        contiguous = np.log(np.array(radial)).tolist()
        differing = [
            seed
            for seed, u1, value in zip(seeds, radial, contiguous)
            if value != math.log(u1)
        ]
        seeds = (differing + seeds)[:10]
        model = ErrorModel(ErrorMode.GAUSSIAN, sigma0=1.0)
        for start in range(0, len(seeds), chunk):
            group = seeds[start : start + chunk]
            for (row, _), seed in zip(sample_realizations(model, count, group), group):
                rng = _substream(seed, _PHASE_STREAM_SALT)
                expected = np.array([gaussian(rng) for _ in range(count)])
                assert np.array_equal(row.view(np.uint64), expected.view(np.uint64))


class TestSampleRealizations:
    """The chunk sampler against the scalar draws of each seed."""

    @pytest.mark.parametrize(
        "model",
        [
            ErrorModel(ErrorMode.UNIFORM, delta0=0.01, s_max=0.2),
            ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.3),
            ErrorModel(
                ErrorMode.GAUSSIAN, delta0=-0.1, sigma0=0.3, include_amplitude_errors=True
            ),
            ErrorModel(
                ErrorMode.SYSTEMATIC, delta0=0.02, include_amplitude_errors=True
            ),
            ErrorModel(ErrorMode.NONE),
        ],
        ids=["uniform", "gaussian", "gaussian-amp", "systematic-amp", "none"],
    )
    @pytest.mark.parametrize("chunk", [1, 2, 5])
    @pytest.mark.parametrize("count", [1, 300, 3 * _LANES])
    def test_rows_equal_single_realizations(self, model, chunk, count) -> None:
        seeds = [derive_stream_seed(99, i) for i in range(chunk)]
        draws = list(sample_realizations(model, count, seeds))
        assert len(draws) == chunk
        for (phase, amp), seed in zip(draws, seeds):
            expected = phase_errors(model, count, seed)
            assert np.array_equal(phase.view(np.uint64), expected.view(np.uint64))
            expected = amplitude_errors(model, count, seed)
            if expected is None:
                assert amp is None
                continue
            assert np.array_equal(amp.view(np.uint64), expected.view(np.uint64))

    def test_rejects_empty_request(self) -> None:
        with pytest.raises(ValueError):
            sample_realizations(ErrorModel(), 0, [1])


class TestDeriveStreamSeed:
    def test_deterministic(self) -> None:
        assert derive_stream_seed(42, 0) == derive_stream_seed(42, 0)

    def test_distinct_across_indices(self) -> None:
        seeds = [derive_stream_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_distinct_across_masters(self) -> None:
        assert derive_stream_seed(1, 0) != derive_stream_seed(2, 0)

    def test_rejects_negative_index(self) -> None:
        with pytest.raises(ValueError):
            derive_stream_seed(42, -1)


class TestErrorModel:
    def test_defaults_are_error_free(self) -> None:
        model = ErrorModel()
        assert model.mode is ErrorMode.NONE
        assert model.deterministic
        phase, amp = one_realization(model, 5, 1)
        assert np.array_equal(phase, np.zeros(5))
        assert amp is None

    def test_deterministic_flag(self) -> None:
        assert ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.1).deterministic
        assert not ErrorModel(ErrorMode.UNIFORM, s_max=0.1).deterministic
        assert not ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.1).deterministic

    @pytest.mark.parametrize(
        "model",
        [
            ErrorModel(ErrorMode.UNIFORM, include_amplitude_errors=True),
            ErrorModel(ErrorMode.UNIFORM, delta0=0.01, include_amplitude_errors=True),
            ErrorModel(ErrorMode.GAUSSIAN, delta0=-0.3, include_amplitude_errors=True),
        ],
    )
    def test_zero_width_is_deterministic(self, model: ErrorModel) -> None:
        assert model.deterministic
        # Each value keeps the bits the random stream gave it: +-0 * width + delta0.
        salts = (_PHASE_STREAM_SALT, _AMPLITUDE_STREAM_SALT)
        for seed in (0, 1, 999):
            for got, salt in zip(one_realization(model, 300, seed), salts):
                drawn = _sample(model, 300, [_substream(seed, salt)])[0]
                assert np.array_equal(got.view(np.uint64), drawn.view(np.uint64))
                assert np.array_equal(got, np.full(300, model.delta0))

    def test_none_rejects_amplitude_errors(self) -> None:
        with pytest.raises(ValueError, match="mode none draws no amplitude errors"):
            ErrorModel(include_amplitude_errors=True)

    def test_rejects_negative_spreads(self) -> None:
        with pytest.raises(ValueError):
            ErrorModel(ErrorMode.UNIFORM, s_max=-0.1)
        with pytest.raises(ValueError):
            ErrorModel(ErrorMode.GAUSSIAN, sigma0=-0.5)

    @pytest.mark.parametrize(
        "mode, field",
        [
            (ErrorMode.NONE, "delta0"),
            (ErrorMode.NONE, "s_max"),
            (ErrorMode.SYSTEMATIC, "s_max"),
            (ErrorMode.GAUSSIAN, "s_max"),
            (ErrorMode.NONE, "sigma0"),
            (ErrorMode.SYSTEMATIC, "sigma0"),
            (ErrorMode.UNIFORM, "sigma0"),
        ],
    )
    def test_rejects_magnitude_the_mode_does_not_read(self, mode, field) -> None:
        with pytest.raises(ValueError, match=f"mode {mode.value} reads no {field}"):
            ErrorModel(mode, **{field: 0.1})

    def test_accepts_every_magnitude_the_mode_reads(self) -> None:
        ErrorModel(ErrorMode.NONE, init_delta=0.1)
        ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.1, init_delta=0.1)
        ErrorModel(ErrorMode.UNIFORM, delta0=0.1, s_max=0.1, init_delta=0.1)
        ErrorModel(ErrorMode.GAUSSIAN, delta0=0.1, sigma0=0.1, init_delta=0.1)

    @pytest.mark.parametrize("field", ["delta0", "s_max", "sigma0", "init_delta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_magnitudes(self, field: str, value: float) -> None:
        with pytest.raises(ValueError, match=field):
            ErrorModel(ErrorMode.GAUSSIAN, **{field: value})


class TestPythonValues:
    """A mode name and numpy scalars are stored as the member and Python values."""

    def test_numpy_scalars_give_the_python_model(self) -> None:
        model = ErrorModel(
            ErrorMode.SYSTEMATIC, delta0=np.float64(0.1), init_delta=np.float32(0.5),
            include_amplitude_errors=np.bool_(True),
        )
        assert model == ErrorModel(
            ErrorMode.SYSTEMATIC, delta0=0.1, init_delta=0.5,
            include_amplitude_errors=True,
        )
        assert type(model.delta0) is float and type(model.init_delta) is float
        assert model.include_amplitude_errors is True

    def test_integer_magnitudes_become_floats(self) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, delta0=1, s_max=np.int64(2))
        assert model == ErrorModel(ErrorMode.UNIFORM, delta0=1.0, s_max=2.0)
        assert repr(model.delta0) == "1.0" and repr(model.s_max) == "2.0"

    @pytest.mark.parametrize("mode", list(ErrorMode))
    def test_mode_name_equals_its_member(self, mode: ErrorMode) -> None:
        assert ErrorModel(mode.value).mode is mode
        assert ErrorModel(mode.value) == ErrorModel(mode)

    @pytest.mark.parametrize("mode", ["bogus", "Gaussian", 3, None])
    def test_unknown_mode_is_a_usage_error(self, mode) -> None:
        with pytest.raises(
            UsageError, match="mode must be one of none, systematic, uniform, gaussian"
        ):
            ErrorModel(mode)


class TestSamplePhaseErrors:
    def test_systematic_is_constant(self) -> None:
        model = ErrorModel(ErrorMode.SYSTEMATIC, delta0=0.02)
        for seed in (0, 1, 999):
            assert np.array_equal(one_realization(model, 3, seed)[0], np.full(3, 0.02))

    def test_uniform_centered_and_bounded(self) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, delta0=0.05, s_max=0.01)
        ((draws, _),) = sample_realizations(model, 1_000_000, [11])
        assert np.all(np.abs(draws - 0.05) <= 0.01)
        assert abs(draws.mean() - 0.05) < 1e-4

    def test_gaussian_centered_with_spread(self) -> None:
        model = ErrorModel(ErrorMode.GAUSSIAN, delta0=-0.02, sigma0=0.3)
        ((draws, _),) = sample_realizations(model, 200_000, [12])
        assert abs(draws.mean() + 0.02) < 0.005
        assert abs(draws.std() - 0.3) < 0.01

    def test_same_seed_reproduces_exactly(self) -> None:
        model = ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.1)
        a = one_realization(model, 64, 42)[0]
        b = one_realization(model, 64, 42)[0]
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self) -> None:
        model = ErrorModel(ErrorMode.UNIFORM, s_max=0.1)
        a = one_realization(model, 64, 1)[0]
        b = one_realization(model, 64, 2)[0]
        assert not np.array_equal(a, b)

    def test_rejects_empty_request(self) -> None:
        with pytest.raises(ValueError):
            sample_realizations(ErrorModel(ErrorMode.UNIFORM, s_max=0.1), 0, [1])


class TestSampleAmplitudeErrors:
    def test_disabled_by_default(self) -> None:
        model = ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.5)
        assert one_realization(model, 8, 3)[1] is None

    def test_systematic_when_enabled(self) -> None:
        model = ErrorModel(
            ErrorMode.SYSTEMATIC, delta0=0.02, include_amplitude_errors=True
        )
        assert np.array_equal(one_realization(model, 2, 0)[1], np.full(2, 0.02))

    def test_phase_and_amplitude_streams_are_independent(self) -> None:
        # Turning amplitude errors on must not change the phase draws for
        # the same seed, and the two samples must not mirror each other.
        base = ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.1)
        both = ErrorModel(ErrorMode.GAUSSIAN, sigma0=0.1, include_amplitude_errors=True)
        phase_off, _ = one_realization(base, 32, 42)
        phase_on, amp = one_realization(both, 32, 42)
        assert np.array_equal(phase_off, phase_on)
        assert not np.array_equal(amp, phase_on)
        assert np.any(amp != 0.0)
