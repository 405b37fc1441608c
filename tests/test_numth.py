"""Tests for order finding, continued fractions, and problem instances."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recovery_oracle import COPRIME_PAIRS, convergents, recover_order

from shornoise import numth
from shornoise.numth import ShorInstance, UsageError, find_order, recover_orders


def recover_one(c: int, q: int, modulus: int, base: int, bound: int) -> int:
    (order,) = recover_orders(np.array([c]), q, modulus, base, bound).tolist()
    return order


def pair_order(base: int | None, modulus: int | None) -> int | None:
    """The order of base mod modulus by plain powers; None for an invalid pair."""
    if base is None or modulus is None or not 2 <= base < modulus:
        return None
    if math.gcd(base, modulus) != 1:
        return None
    return next(k for k in range(1, modulus) if pow(base, k, modulus) == 1)


def outcome(build):
    """What build returns, or the class and message of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


class TestFindOrder:
    def test_known_orders(self) -> None:
        assert find_order(7, 15) == 4
        assert find_order(2, 15) == 4
        assert find_order(4, 15) == 2
        assert find_order(14, 15) == 2
        assert find_order(2, 21) == 6
        assert find_order(3, 32) == 8

    def test_order_definition_holds(self) -> None:
        for modulus in (15, 21, 33, 35):
            for base in range(2, modulus):
                if math.gcd(base, modulus) != 1:
                    continue
                r = find_order(base, modulus)
                assert pow(base, r, modulus) == 1
                for k in range(1, r):
                    assert pow(base, k, modulus) != 1

    def test_rejects_shared_factor(self) -> None:
        with pytest.raises(ValueError):
            find_order(5, 15)

    def test_rejects_out_of_range_base(self) -> None:
        with pytest.raises(ValueError):
            find_order(0, 15)
        with pytest.raises(ValueError):
            find_order(15, 15)

    def test_pair_rules_and_their_classes(self) -> None:
        # Out-of-range arguments are usage errors; a shared factor and the
        # search cap are runtime failures.
        for y, modulus, message in [
            (2, 1, "modulus must be >= 2, got 1"),
            (1, 15, "need 2 <= base < modulus, got base=1"),
            (15, 15, "need 2 <= base < modulus, got base=15"),
        ]:
            with pytest.raises(UsageError) as info:
                find_order(y, modulus)
            assert str(info.value) == message
        for y, modulus in [(5, 15), (3, numth.ORDER_SEARCH_CAP + 1)]:
            with pytest.raises(ValueError) as info:
                find_order(y, modulus)
            assert type(info.value) is ValueError


class TestConvergents:
    def test_quarter(self) -> None:
        assert convergents(32, 128) == [(0, 1), (1, 4)]

    def test_three_quarters(self) -> None:
        assert convergents(96, 128) == [(0, 1), (1, 1), (3, 4)]

    def test_zero_numerator(self) -> None:
        assert convergents(0, 128) == [(0, 1)]

    def test_generic_fraction(self) -> None:
        assert convergents(85, 128) == [(0, 1), (1, 1), (1, 2), (2, 3), (85, 128)]

    def test_last_convergent_is_reduced_fraction(self) -> None:
        for c, q in [(85, 128), (13, 64), (100, 257), (63, 256), (1, 1024)]:
            h, k = convergents(c, q)[-1]
            g = math.gcd(c, q)
            assert (h, k) == (c // g, q // g)

    def test_all_convergents_in_lowest_terms(self) -> None:
        for c, q in [(85, 128), (77, 300), (123, 456), (17, 1000)]:
            for h, k in convergents(c, q):
                assert math.gcd(h, k) == 1
                assert k >= 1

    def test_denominators_nondecreasing(self) -> None:
        for c, q in [(85, 128), (77, 300), (355, 1130)]:
            ks = [k for _, k in convergents(c, q)]
            assert ks == sorted(ks)

    def test_rejects_bad_arguments(self) -> None:
        with pytest.raises(ValueError):
            convergents(5, 0)
        with pytest.raises(ValueError):
            convergents(-1, 8)
        with pytest.raises(ValueError):
            convergents(9, 8)


class TestRecoverOrder:
    def test_exact_peak(self) -> None:
        assert recover_one(64, 256, 15, 7, 1) == 4

    def test_zero_outcome_fails_with_tight_bound(self) -> None:
        assert recover_one(0, 256, 15, 7, 1) == 0

    def test_zero_outcome_recovers_with_wide_bound(self) -> None:
        assert recover_one(0, 256, 15, 7, 4) == 4

    def test_reduced_denominator_needs_multiplier(self) -> None:
        # c = 128 reduces to 1/2, so the order 4 only appears as the
        # multiple 2 * 2.
        assert recover_one(128, 256, 15, 7, 1) == 0
        assert recover_one(128, 256, 15, 7, 2) == 4

    def test_other_exact_peak(self) -> None:
        assert recover_one(192, 256, 15, 7, 1) == 4

    def test_returns_smallest_valid_candidate(self) -> None:
        r = recover_one(64, 256, 15, 7, 64)
        assert r == 4
        assert pow(7, r, 15) == 1

    def test_rejects_bad_arguments(self) -> None:
        with pytest.raises(ValueError):
            recover_orders(np.array([300]), 256, 15, 7)
        with pytest.raises(ValueError):
            recover_orders(np.array([-1]), 256, 15, 7)
        with pytest.raises(ValueError):
            recover_orders(np.array([0]), 256, 15, 7, multiplier_bound=0)

    def test_outcome_equal_to_q_is_accepted(self) -> None:
        # c = q expands to 1/1, the one convergent denominator 1.
        assert recover_one(256, 256, 15, 7, 4) == 4
        assert recover_one(256, 256, 15, 7, 3) == 0

    def test_empty_outcomes_give_empty_orders(self) -> None:
        orders = recover_orders(np.array([], dtype=np.int64), 256, 15, 7)
        assert orders.shape == (0,)
        assert orders.dtype == np.int64

    def test_keeps_outcome_order(self) -> None:
        orders = recover_orders(np.array([128, 64, 0, 192, 64]), 256, 15, 7, 1)
        assert orders.tolist() == [0, 4, 0, 4, 4]

    def test_orders_beyond_int32_at_large_modulus(self) -> None:
        # 2 has order r = 1,048,572 mod the prime 1,048,573. From c = 1
        # only d = 1 is below the modulus, out of reach at this bound; from
        # c = 15,625,237 the least reachable multiple is 29,035 * r > 2**31.
        modulus, q = 1_048_573, 1 << 24
        orders = recover_orders(np.array([1, 15_625_237]), q, modulus, 2, 29_127)
        assert orders.tolist() == [
            recover_order(1, q, modulus, 2, 29_127) or 0,
            recover_order(15_625_237, q, modulus, 2, 29_127),
        ]
        assert orders.tolist() == [0, 29_035 * 1_048_572]
        assert orders[1] > 2**31

    def test_rejects_non_integer_or_nested_outcomes(self) -> None:
        with pytest.raises(ValueError):
            recover_orders(np.array([1.0]), 256, 15, 7)
        with pytest.raises(ValueError):
            recover_orders(np.array([[1]]), 256, 15, 7)

    def test_reuses_the_order_found_for_the_instance(self) -> None:
        # The brute-force search runs when the instance is built; the
        # instance's own check and recovery at the same (modulus, base)
        # take the order from the cache.
        find_order.cache_clear()
        inst = ShorInstance.from_factoring(221, 2)
        orders = recover_orders(np.array([0, 2731]), inst.register_size, 221, 2, 1)
        assert orders.tolist() == [0, 24]
        info = find_order.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestRecoverOrdersMatchesScalarOracle:
    @settings(max_examples=150)
    @given(
        problem=COPRIME_PAIRS,
        n_qubits=st.integers(1, 12),
        bound=st.sampled_from([1, 2, 3, 64, 1000]),
        data=st.data(),
    )
    def test_every_outcome_matches(self, problem, n_qubits, bound, data) -> None:
        modulus, base = problem
        q = 1 << n_qubits
        drawn = data.draw(st.lists(st.integers(0, q), max_size=40))
        outcomes = np.array([0, q] + drawn, dtype=np.int64)
        orders = recover_orders(outcomes, q, modulus, base, bound)
        expected = [
            recover_order(c, q, modulus, base, bound) or 0 for c in outcomes.tolist()
        ]
        assert orders.dtype == np.int64
        assert orders.tolist() == expected

    @pytest.mark.parametrize("modulus, base", [(15, 7), (21, 2), (55, 2), (221, 2)])
    @pytest.mark.parametrize("bound", [1, 2, 3, 64, 1000])
    def test_every_outcome_of_a_small_register(self, modulus, base, bound) -> None:
        q = 1 << 10
        orders = recover_orders(np.arange(q + 1), q, modulus, base, bound)
        expected = [
            recover_order(c, q, modulus, base, bound) or 0 for c in range(q + 1)
        ]
        assert orders.tolist() == expected

    @pytest.mark.parametrize("lanes", [1, 7, 100])
    def test_lockstep_blocks_keep_every_outcome(self, lanes, monkeypatch) -> None:
        # Outcomes expand in blocks of _LOCKSTEP_LANES; a block edge
        # anywhere must leave each order at its own outcome.
        monkeypatch.setattr(numth, "_LOCKSTEP_LANES", lanes)
        q = 1 << 10
        outcomes = np.arange(q + 1)[::-1]
        orders = recover_orders(outcomes, q, 55, 2, 2)
        expected = [recover_order(c, q, 55, 2, 2) or 0 for c in outcomes.tolist()]
        assert orders.tolist() == expected


class TestShorInstance:
    def test_from_factoring_fifteen(self) -> None:
        inst = ShorInstance.from_factoring(15, 7)
        assert inst.modulus == 15
        assert inst.base == 7
        assert inst.n_qubits == 8
        assert inst.register_size == 256
        assert inst.order == 4
        assert inst.offset == 0
        assert inst.support_count == 64
        assert not inst.synthetic

    def test_register_width_rule(self) -> None:
        # Smallest register whose size is at least modulus squared, also
        # where the square is a power of two or just above one.
        cases = [(15, 7), (21, 2), (33, 2), (35, 2)]
        cases += [(16, 3), (17, 3), (64, 3), (65, 2), (4096, 3)]
        for modulus, base in cases:
            inst = ShorInstance.from_factoring(modulus, base)
            q = inst.register_size
            assert q >= modulus * modulus
            assert q // 2 < modulus * modulus
        with pytest.raises(UsageError, match="modulus 4097 needs 25 qubits"):
            ShorInstance.from_factoring(4097, 3)

    def test_wide_modulus_fails_before_the_order_search(self) -> None:
        misses = find_order.cache_info().misses
        message = "modulus 1048573 needs 40 qubits; the widest register has 24"
        with pytest.raises(UsageError, match=message):
            ShorInstance.from_factoring(1048573, 2)
        assert find_order.cache_info().misses == misses

    def test_from_factoring_twentyone(self) -> None:
        inst = ShorInstance.from_factoring(21, 2)
        assert inst.n_qubits == 9
        assert inst.register_size == 512
        assert inst.order == 6
        assert inst.support_count == 86

    def test_from_factoring_rejects_shared_factor(self) -> None:
        with pytest.raises(ValueError):
            ShorInstance.from_factoring(15, 5)
        with pytest.raises(ValueError):
            ShorInstance.from_factoring(4, 2)

    def test_synthetic_small_register(self) -> None:
        inst = ShorInstance.synthetic_instance(7, 4)
        assert inst.n_qubits == 7
        assert inst.register_size == 128
        assert inst.order == 4
        assert inst.support_count == 32
        assert inst.synthetic
        assert inst.modulus is None and inst.base is None

    def test_synthetic_with_attached_problem(self) -> None:
        inst = ShorInstance.synthetic_instance(7, 4, modulus=15, base=7)
        assert inst.synthetic
        assert inst.modulus == 15
        assert inst.base == 7

    def test_synthetic_rejects_mismatched_order(self) -> None:
        with pytest.raises(ValueError):
            ShorInstance.synthetic_instance(7, 3, modulus=15, base=7)

    def test_every_constructor_runs_the_one_check(self) -> None:
        with pytest.raises(ValueError, match=r"^base 7 has order 4 mod 15, not 3$"):
            ShorInstance(modulus=15, base=7, n_qubits=8, order=3, offset=0)
        with pytest.raises(UsageError, match="modulus and base must be given together"):
            ShorInstance(modulus=15, base=None, n_qubits=8, order=4, offset=0)
        with pytest.raises(UsageError, match=r"got base=1$"):
            ShorInstance.synthetic_instance(8, 1, modulus=15, base=1)
        with pytest.raises(UsageError, match=r"^modulus must be >= 2, got 1$"):
            ShorInstance.from_factoring(1, 2)

    @settings(max_examples=300)
    @given(
        modulus=st.none() | st.integers(-1, 64),
        n_qubits=st.integers(0, 12),
        data=st.data(),
    )
    def test_constructors_agree_property(self, modulus, n_qubits, data) -> None:
        # Each rule has one home, so the dataclass, synthetic_instance and,
        # at its own width, from_factoring build equal instances or raise
        # the same error. An instance's order is always its base's order.
        top = 64 if modulus is None else modulus
        base = data.draw(st.none() | st.integers(-2, top + 2))
        r = pair_order(base, modulus)
        order = data.draw(st.integers(0, 2 * (r or max(top, 1))))
        offset = data.draw(st.integers(-1, order))
        built = outcome(lambda: ShorInstance(modulus, base, n_qubits, order, offset))
        synthetic = outcome(
            lambda: ShorInstance.synthetic_instance(
                n_qubits, order, offset, modulus=modulus, base=base
            )
        )
        if isinstance(built, ShorInstance):
            assert synthetic == replace(built, synthetic=True)
            assert modulus is None or built.order == r
        else:
            assert synthetic == built
        if modulus is None or base is None:
            return
        width = max(1, (modulus * modulus - 1).bit_length())
        factored = outcome(lambda: ShorInstance.from_factoring(modulus, base, offset))
        assert factored == outcome(
            lambda: ShorInstance(modulus, base, width, r or order, offset)
        )

    def test_support_count_formula(self) -> None:
        # support_count = floor((q - 1 - l) / r) + 1 for every offset.
        for n_qubits, order in [(3, 3), (4, 5), (5, 7), (7, 4)]:
            q = 1 << n_qubits
            for offset in range(order):
                inst = ShorInstance.synthetic_instance(n_qubits, order, offset=offset)
                assert inst.support_count == (q - 1 - offset) // order + 1

    def test_support_values(self) -> None:
        inst = ShorInstance.synthetic_instance(3, 3, offset=2)
        assert list(inst.support_values()) == [2, 5]
        inst2 = ShorInstance.synthetic_instance(3, 2, offset=1)
        assert list(inst2.support_values()) == [1, 3, 5, 7]

    def test_divisibility_flags(self) -> None:
        full = ShorInstance.from_factoring(15, 7)
        assert full.full_period_support
        ragged = ShorInstance.synthetic_instance(3, 3)
        assert not ragged.full_period_support

    def test_rejects_bad_offsets_and_orders(self) -> None:
        with pytest.raises(ValueError):
            ShorInstance.synthetic_instance(3, 3, offset=3)
        with pytest.raises(ValueError):
            ShorInstance.synthetic_instance(3, 0)
        with pytest.raises(ValueError):
            ShorInstance.synthetic_instance(3, 9)
        with pytest.raises(ValueError):
            ShorInstance.synthetic_instance(0, 1)

    def test_out_of_range_values_are_usage_errors(self) -> None:
        assert issubclass(UsageError, ValueError)
        for build in (
            lambda: ShorInstance.synthetic_instance(25, 4),
            lambda: ShorInstance.synthetic_instance(3, 9),
            lambda: ShorInstance.synthetic_instance(3, 3, offset=3),
            lambda: ShorInstance.from_factoring(15, 20),
            lambda: ShorInstance.synthetic_instance(3, 4, modulus=15),
            lambda: ShorInstance.synthetic_instance(3, 4, base=7),
        ):
            with pytest.raises(UsageError):
                build()
        # A base sharing a factor with the modulus is not a usage error:
        # that factor already answers the problem.
        with pytest.raises(ValueError) as info:
            ShorInstance.from_factoring(15, 5)
        assert type(info.value) is ValueError
