import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    FractionStep,
    annulus_count,
    annulus_count_bruteforce,
    classical_signature_loop,
    floor_sum_naive,
    lt_signature_columns,
    pieces_as_fractions,
    step_function_walk,
)
from torsig.cli import SWEEP_MAX_PQ
from torsig.core import InvalidParameter, RationalAngle, TorusKnot
from torsig.lattice import (
    _floor_sum,
    classical_signature,
    lt_signature,
    signature_step_function,
)


def coprime_pairs(p_max, q_max):
    return [
        (p, q)
        for p in range(2, p_max + 1)
        for q in range(p + 1, q_max + 1)
        if math.gcd(p, q) == 1
    ]


def coprime_knots(p_max):
    """Strategy for T(p, q) with 1 <= p <= p_max and p <= q <= 3p + 5."""
    return (
        st.integers(1, p_max)
        .flatmap(lambda p: st.tuples(st.just(p), st.integers(p, 3 * p + 5)))
        .filter(lambda pq: math.gcd(*pq) == 1)
        .map(lambda pq: TorusKnot(*pq))
    )


class TestAnnulusCount:
    """The per-column and point-by-point references agree with each other
    and with the floor-sum kernel."""

    def test_figure_example(self):
        knot, t = TorusKnot(4, 7), RationalAngle(1, 4)
        counts = annulus_count(knot, t)
        assert counts.inside == 14
        assert lt_signature(knot, t) == 2 * counts.inside - knot.seifert_rank()

    def test_trefoil_half(self):
        # both points have norms 5/6 and 7/6, inside (1/2, 3/2)
        counts = annulus_count(TorusKnot(2, 3), RationalAngle(1, 2))
        assert (counts.inside, counts.outside) == (2, 0)

    def test_trefoil_small_angle(self):
        # only 5/6 lies in (1/12, 13/12)
        counts = annulus_count(TorusKnot(2, 3), RationalAngle(1, 12))
        assert counts.inside == 1

    def test_fast_equals_bruteforce_exhaustive_small(self):
        for p, q in coprime_pairs(8, 12):
            knot = TorusKnot(p, q)
            for k in range(1, 2 * p * q):
                t = RationalAngle(k, 2 * p * q)
                counts = annulus_count_bruteforce(knot, t)
                assert annulus_count(knot, t) == counts, (p, q, k)
                assert lt_signature(knot, t) == 2 * counts.inside - knot.seifert_rank()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 39), st.integers(3, 40), st.integers(1, 10**6))
    def test_fast_equals_bruteforce_sampled(self, p, q, seed):
        if p >= q or math.gcd(p, q) != 1:
            return
        knot = TorusKnot(p, q)
        k = seed % (2 * p * q - 1) + 1
        t = RationalAngle(k, 2 * p * q)
        assert annulus_count(knot, t) == annulus_count_bruteforce(knot, t)

    def test_counts_sum_to_rank_off_jumps(self):
        for p, q in coprime_pairs(7, 11):
            knot = TorusKnot(p, q)
            for k in range(p * q):
                t = RationalAngle(2 * k + 1, 2 * p * q)  # midpoints avoid jumps
                counts = annulus_count(knot, t)
                assert counts.inside + counts.outside == knot.seifert_rank()


class TestFloorSum:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 60), st.integers(1, 10**6), st.integers(0, 10**7), st.integers(0, 10**7))
    def test_matches_naive_sum(self, n, m, a, b):
        assert _floor_sum(n, m, a, b) == floor_sum_naive(n, m, a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 400), st.integers(1, 50), st.integers(0, 200), st.integers(0, 200))
    def test_matches_naive_sum_small_modulus(self, n, m, a, b):
        assert _floor_sum(n, m, a, b) == floor_sum_naive(n, m, a, b)

    def test_edge_cases(self):
        assert _floor_sum(0, 7, 3, 5) == 0
        assert _floor_sum(5, 1, 0, 0) == 0
        assert _floor_sum(4, 3, 0, 7) == 4 * 2


class TestLtSignature:
    @pytest.mark.parametrize(
        "p,q,t,expected",
        [
            (4, 7, (1, 4), 10),
            (5, 12, (1, 2), 28),
            (2, 3, (1, 12), 0),
        ],
    )
    def test_examples(self, p, q, t, expected):
        assert lt_signature(TorusKnot(p, q), RationalAngle(*t)) == expected

    def test_unknot_is_zero_everywhere(self):
        knot = TorusKnot(1, 5)
        for k in range(1, 20):
            assert lt_signature(knot, RationalAngle(k, 20)) == 0

    def test_symmetry_about_one_half(self):
        for p, q in coprime_pairs(6, 11):
            knot = TorusKnot(p, q)
            for num in range(1, p * q):
                # 1/2 -+ num/(2pq)
                left = RationalAngle(p * q - num, 2 * p * q)
                right = RationalAngle(p * q + num, 2 * p * q)
                assert lt_signature(knot, left) == lt_signature(knot, right)

    def test_zero_below_first_jump(self):
        for p, q in coprime_pairs(8, 13):
            knot = TorusKnot(p, q)
            assert lt_signature(knot, RationalAngle(1, 2 * p * q)) == 0


    @settings(max_examples=150, deadline=None)
    @given(coprime_knots(2000), st.integers(2, 10**9), st.integers(0, 10**9))
    def test_matches_columns_at_random_angles(self, knot, b, seed):
        t = RationalAngle(seed % (b - 1) + 1, b)
        assert lt_signature(knot, t) == lt_signature_columns(knot, t)

    @settings(max_examples=150, deadline=None)
    @given(coprime_knots(2000), st.integers(0, 10**12))
    def test_matches_columns_at_jump_abscissae(self, knot, seed):
        # k/(pq) and 1 - k/(pq): the candidate jumps and their mirrors
        pq = knot.p * knot.q
        if pq == 1:
            return
        k = seed % (pq - 1) + 1
        for t in (RationalAngle(k, pq), RationalAngle(pq - k, pq)):
            assert lt_signature(knot, t) == lt_signature_columns(knot, t)

    def test_matches_columns_on_small_grid(self):
        for p in range(1, 10):
            for q in range(p, 20):
                if math.gcd(p, q) != 1:
                    continue
                knot = TorusKnot(p, q)
                for b in range(2, 40):
                    for a in range(1, b):
                        if math.gcd(a, b) == 1:
                            t = RationalAngle(a, b)
                            assert lt_signature(knot, t) == lt_signature_columns(knot, t)

    def test_huge_knot_at_one_half(self):
        # O(log) floor sums: p, q near 10**40 take well under a millisecond
        knot = TorusKnot(10**40 + 1, 10**40 + 3)
        assert lt_signature(knot, RationalAngle(1, 2)) == classical_signature(knot)


class TestClassicalSignature:
    @pytest.mark.parametrize("p,q,expected", [(4, 7, 14), (5, 12, 28), (3, 5, 8)])
    def test_examples(self, p, q, expected):
        assert classical_signature(TorusKnot(p, q)) == expected

    def test_two_strand_family(self):
        for q in range(3, 40, 2):
            assert classical_signature(TorusKnot(2, q)) == q - 1

    def test_unknot(self):
        assert classical_signature(TorusKnot(1, 7)) == 0

    def test_agrees_with_lattice_count_at_one_half(self):
        for p, q in coprime_pairs(12, 40):
            knot = TorusKnot(p, q)
            assert classical_signature(knot) == lt_signature(knot, RationalAngle(1, 2))


    @settings(max_examples=200, deadline=None)
    @given(coprime_knots(2000))
    def test_matches_loop(self, knot):
        assert classical_signature(knot) == classical_signature_loop(knot)


class TestStepFunction:
    def test_trefoil_derived_from_bruteforce(self):
        # independent oracle: brute-force annulus counts at the candidate
        # grid and its midpoints
        knot = TorusKnot(2, 3)
        pq = 6
        values = {}
        for k in range(1, 2 * pq):
            t = RationalAngle(k, 2 * pq)
            counts = annulus_count_bruteforce(knot, t)
            values[Fraction(k, 2 * pq)] = 2 * counts.inside - knot.seifert_rank()
        step = signature_step_function(knot)
        assert step.breakpoints.tolist() == [1, 5] and step.denominator == 6
        assert step.interval_values.tolist() == [0, 2, 0]
        assert step.breakpoint_values.tolist() == [0, 0]
        for t, sigma in values.items():
            assert FractionStep.of(step).value_at(t) == sigma

    def test_matches_pointwise_evaluation(self):
        for p, q in coprime_pairs(6, 9):
            knot = TorusKnot(p, q)
            step = FractionStep.of(signature_step_function(knot))
            for k in range(1, 2 * p * q):
                t = RationalAngle(k, 2 * p * q)
                assert step.value_at(Fraction(k, 2 * p * q)) == lt_signature(knot, t), (p, q, k)

    def test_merged_representation(self):
        for p, q in coprime_pairs(9, 14):
            step = signature_step_function(TorusKnot(p, q))
            assert len(step.interval_values) == len(step.breakpoints) + 1
            assert list(step.breakpoints) == sorted(set(step.breakpoints))
            for left, right, at in zip(step.interval_values, step.interval_values[1:],
                                       step.breakpoint_values):
                assert left != right and at == min(left, right)

    def test_figure_maximum(self):
        assert signature_step_function(TorusKnot(4, 7)).max_value() == 14

    def test_symmetric_dump(self):
        step = signature_step_function(TorusKnot(4, 7))
        ks = step.breakpoints.tolist()
        for k, sigma in zip(ks, step.breakpoint_values):
            mirrored = ks.index(step.denominator - k)  # t -> 1 - t
            assert step.breakpoint_values[mirrored] == sigma

    def test_unknot_step(self):
        for q in (4, 1):
            step = signature_step_function(TorusKnot(1, q))
            assert len(step.breakpoints) == 0 and step.interval_values.tolist() == [0]
            assert step.max_value() == 0 and type(step.max_value()) is int
            assert step.argmax_pieces().tolist() == [[0, step.denominator]]

    @pytest.mark.parametrize("p", [2, 7, 316, 1409])
    def test_one_jump_per_root_on_large_knots(self, p):
        # pq from 10**5 to the sweep cap, beyond the reach of the list walk:
        # sampled jumps against the floor-sum route on both sides and at k.
        rng = random.Random(p)
        q = rng.randint(max(p + 1, 10**5 // p), SWEEP_MAX_PQ // p)
        while math.gcd(p, q) != 1:
            q += 1
        knot = TorusKnot(p, q)
        pq = p * q
        step = signature_step_function(knot)
        assert 10**5 <= pq <= SWEEP_MAX_PQ and len(step.breakpoints) == knot.seifert_rank()
        values, at = step.interval_values, step.breakpoint_values
        for n in [0, len(at) - 1, *rng.sample(range(len(at)), 198)]:
            k = int(step.breakpoints[n])
            assert lt_signature(knot, RationalAngle(2 * k - 1, 2 * pq)) == values[n], (p, q, k)
            assert lt_signature(knot, RationalAngle(k, pq)) == at[n], (p, q, k)
            assert lt_signature(knot, RationalAngle(2 * k + 1, 2 * pq)) == values[n + 1], (p, q, k)

    def test_breakpoints_are_one_read_only_int64_array(self):
        step = signature_step_function(TorusKnot(4, 7))
        assert isinstance(step.breakpoints, np.ndarray) and step.breakpoints.dtype == np.int64
        assert step.denominator == 28
        with pytest.raises(ValueError):
            step.breakpoints[0] = 0

    def test_step_function_holds_three_fields_and_derives_breakpoint_values(self):
        step = signature_step_function(TorusKnot(4, 7))
        assert [f.name for f in dataclasses.fields(step)] == [
            "breakpoints", "denominator", "interval_values"]
        values = step.interval_values
        assert isinstance(values, np.ndarray) and values.dtype == np.int64
        with pytest.raises(ValueError):
            values[0] = 0
        with pytest.raises(AttributeError):
            step.breakpoint_values = values[1:]
        assert step.breakpoint_values.tolist() == np.minimum(values[:-1], values[1:]).tolist()

    def test_matches_list_walk_on_grid(self):
        for p in range(1, 16):
            for q in range(p, 31):
                if math.gcd(p, q) == 1:
                    knot = TorusKnot(p, q)
                    step = signature_step_function(knot)
                    assert step.interval_values.dtype == np.int64, (p, q)
                    assert FractionStep.of(step) == step_function_walk(knot), (p, q)

    @settings(max_examples=25, deadline=None)
    @given(coprime_knots(60))
    def test_matches_list_walk_sampled(self, knot):
        step = signature_step_function(knot)
        assert FractionStep.of(step) == step_function_walk(knot)
        assert step.max_value() == max(step_function_walk(knot).interval_values)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 400).flatmap(lambda p: st.tuples(st.just(p), st.integers(p + 1, 4000)))
           .filter(lambda pq: math.gcd(*pq) == 1))
    def test_no_value_is_negative(self, pq):
        # the argument is in `signature_step_function`'s docstring; `sweep`
        # renders the values with the non-negative digit kernel `cli._digits`
        assert signature_step_function(TorusKnot(*pq)).interval_values.min() >= 0

    def test_argmax_pieces_match_list_reference_on_grid(self):
        for p in range(1, 16):
            for q in range(p, 31):
                if math.gcd(p, q) == 1:
                    knot = TorusKnot(p, q)
                    pieces = signature_step_function(knot).argmax_pieces()
                    assert pieces.dtype == np.int64 and pieces.shape[1:] == (2,), (p, q)
                    assert np.all(pieces[:, 0] < pieces[:, 1]), (p, q)
                    assert (pieces_as_fractions(pieces, p * q)
                            == step_function_walk(knot).argmax_pieces()), (p, q)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(2, 2**53 - 1).flatmap(lambda pq: st.tuples(st.integers(1, pq - 1),
                                                                   st.just(pq))))
    def test_int64_quotient_is_float_of_fraction(self, k_pq):
        # `sweep --format plot` prints (ks / pq).tolist() for float(Fraction(k, pq))
        k, pq = k_pq
        assert np.int64(k) / np.int64(pq) == float(Fraction(k, pq))
        assert (np.array([k], dtype=np.int64) / pq).tolist() == [float(Fraction(k, pq))]

    def test_int64_guard(self):
        # 2pq > 2**63 - 1: refused before anything is allocated
        with pytest.raises(InvalidParameter, match="int64"):
            signature_step_function(TorusKnot(2**31 + 1, 2**32 + 1))

    def test_value_at_domain(self):
        step = FractionStep.of(signature_step_function(TorusKnot(2, 3)))
        with pytest.raises(ValueError):
            step.value_at(Fraction(0))
        with pytest.raises(ValueError):
            step.value_at(Fraction(1))
