import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    DictProfile,
    RotationReport,
    distance_profile_loop,
    geometric_distance_profile,
    max_cyclic_sum_loop,
    max_signature_sorted,
    rotation_relation,
    sorted_balanced_sequence,
)
from torsig.core import InvalidParameter, TorusKnot
from torsig.lattice import classical_signature, signature_step_function
from torsig.maxsig import (
    DistanceProfile,
    balanced_sequence,
    distance_profile,
    g4_lower_bound,
    knot_max_cyclic_sum,
    max_cyclic_sum,
    max_signature,
)


def coprime_pairs(p_max, q_max):
    return [
        (p, q)
        for p in range(2, p_max + 1)
        for q in range(p + 1, q_max + 1)
        if math.gcd(p, q) == 1
    ]


def coprime_knots(p_max, p_min=1):
    """Strategy for T(p, q) with p_min <= p <= p_max and p <= q <= 3p + 5."""
    return (
        st.integers(p_min, p_max)
        .flatmap(lambda p: st.tuples(st.just(p), st.integers(p, 3 * p + 5)))
        .filter(lambda pq: math.gcd(*pq) == 1)
        .map(lambda pq: TorusKnot(*pq))
    )


def synthetic(entries):
    return np.array(entries, dtype=np.int8)


def cyclic_max_bruteforce(entries, start):
    """Independent oracle: max over nonempty cyclic partial sums of length
    at most one period, starting at `start`."""
    n = len(entries)
    best = None
    for length in range(1, n + 1):
        s = sum(entries[(start + i) % n] for i in range(length))
        best = s if best is None else max(best, s)
    return best


class TestDistanceProfile:
    def test_worked_example(self):
        profile = distance_profile(TorusKnot(5, 12))
        assert profile.j.tolist() == [-3, -1]
        assert profile.D.tolist() == [6, 2] and profile.d.tolist() == [8, 4]
        assert DictProfile.of(profile).D == {-1: 2, -3: 6}
        assert DictProfile.of(profile).d == {1: 8, 3: 4}

    def test_figure_example(self):
        profile = DictProfile.of(distance_profile(TorusKnot(4, 7)))
        assert profile.D == {-2: 6}
        assert profile.d == {2: 2}
        assert profile.d[2] < profile.D[-2]

    def test_two_strand_profile_empty(self):
        for q in (3, 9, 15):
            profile = distance_profile(TorusKnot(2, q))
            assert profile.D.size == profile.d.size == profile.j.size == 0

    def test_unknot_profile_empty(self):
        profile = distance_profile(TorusKnot(1, 8))
        assert profile.D.size == profile.d.size == profile.j.size == 0

    def test_one_read_only_int64_array(self):
        profile = distance_profile(TorusKnot(7, 17))
        assert isinstance(profile.D, np.ndarray) and profile.D.dtype == np.int64
        assert profile.d.dtype == profile.j.dtype == np.int64
        with pytest.raises(ValueError):
            profile.D[0] = 1

    def test_structure_on_grid(self):
        for p, q in coprime_pairs(15, 40):
            profile = distance_profile(TorusKnot(p, q))
            m = -(-p // 2) - 1  # ceil(p/2) - 1
            assert profile.D.size == profile.d.size == profile.j.size == m
            values = profile.D.tolist() + profile.d.tolist()
            assert len(set(values)) == 2 * m
            assert all(0 < v < 2 * p and v != p for v in values)
            dicts = DictProfile.of(profile)
            for j, v in dicts.D.items():
                assert v % (2 * p) == (-j * q) % (2 * p)
                assert dicts.d[-j] == 2 * p - v

    def test_matches_loop_on_grid(self):
        for p in range(1, 60):
            for q in range(p, 120):
                if math.gcd(p, q) == 1:
                    knot = TorusKnot(p, q)
                    profile = DictProfile.of(distance_profile(knot))
                    loop = distance_profile_loop(knot)
                    assert profile == loop, (p, q)
                    assert list(profile.D) == list(loop.D) and list(profile.d) == list(loop.d)

    @settings(max_examples=100, deadline=None)
    @given(coprime_knots(5000))
    def test_matches_loop_sampled(self, knot):
        assert DictProfile.of(distance_profile(knot)) == distance_profile_loop(knot)

    def test_int64_guard(self):
        # 2p^2 > 2**63 - 1: refused before anything is allocated
        knot = TorusKnot(2**31 + 1, 2**31 + 2)
        with pytest.raises(InvalidParameter, match="int64"):
            distance_profile(knot)
        with pytest.raises(InvalidParameter, match="int64"):
            max_signature(knot)

    def test_geometric_cross_check(self):
        # d is derived from D, so the geometric d checks d_k = 2p - D_{-k}
        for p, q in coprime_pairs(12, 30):
            knot = TorusKnot(p, q)
            geometric = geometric_distance_profile(knot)
            profile = DictProfile.of(distance_profile(knot))
            assert geometric.D == profile.D, (p, q)
            assert geometric.d == profile.d, (p, q)


class TestBalancedSequence:
    def test_worked_example(self):
        seq = balanced_sequence(distance_profile(TorusKnot(5, 12)))
        assert seq.dtype == np.int8 and seq.tolist() == [1, -1, 1, -1]

    def test_figure_example(self):
        seq = balanced_sequence(distance_profile(TorusKnot(4, 7)))
        assert seq.tolist() == [-1, 1]

    def test_empty(self):
        seq = balanced_sequence(distance_profile(TorusKnot(2, 7)))
        assert seq.dtype == np.int8 and len(seq) == 0

    def test_matches_sort_on_grid(self):
        for p, q in coprime_pairs(59, 119):
            profile = distance_profile(TorusKnot(p, q))
            expected = sorted_balanced_sequence(DictProfile.of(profile))
            assert tuple(balanced_sequence(profile).tolist()) == expected, (p, q)

    @settings(max_examples=100, deadline=None)
    @given(coprime_knots(5000))
    def test_matches_sort_sampled(self, knot):
        profile = distance_profile(knot)
        expected = sorted_balanced_sequence(DictProfile.of(profile))
        assert tuple(balanced_sequence(profile).tolist()) == expected

    @pytest.mark.parametrize(
        "D,d",
        [
            ([3, 7], [3, 7]),  # values shared by D and d
            ([2, 2], [8, 8]),  # repeats that stay balanced
            ([5], [5]),  # the value p
            ([0], [10]),  # 0, outside (0, 2p)
            ([-2], [12]),  # negative
            ([10], [0]),  # 2p, outside (0, 2p)
        ],
    )
    def test_invalid_profile_rejected(self, D, d):
        # p = 5; d is derived as 2p - D reversed
        profile = DistanceProfile(5, np.array(D, dtype=np.int64))
        assert profile.d.tolist() == d
        with pytest.raises(InvalidParameter):
            balanced_sequence(profile)


class TestMaxCyclicSum:
    @pytest.mark.parametrize(
        "entries,expected",
        [
            ((1, -1, 1, -1), 1),
            ((-1, 1), 0),
            ((), 0),
            ((1, 1, -1, -1), 2),
        ],
    )
    def test_examples(self, entries, expected):
        assert max_cyclic_sum(synthetic(entries)) == expected

    def test_unbalanced_rejected(self):
        for entries in ((1, 1, -1), (-1,), (1, -1, -1, -1)):
            with pytest.raises(InvalidParameter):
                max_cyclic_sum(synthetic(entries))

    def test_contracts_hold_under_python_O(self):
        # python -O strips assert statements; the public contracts must not be asserts
        script = (
            "import numpy as np\n"
            "from torsig.core import InvalidParameter\n"
            "from torsig.maxsig import DistanceProfile, balanced_sequence, max_cyclic_sum\n"
            "for call, arg in ((max_cyclic_sum, np.array([1, 1, -1], np.int8)),\n"
            "                  (balanced_sequence, DistanceProfile(5, np.array([3, 7])))):\n"
            "    try:\n"
            "        call(arg)\n"
            "    except InvalidParameter:\n"
            "        continue\n"
            "    raise SystemExit(f'{call.__name__} accepted {arg}')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stdout + done.stderr

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda m: st.permutations([1] * m + [-1] * m)))
    def test_recursion_property(self, entries):
        entries = tuple(entries)
        n = len(entries)
        if n == 0:
            assert max_cyclic_sum(synthetic(entries)) == 0
            return
        for start in range(n):
            lhs = cyclic_max_bruteforce(entries, start)
            rhs = entries[start] + cyclic_max_bruteforce(entries, (start + 1) % n)
            assert lhs == rhs
        # the empty sum never changes the value for balanced sequences
        assert max_cyclic_sum(synthetic(entries)) == max(0, cyclic_max_bruteforce(entries, 0))
        assert cyclic_max_bruteforce(entries, 0) >= 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda m: st.permutations([1] * m + [-1] * m)))
    def test_matches_loop(self, entries):
        entries = tuple(entries)
        assert max_cyclic_sum(synthetic(entries)) == max_cyclic_sum_loop(entries)

    def test_recursion_on_knot_sequences(self):
        for p, q in coprime_pairs(11, 23):
            entries = balanced_sequence(distance_profile(TorusKnot(p, q))).tolist()
            n = len(entries)
            for start in range(n):
                assert cyclic_max_bruteforce(entries, start) == entries[start] + cyclic_max_bruteforce(entries, (start + 1) % n)


class TestMaxSignature:
    @pytest.mark.parametrize("p,q,expected", [(5, 12, 30), (4, 7, 14), (3, 7, 10)])
    def test_examples(self, p, q, expected):
        assert max_signature(TorusKnot(p, q)) == expected

    def test_unknot(self):
        assert max_signature(TorusKnot(1, 11)) == 0

    def test_matches_sorted_route_on_grid(self):
        for p in range(1, 60):
            for q in range(p, 120):
                if math.gcd(p, q) == 1:
                    knot = TorusKnot(p, q)
                    assert max_signature(knot) == max_signature_sorted(knot), (p, q)

    @settings(max_examples=100, deadline=None)
    @given(coprime_knots(5000))
    def test_matches_sorted_route_sampled(self, knot):
        assert max_signature(knot) == max_signature_sorted(knot)

    def test_pipeline_matches_direct_route(self):
        # the array pipeline against the loop profile, the sort and the loop sum
        for p in range(1, 40):
            for q in range(p, 90):
                if math.gcd(p, q) == 1:
                    knot = TorusKnot(p, q)
                    m = max_cyclic_sum_loop(sorted_balanced_sequence(distance_profile_loop(knot)))
                    assert knot_max_cyclic_sum(knot) == m, (p, q)
                    assert max_signature(knot) == classical_signature(knot) + 2 * m

    def test_far_family_at_a_million_strands(self):
        # T(p, 2p+1) peaks at p^2 + p - 2; one cumulative sum over 2p marks
        p = 1_000_003
        assert max_signature(TorusKnot(p, 2 * p + 1)) == p * p + p - 2

    def test_bounds_on_grid(self):
        for p, q in coprime_pairs(12, 40):
            knot = TorusKnot(p, q)
            sigma = classical_signature(knot)
            sigma_hat = max_signature(knot)
            assert sigma <= sigma_hat <= sigma + p - 1
            if p % 2 == 0:
                assert sigma_hat <= sigma + p - 2

    def test_sharpness_at_q_2p_plus_1(self):
        for p in range(2, 31):
            knot = TorusKnot(p, 2 * p + 1)
            two_m = max_signature(knot) - classical_signature(knot)
            assert two_m == (p - 2 if p % 2 == 0 else p - 1)

    def test_equals_step_function_maximum(self):
        for p, q in coprime_pairs(12, 28):
            knot = TorusKnot(p, q)
            assert max_signature(knot) == signature_step_function(knot).max_value(), (p, q)

    def test_maximizer_window(self):
        for p, q in coprime_pairs(10, 24):
            step = signature_step_function(TorusKnot(p, q))
            lo, hi = Fraction(1, 2) - Fraction(1, q), Fraction(1, 2)
            hit = any(Fraction(a, p * q) < hi and Fraction(b, p * q) > lo
                      for a, b in step.argmax_pieces().tolist())
            assert hit, (p, q)


class TestRotationRelation:
    def test_even_p_sequences_equal(self):
        report = rotation_relation(TorusKnot(4, 7))
        assert report.passed and report.shift == 0
        assert report.sequence == report.shifted_sequence

    def test_odd_p_shift_examples(self):
        report = rotation_relation(TorusKnot(5, 12))
        assert report.passed and report.shift == 2
        report = rotation_relation(TorusKnot(3, 4))
        assert report.passed and report.shift == 1
        assert report.sequence == (-1, 1) and report.shifted_sequence == (1, -1)

    def test_verdict_is_derived_from_the_sequences(self):
        assert "passed" not in {f.name for f in dataclasses.fields(RotationReport)}
        report = rotation_relation(TorusKnot(3, 4))
        assert not dataclasses.replace(report, shifted_sequence=report.sequence).passed
        assert not dataclasses.replace(report, shift=0).passed

    def test_grid(self):
        for p, q in coprime_pairs(14, 30):
            assert rotation_relation(TorusKnot(p, q)).passed, (p, q)

    @settings(max_examples=100, deadline=None)
    @given(coprime_knots(5000, p_min=2))
    def test_sampled_against_sorted_reference(self, knot):
        p, q = knot.p, knot.q
        seq = sorted_balanced_sequence(distance_profile_loop(knot))
        shifted = sorted_balanced_sequence(distance_profile_loop(TorusKnot(p, q + p)))
        shift = 0 if p % 2 == 0 else (p - 1) // 2
        report = rotation_relation(knot)
        assert report.sequence == seq and report.shifted_sequence == shifted
        assert report.shift == shift
        assert report.passed == (shifted == seq[shift:] + seq[:shift])
        assert report.passed

    def test_unknot_rejected(self):
        with pytest.raises(InvalidParameter):
            rotation_relation(TorusKnot(1, 4))


class TestG4LowerBound:
    @pytest.mark.parametrize("p,q,expected", [(3, 7, 5), (5, 12, 15), (1, 9, 0)])
    def test_examples(self, p, q, expected):
        assert g4_lower_bound(TorusKnot(p, q)) == expected

    def test_half_of_even_max_signature(self):
        for p, q in coprime_pairs(9, 20):
            knot = TorusKnot(p, q)
            assert max_signature(knot) % 2 == 0
            assert g4_lower_bound(knot) * 2 == max_signature(knot)
