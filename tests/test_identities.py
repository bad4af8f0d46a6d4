import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reference import (
    distance_profile_loop,
    ordering_holds_sorted,
    sorted_balanced_sequence,
)
from torsig import identities, maxsig
from torsig.core import InvalidParameter, NotCoprime, TorusKnot
from torsig.identities import (
    IdentityReport,
    check_closed_forms,
    check_even_periodicity,
    check_glm,
    check_main_recursion,
    check_odd_shift_identity,
)
from torsig.lattice import classical_signature
from torsig.maxsig import distance_profile, max_signature


def coprime_pairs(p_max, q_max):
    return [
        (p, q)
        for p in range(2, p_max + 1)
        for q in range(p + 1, q_max + 1)
        if math.gcd(p, q) == 1
    ]


def odd_shift_case(p, q):
    """A test_report_fields row for the odd-shift identity, its increment
    (p-1)(p+3)/2 - 4*#{D > p} and its D read off the loop profile."""
    D = list(distance_profile_loop(TorusKnot(p, q)).D.values())
    above = sum(value > p for value in D)
    return (check_odd_shift_identity, "odd-shift", classical_signature, "sigma_base",
            p, q, p, (p - 1) * (p + 3) // 2 - 4 * above, {"D": D, "above": above})


class TestRecursionReports:
    """The four recursions f(T(p,q+s)) = f(T(p,q)) + c share one report shape."""

    @pytest.mark.parametrize(
        "check,name,kernel,key,p,q,s,increment,extra",
        [
            (check_glm, "glm", classical_signature, "sigma_base", 4, 7, 8, 16, {}),
            (check_glm, "glm", classical_signature, "sigma_base", 3, 5, 6, 8, {}),
            (check_even_periodicity, "even-periodicity", classical_signature, "sigma_base",
             4, 7, 4, 8, {}),
            (check_main_recursion, "main-recursion", max_signature, "sigma_hat_base",
             4, 7, 4, 8, {}),
            (check_main_recursion, "main-recursion", max_signature, "sigma_hat_base",
             5, 12, 5, 12, {}),
            odd_shift_case(5, 12),
            odd_shift_case(9, 20),
        ],
    )
    def test_report_fields(self, check, name, kernel, key, p, q, s, increment, extra):
        report = check(p, q)
        base = kernel(TorusKnot(p, q))
        assert report.identity_name == name
        assert report.knot_params == ((p, q), (p, q + s))
        assert report.details == {key: base, "increment": increment, **extra}
        assert report.expected == base + increment
        assert report.computed == kernel(TorusKnot(p, q + s))

    def test_verdict_is_derived_from_the_values(self):
        assert "passed" not in {f.name for f in dataclasses.fields(IdentityReport)}
        report = check_glm(2, 3)
        assert report.passed
        assert not dataclasses.replace(report, computed=report.computed + 1).passed
        assert IdentityReport("x", (), 1, 1).passed and not IdentityReport("x", (), 1, 2).passed


class TestGlm:
    def test_two_strand(self):
        report = check_glm(2, 3)
        assert report.passed and report.computed == 6

    def test_even_example(self):
        report = check_glm(4, 7)
        assert report.passed
        assert report.computed == 30  # floor sum for T(4,15)
        assert classical_signature(TorusKnot(4, 15)) == 30

    def test_odd_example(self):
        report = check_glm(3, 5)
        assert report.passed
        assert report.expected == classical_signature(TorusKnot(3, 5)) + 8

    def test_not_coprime_propagates(self):
        with pytest.raises(NotCoprime):
            check_glm(4, 6)

    def test_grid(self):
        for p, q in coprime_pairs(14, 60):
            assert check_glm(p, q).passed, (p, q)


class TestEvenPeriodicity:
    @pytest.mark.parametrize("p,q,total", [(4, 7, 22), (2, 3, 4), (6, 7, 36)])
    def test_examples(self, p, q, total):
        report = check_even_periodicity(p, q)
        assert report.passed and report.computed == total

    def test_odd_p_refused(self):
        with pytest.raises(InvalidParameter):
            check_even_periodicity(3, 5)

    def test_grid(self):
        for p, q in coprime_pairs(14, 60):
            if p % 2 == 0:
                assert check_even_periodicity(p, q).passed, (p, q)

    def test_odd_counterexample_exists(self):
        # the odd-p analogue of the even-p periodicity is false: T(3,4)
        assert classical_signature(TorusKnot(3, 7)) != classical_signature(TorusKnot(3, 4)) + 4


class TestMainRecursion:
    @pytest.mark.parametrize("p,q,total", [(5, 12, 42), (4, 7, 22), (2, 5, 6)])
    def test_examples(self, p, q, total):
        report = check_main_recursion(p, q)
        assert report.passed and report.computed == total

    def test_grid(self):
        for p, q in coprime_pairs(14, 60):
            assert check_main_recursion(p, q).passed, (p, q)

    def test_twice_is_glm_for_even_p(self):
        for p, q in coprime_pairs(12, 30):
            if p % 2 == 1:
                continue
            # two steps of the peak recursion equal one classical step
            first = check_main_recursion(p, q)
            second = check_main_recursion(p, q + p)
            assert first.passed and second.passed
            delta_hat = max_signature(TorusKnot(p, q + 2 * p)) - max_signature(TorusKnot(p, q))
            delta_sigma = classical_signature(TorusKnot(p, q + 2 * p)) - classical_signature(TorusKnot(p, q))
            assert delta_hat == delta_sigma == p * p

    def test_requires_p_less_than_q(self):
        with pytest.raises(InvalidParameter):
            check_main_recursion(5, 3)


class TestOddShift:
    def test_worked_example(self):
        report = check_odd_shift_identity(5, 12)
        assert report.passed
        assert report.computed == 40
        assert report.details["above"] == 1

    def test_small_examples(self):
        report = check_odd_shift_identity(3, 4)
        assert report.passed and report.computed == 8
        report = check_odd_shift_identity(3, 5)
        assert report.passed and report.computed == 10

    def test_even_p_refused(self):
        with pytest.raises(InvalidParameter):
            check_odd_shift_identity(4, 7)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4999), st.integers(1, 10**9))
    def test_no_distance_equals_p(self, half, offset):
        # why #{D < p} + #{D > p} = (p-1)/2 needs no check of its own
        p = 2 * half + 1
        assume(math.gcd(p, offset) == 1)
        D = distance_profile(TorusKnot(p, p + offset)).D
        assert D.size == (p - 1) // 2
        assert not np.any(D == p)

    def test_grid(self):
        for p, q in coprime_pairs(59, 60):
            if p % 2 == 1:
                assert check_odd_shift_identity(p, q).passed, (p, q)


class TestClosedForms:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_examples(self, p):
        reports = check_closed_forms(p)
        assert all(r.passed for r in reports)

    def test_specific_values(self):
        assert max_signature(TorusKnot(3, 7)) == 10
        assert max_signature(TorusKnot(4, 5)) == classical_signature(TorusKnot(4, 5)) + 2
        assert max_signature(TorusKnot(5, 6)) == classical_signature(TorusKnot(5, 6))

    def test_range(self):
        for p in range(2, 61):
            assert all(r.passed for r in check_closed_forms(p)), p

    @pytest.mark.parametrize("p", [2, 3, 10])
    def test_each_profile_built_once(self, monkeypatch, p):
        # one for T(p,p+1), shared by the gap and the ordering, one inside
        # max_signature(T(p,2p+1))
        calls = Counter()

        def counted(f):
            def wrapper(*args):
                calls[f.__name__] += 1
                return f(*args)
            return wrapper

        for name in ("distance_profile", "balanced_sequence"):
            wrapper = counted(getattr(maxsig, name))
            monkeypatch.setattr(maxsig, name, wrapper)
            monkeypatch.setattr(identities, name, wrapper)
        check_closed_forms(p)
        assert calls == {"distance_profile": 2, "balanced_sequence": 2}

    @pytest.mark.parametrize("p", [1, 0, -3])
    def test_p_below_2_refused(self, p):
        with pytest.raises(InvalidParameter, match="p >= 2"):
            check_closed_forms(p)

    def test_ordering_rejects_kinds_in_the_wrong_order(self):
        D = np.array([5, 3])  # decreasing, as even p requires
        assert identities._ordering_holds(4, D, np.array([1, 1, -1, -1]))
        assert identities._ordering_holds(5, D, np.array([-1, -1, 1, 1]))
        for p, kinds in ((4, [-1, -1, 1, 1]), (4, [1, -1, 1, -1]), (5, [1, 1, -1, -1])):
            assert not identities._ordering_holds(p, D, np.array(kinds)), (p, kinds)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5000))
    def test_ordering_sampled_against_sorted_reference(self, p):
        profile = distance_profile_loop(TorusKnot(p, p + 1))
        kinds = sorted_balanced_sequence(profile)
        report = check_closed_forms(p)[2]
        assert report.identity_name == "closed-form-ordering"
        assert report.details["sequence"] == kinds
        assert report.computed == int(ordering_holds_sorted(p, profile, kinds))
        assert report.passed


class TestHugeKnots:
    """The floor-sum kernels make the classical identities checkable far
    beyond any grid: each check below runs in well under a millisecond."""

    @pytest.mark.parametrize("p,q", [(10**12, 10**12 + 1), (10**12 + 1, 3 * 10**12 + 7)])
    def test_glm(self, p, q):
        assert check_glm(p, q).passed

    def test_even_periodicity(self):
        assert check_even_periodicity(10**12, 10**12 + 1).passed
        assert check_even_periodicity(2 * 10**12, 10**13 + 1).passed
