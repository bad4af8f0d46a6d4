import inspect
import math

import pytest
from hypothesis import given, strategies as st

import torsig
from torsig import core, identities, lattice, maxsig, oracle
from torsig.core import (
    InvalidParameter,
    NotCoprime,
    OutOfRange,
    RationalAngle,
    TorusKnot,
)


class TestTorusKnot:
    def test_basic_construction(self):
        k = TorusKnot(4, 7)
        assert (k.p, k.q) == (4, 7)

    def test_swap_normalization(self):
        assert TorusKnot(7, 4) == TorusKnot(4, 7)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            TorusKnot(4, 6)

    def test_equal_parameters_rejected_unless_unknot(self):
        assert TorusKnot(1, 1).is_unknot()
        with pytest.raises(NotCoprime):
            TorusKnot(3, 3)

    @pytest.mark.parametrize("p,q", [(0, 3), (3, 0), (-2, 3)])
    def test_nonpositive_rejected(self, p, q):
        with pytest.raises(InvalidParameter):
            TorusKnot(p, q)

    @pytest.mark.parametrize("p,q", [(True, 3), (3, True), (2, True), (False, 3)])
    def test_bool_rejected(self, p, q):
        # bool is an int subclass; True would pass as 1 and print as T(True,3)
        with pytest.raises(InvalidParameter):
            TorusKnot(p, q)

    def test_unknot_family(self):
        k = TorusKnot(1, 9)
        assert k.is_unknot() and k.seifert_rank() == 0

    @given(st.integers(1, 200), st.integers(1, 200))
    def test_swap_idempotent(self, a, b):
        if math.gcd(a, b) != 1:
            with pytest.raises(NotCoprime):
                TorusKnot(a, b)
        else:
            assert TorusKnot(a, b) == TorusKnot(b, a)
            assert TorusKnot(a, b).p <= TorusKnot(a, b).q

    def test_hashable_and_frozen(self):
        k = TorusKnot(2, 3)
        assert len({k, TorusKnot(3, 2)}) == 1
        with pytest.raises(Exception):
            k.p = 5


class TestSeifertRank:
    @pytest.mark.parametrize("p,q,rank", [(2, 3, 2), (4, 7, 18), (1, 9, 0)])
    def test_examples(self, p, q, rank):
        assert TorusKnot(p, q).seifert_rank() == rank


class TestRationalAngle:
    def test_basic(self):
        t = RationalAngle(1, 4)
        assert (t.numerator, t.denominator) == (1, 4)

    def test_reduction(self):
        assert RationalAngle(2, 8) == RationalAngle(1, 4)

    @pytest.mark.parametrize("n,d", [(0, 5), (5, 5), (7, 5), (-1, 5)])
    def test_out_of_range(self, n, d):
        with pytest.raises(OutOfRange):
            RationalAngle(n, d)

    def test_bad_denominator(self):
        with pytest.raises(InvalidParameter):
            RationalAngle(1, 0)

    @pytest.mark.parametrize("n,d", [(True, 2), (1, True), (False, True)])
    def test_bool_rejected(self, n, d):
        with pytest.raises(InvalidParameter):
            RationalAngle(n, d)

    def test_parse(self):
        assert RationalAngle.parse("3/12") == RationalAngle(1, 4)
        for bad in ("0.25", "1", "1/2/3", "a/b", "1_0/30", "+1/2", "-1/2", " 1/ 2",
                    "1/2\n", "\uff11/\uff12", "\u0661/\u0662"):
            with pytest.raises(InvalidParameter):
                RationalAngle.parse(bad)

    @given(st.integers(1, 500), st.integers(2, 500))
    def test_always_reduced_and_interior(self, n, d):
        if not 0 < n < d:
            with pytest.raises(OutOfRange):
                RationalAngle(n, d)
        else:
            t = RationalAngle(n, d)
            assert math.gcd(t.numerator, t.denominator) == 1
            assert 0 < t.numerator < t.denominator

    def test_parse_caps_digits(self):
        assert RationalAngle.parse("1/" + "9" * 2000).denominator == 10**2000 - 1
        for bad in ("1/" + "7" * 2001, "0" * 2001 + "1/2"):
            with pytest.raises(InvalidParameter, match="at most 2000 digits"):
                RationalAngle.parse(bad)

    def test_str_roundtrip(self):
        t = RationalAngle(3, 14)
        assert RationalAngle.parse(str(t)) == t


def test_package_exports_each_modules_all_once():
    """`torsig` re-exports the five `__all__` lists, and no test reference."""
    modules = (core, lattice, maxsig, identities, oracle)
    declared = [(name, module) for module in modules for name in module.__all__]
    public = {name for name, value in vars(torsig).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {name for name, _ in declared} and len(public) == len(declared)
    for name, module in declared:
        assert getattr(torsig, name) is getattr(module, name), name
    references = {"alexander_from_seifert", "torus_alexander", "hermitian_signature"}
    assert not references & public
    assert all(callable(getattr(oracle, name)) for name in references)
