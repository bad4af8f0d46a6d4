import concurrent.futures
import functools
import inspect
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torsig.cli import main
from torsig.core import InvalidParameter, RationalAngle, TorusKnot
from torsig.lattice import classical_signature, lt_signature, signature_step_function
from torsig.maxsig import max_signature
from torsig import oracle
from torsig.oracle import (
    _PRIME,
    BraidWord,
    NearSingular,
    ValidationFailure,
    alexander_from_seifert,
    brute_force_max,
    hermitian_signature,
    oracle_step_function,
    seifert_matrix,
    torus_alexander,
    torus_braid,
    torus_seifert_matrix,
)

from reference import (
    charpoly_mod_interp,
    cyclotomic,
    cyclotomic_torus_alexander,
    has_repeated_root_mod,
    krylov_rows,
    monodromy_rows,
    pieces_as_fractions,
    seifert_bricks_loop,
    torus_alexander_by_division,
)


def coprime_pairs(p_max, q_max):
    return [
        (p, q)
        for p in range(2, p_max + 1)
        for q in range(p + 1, q_max + 1)
        if math.gcd(p, q) == 1
    ]


def pencil_det_bruteforce(entries):
    """Independent oracle for det(A - t*A^T): exact Fraction evaluation at
    n+1 integer points followed by Lagrange interpolation.  Usable for the
    small matrices only."""
    n = len(entries)
    if n == 0:
        return (1,)
    points = list(range(n + 1))
    values = []
    for e in points:
        m = [
            [Fraction(entries[i][j] - e * entries[j][i]) for j in range(n)]
            for i in range(n)
        ]
        # fraction Gaussian elimination
        det = Fraction(1)
        for k in range(n):
            pivot_row = next((r for r in range(k, n) if m[r][k] != 0), None)
            if pivot_row is None:
                det = Fraction(0)
                break
            if pivot_row != k:
                m[k], m[pivot_row] = m[pivot_row], m[k]
                det = -det
            det *= m[k][k]
            inv = 1 / m[k][k]
            for r in range(k + 1, n):
                f = m[r][k] * inv
                for c in range(k, n):
                    m[r][c] -= f * m[k][c]
        values.append(det)
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if i == j:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
            denom *= xi - xj
        weight = values[i] / denom
        for k in range(len(basis)):
            coeffs[k] += weight * basis[k]
    out = [int(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def random_knot_braids(seed, count, max_strands=5, max_rank=10):
    """Seeded random positive braid words whose closure is a knot."""
    rng = random.Random(seed)
    braids = []
    while len(braids) < count:
        strands = rng.randint(2, max_strands)
        length = rng.randint(strands - 1, strands - 1 + max_rank)
        braid = BraidWord(strands, tuple(rng.randint(1, strands - 1) for _ in range(length)))
        if braid.closure_components() == 1:
            braids.append(braid)
    return braids


def assert_unit_upper_triangular(matrix):
    a = matrix.entries
    assert not np.tril(a, -1).any()
    diagonal = set(a.diagonal().tolist())
    assert diagonal in ({1}, {-1}, set())


def associates(f, g):
    f, g = list(f), list(g)
    while f and f[0] == 0:
        f.pop(0)
    while g and g[0] == 0:
        g.pop(0)
    return f == g or f == [-x for x in g]


def flipped_interleave(knot):
    """The brick matrix of the torus braid with its first +1 off the diagonal,
    which only the interleave rule makes, turned to -1."""
    entries = seifert_matrix(torus_braid(knot)).entries.copy()
    entries[tuple(np.argwhere(np.triu(entries, 1) == 1)[0])] = -1
    return entries


def start_vector(n):
    """The start vector `torus_seifert_matrix` draws at rank n."""
    return random.Random(n).choices(range(1, 64), k=n)


def exact_krylov(entries, v, knot):
    """g of `_exact_krylov` on one case, or the TorsigError it gives, raised."""
    [g] = oracle._exact_krylov([lambda: (entries, v, knot.p, knot.q)])
    return oracle._raised(g)


def validate_as_torus(entries, knot):
    """What `torus_seifert_matrix` checks, on a given matrix, with its start vector."""
    entries = np.asarray(entries)
    return exact_krylov(entries, start_vector(len(entries)), knot)


def phi_start(knot, d):
    """`_exact_krylov` from Phi_d(M) v instead of v: its Phi_d component is zero."""
    entries = seifert_matrix(torus_braid(knot)).entries
    c = np.array(cyclotomic(d), dtype=np.int64)
    y = krylov_rows(entries, start_vector(len(entries)), len(c))
    return exact_krylov(entries, c @ y, knot)


def with_oracle(name, wrap, call):
    """call() with oracle.<name> replaced by wrap(the real one), restored afterwards."""
    real = getattr(oracle, name)
    setattr(oracle, name, wrap(real))
    try:
        return call()
    finally:
        setattr(oracle, name, real)


def links(a):
    """The links (rows, cols, values) of a dense matrix: its nonzeros."""
    rows, cols = np.nonzero(a)
    return rows, cols, np.asarray(a)[rows, cols]


def csr(m):
    """M's nonzeros by row, as `_monodromy` gives them: (cols, values, starts)."""
    rows, cols = np.nonzero(m)
    return cols, m[rows, cols], np.searchsorted(rows, np.arange(len(m) + 1))


def dense(cols, values, starts):
    """The n x n int64 matrix of a CSR (cols, values, starts)."""
    n = len(starts) - 1
    m = np.zeros((n, n), np.int64)
    m[np.repeat(np.arange(n), np.diff(starts)), cols] = values
    return m


def sparse_monodromy(a):
    """`_monodromy` of the one block a, densified; its ValidationFailure raised."""
    a = np.asarray(a, dtype=np.int64)
    cols, values, starts, [error] = oracle._monodromy(*links(a), np.array([0, len(a)]))
    if error:
        raise error
    return dense(cols, values, starts)


def with_values(change):
    """A wrapper of `_monodromy` that applies change to the values of M."""
    def wrap(monodromy):
        def wrapped(*args):
            cols, values, starts, errors = monodromy(*args)
            return cols, change(values), starts, errors
        return wrapped
    return wrap


negated = with_values(lambda values: -values)  # -M


def assert_validates_exactly(matrix, pencil):
    """Validation accepts the pencil, and rejects it with any one coefficient changed."""
    alexander_from_seifert(matrix, pencil)
    for k in range(len(pencil)):
        wrong = list(pencil)
        wrong[k] += 1
        with pytest.raises(ValidationFailure):
            alexander_from_seifert(matrix, wrong)


class TestBraidWord:
    def test_torus_braid_trefoil(self):
        braid = torus_braid(TorusKnot(2, 3))
        assert braid.strands == 2 and braid.letters == (1, 1, 1)

    def test_torus_braid_t34(self):
        braid = torus_braid(TorusKnot(3, 4))
        assert braid.strands == 3
        assert braid.letters == (2, 1, 2, 1, 2, 1, 2, 1)

    def test_torus_braid_unknot(self):
        braid = torus_braid(TorusKnot(1, 9))
        assert braid.strands == 1 and braid.letters == ()
        assert braid.closure_components() == 1

    def test_letter_validation(self):
        with pytest.raises(InvalidParameter):
            BraidWord(3, (0,))
        with pytest.raises(InvalidParameter):
            BraidWord(3, (3,))
        with pytest.raises(InvalidParameter):
            BraidWord(3, (True, 2))
        with pytest.raises(InvalidParameter):
            BraidWord(True, ())
        with pytest.raises(InvalidParameter):
            BraidWord(2.0, (1,))
        with pytest.raises(InvalidParameter, match="letter 3 outside"):  # the first bad letter
            BraidWord(3, (2, 1, 3, 0, 1.0))
        with pytest.raises(InvalidParameter, match="letter 1.0 outside"):
            BraidWord(3, (2, 1, 1.0, 0))

    def test_connectivity(self):
        assert BraidWord(3, (1, 2)).closure_components() == 1
        assert BraidWord(3, (1, 1)).closure_components() == 3
        assert BraidWord(2, ()).closure_components() == 2

    def test_disconnected_closure_rejected(self):
        with pytest.raises(InvalidParameter):
            seifert_matrix(BraidWord(3, (1, 1)))


class TestSeifertMatrix:
    def test_trefoil_matrix(self):
        matrix = torus_seifert_matrix(TorusKnot(2, 3))
        assert matrix.size == 2
        eigenvalues = np.linalg.eigvalsh((matrix.entries + matrix.entries.T).astype(float))
        assert int((eigenvalues > 0).sum() - (eigenvalues < 0).sum()) == 2
        alexander_from_seifert(matrix, (1, -1, 1))
        # independent dual route for the pencil determinant
        assert associates(pencil_det_bruteforce(matrix.entries), (1, -1, 1))

    def test_t34_matrix(self):
        matrix = torus_seifert_matrix(TorusKnot(3, 4))
        assert matrix.size == 6  # word length 8, 3 strands

    def test_entries_are_one_read_only_int64_array(self):
        matrix = torus_seifert_matrix(TorusKnot(3, 4))
        assert matrix.entries.dtype == np.int64 and matrix.entries.shape == (6, 6)
        with pytest.raises(ValueError):
            matrix.entries[0, 1] = 5
        with pytest.raises(ValueError):
            matrix.entries += 1

    def test_unknot_matrix(self):
        matrix = torus_seifert_matrix(TorusKnot(1, 5))
        assert matrix.size == 0
        assert_validates_exactly(matrix, (1,))
        alexander_from_seifert(matrix, (-1,))

    def test_size_is_rank_on_grid(self):
        for p, q in coprime_pairs(7, 11):
            knot = TorusKnot(p, q)
            assert torus_seifert_matrix(knot).size == knot.seifert_rank()

    def test_pencil_matches_bruteforce_on_small_knots(self):
        for p, q in [(2, 5), (2, 7), (3, 4), (3, 5)]:
            matrix = torus_seifert_matrix(TorusKnot(p, q))
            assert_validates_exactly(matrix, pencil_det_bruteforce(matrix.entries))

    def test_unit_upper_triangular_on_torus_grid(self):
        pairs = [(p, q) for p, q in coprime_pairs(12, 201) if (p - 1) * (q - 1) <= 200]
        assert len(pairs) > 300
        for p, q in pairs:
            assert_unit_upper_triangular(seifert_matrix(torus_braid(TorusKnot(p, q))))

    def test_unit_upper_triangular_on_random_braids(self):
        for braid in random_knot_braids(seed=2212, count=300, max_strands=8, max_rank=40):
            assert_unit_upper_triangular(seifert_matrix(braid))

    def test_bricks_match_loop_reference_on_torus_grid(self):
        pairs = [(p, q) for p, q in coprime_pairs(12, 201) if (p - 1) * (q - 1) <= 200]
        for p, q in pairs:
            braid = torus_braid(TorusKnot(p, q))
            assert seifert_matrix(braid).entries.tolist() == seifert_bricks_loop(braid)

    def test_bricks_match_loop_reference_on_random_braids(self):
        for braid in random_knot_braids(seed=2212, count=300, max_strands=16, max_rank=120):
            assert seifert_matrix(braid).entries.tolist() == seifert_bricks_loop(braid)

    def test_entries_are_signs(self):
        # the int64 bound on the jump sequence g of `oracle_step_function` rests on this
        braids = [torus_braid(TorusKnot(p, q)) for p, q in TestExactValidation.LADDER]
        braids += random_knot_braids(seed=2212, count=300, max_strands=8, max_rank=40)
        for braid in braids:
            assert set(seifert_matrix(braid).entries.flat) <= {-1, 0, 1}, braid

    def test_pencil_matches_bruteforce_on_random_braids(self):
        refused = 0
        for braid in random_knot_braids(seed=9604, count=40):
            matrix = seifert_matrix(braid)
            pencil = pencil_det_bruteforce(matrix.entries)
            n = matrix.size
            assert set(oracle._monodromy(*links(matrix.entries), [0, n])[1]) <= {-1, 0, 1}, braid
            try:
                assert_validates_exactly(matrix, pencil)
            except ValidationFailure:
                # the Krylov sequence falls short of degree n only when
                # minpoly(M) != charpoly(M), which needs a repeated root
                assert has_repeated_root_mod(pencil, _PRIME), braid
                refused += 1
        assert refused == 1  # pencil (1 - t + t^2 - t^3 + t^4)^2

    def test_validation_failure_on_wrong_target(self):
        matrix = seifert_matrix(torus_braid(TorusKnot(2, 5)))
        with pytest.raises(ValidationFailure):
            alexander_from_seifert(matrix, torus_alexander(TorusKnot(2, 3)))

    def test_general_positive_braid(self):
        # same closure as T(2,3) but presented on three strands
        matrix = seifert_matrix(BraidWord(3, (2, 1, 2, 1)))
        alexander_from_seifert(matrix, torus_alexander(TorusKnot(2, 3)))
        assert matrix.size == 2


class TestAlexanderContract:
    def test_primes_are_prime_and_fit_the_int64_bound(self):
        # prime and below 2^26; the largest pq within _MAX_RANK, 2 * 2049,
        # also bounds the integer sums of `_exact_krylov`
        assert _PRIME < 2**26
        assert all(_PRIME % d for d in range(2, math.isqrt(_PRIME) + 1))
        largest_pq = max(
            p * q
            for p in range(2, oracle._MAX_RANK + 2)
            for q in range(p + 1, oracle._MAX_RANK // (p - 1) + 2)
        )
        assert largest_pq == 2 * 2049 < _PRIME

    @pytest.mark.parametrize(
        "entries",
        [
            [[1, 0], [1, 1]],  # lower-triangular entry
            [[1, 1], [0, 2]],  # diagonal entry 2
            [[0, 1], [0, 1]],  # zero on the diagonal
            [[1, 1, 0], [0, 1, 1]],  # not square
            [1, 1],  # not a matrix
        ],
    )
    def test_outside_contract_rejected(self, entries):
        with pytest.raises(InvalidParameter):
            alexander_from_seifert(entries, (1, -1, 1))

    def test_over_rank_rejected(self):
        with pytest.raises(InvalidParameter, match="rank 2049"):
            alexander_from_seifert(np.eye(2049, dtype=np.int64), (1,) * 2050)

    def test_over_rank_braid_rejected_before_bricks(self, monkeypatch):
        def refuse(braid):
            raise AssertionError("built the bricks of an over-rank braid")

        monkeypatch.setattr(oracle, "_brick_matrix", refuse)
        with pytest.raises(InvalidParameter, match="rank 2668"):
            torus_seifert_matrix(TorusKnot(47, 59))

    def test_rank_limit_is_the_int64_bound(self):
        n, bound = oracle._MAX_RANK, oracle._ENTRY_BOUND
        assert n == 2048
        assert n * (_PRIME - 1) ** 2 < 2**63 <= (n + 1) * (_PRIME - 1) ** 2
        # a Berlekamp-Massey discrepancy: at most n products plus one residue
        assert n * (_PRIME - 1) ** 2 + _PRIME < 2**63
        # a back-substitution row: n products of entries plus one entry
        assert n * (bound - 1) ** 2 + bound < 2**63
        # a Krylov mat-vec row: n products of an entry of M and one of y below 2^31
        assert n * (bound - 1) * (2**31 - 1) < 2**63
        # w_d: tau(d) <= pq <= 2 * 2049 terms, each at most pq 2^31
        assert (2 * 2049) ** 2 * 2**31 < 2**63

    def test_flipped_interleave_sign_rejected(self):
        knot = TorusKnot(7, 20)
        with pytest.raises(ValidationFailure):
            alexander_from_seifert(flipped_interleave(knot), torus_alexander(knot))

    def test_one_sign_for_all_primes(self):
        # one sign for all coefficients: +Delta on the even powers of t and
        # -Delta on the odd ones fails
        knot = TorusKnot(3, 4)
        delta = torus_alexander(knot)
        mixed = [c if k % 2 == 0 else -c for k, c in enumerate(delta)]
        assert any(c for c in delta[::2]) and any(c for c in delta[1::2])
        with pytest.raises(ValidationFailure):
            alexander_from_seifert(seifert_matrix(torus_braid(knot)), mixed)

    def test_short_sequence_retried_with_fresh_vectors(self, monkeypatch):
        matrix = seifert_matrix(torus_braid(TorusKnot(3, 4)))
        sequences, real = [], oracle._minpoly_mod

        def short_once(s, p):
            sequences.append(s.copy())
            return real(s, p)[: 1 if len(sequences) == 1 else None]

        monkeypatch.setattr(oracle, "_minpoly_mod", short_once)
        alexander_from_seifert(matrix, torus_alexander(TorusKnot(3, 4)))
        assert len(sequences) == 2 and not np.array_equal(sequences[0], sequences[1])

    def test_gives_up_after_three_tries(self, monkeypatch):
        matrix = seifert_matrix(torus_braid(TorusKnot(3, 4)))
        calls, real = [], oracle._minpoly_mod

        def always_short(s, p):
            calls.append(p)
            return real(s, p)[:3]

        monkeypatch.setattr(oracle, "_minpoly_mod", always_short)
        with pytest.raises(ValidationFailure, match=f"mod {_PRIME} reaches degree 2, not 6"):
            alexander_from_seifert(matrix, torus_alexander(TorusKnot(3, 4)))
        assert calls == [_PRIME] * 3

    @pytest.mark.parametrize(
        "entries,expected",
        [
            ([[1, -1.0], [0, 1]], (1, -1, 1)),  # float entries of the trefoil's value
            ([[1, -1.4], [0, 1]], (1, -1, 1)),  # float entries, truncated before
            (np.eye(2, dtype=bool), (1, -2, 1)),  # bool entries
            (np.array([[1, -1], [0, 1]], dtype=object), (1, -1, 1)),  # object entries
            ([[1, -1], [0, 1]], (1, -1.5, 1)),  # a float coefficient
            ([[1, -1], [0, 1]], (True, -1, True)),  # bool coefficients
            ([[1, -1], [0, 1]], (1, np.int64(-1), 1)),  # a numpy coefficient
        ],
        ids=["float", "fraction", "bool", "object", "float-coeff", "bool-coeff", "numpy-coeff"],
    )
    def test_non_integer_input_refused(self, entries, expected):
        with pytest.raises(InvalidParameter):
            alexander_from_seifert(entries, expected)

    def test_entry_of_a_over_the_bound_refused(self):
        with pytest.raises(InvalidParameter, match="below 2\\^21"):
            alexander_from_seifert([[1, -(2**21)], [0, 1]], (1, 0, 1))

    def test_entry_of_m_over_the_bound_fails(self):
        # A = [[1, -k], [0, 1]] gives M = [[1 - k^2, k], [-k, 1]]
        with pytest.raises(ValidationFailure, match="row 0"):
            alexander_from_seifert([[1, -(2**11)], [0, 1]], (1, -(2**22) + 2, 1))

    @pytest.mark.parametrize("k", [2**11, 2**20])
    def test_last_row_over_the_bound_is_named(self, k):
        # A = I + k (superdiagonal): M[4] = (0, 0, 0, k, 1) and
        # M[3] = (0, 0, k, 1 - k^2, -k), the last row over 2^21; rows 2, 1
        # and 0 grow like k^3, k^4 and k^5, which wrap int64 at k = 2^20
        a = np.eye(5, dtype=np.int64) + np.diag(np.full(4, k), 1)
        with pytest.raises(ValidationFailure, match="row 3 "):
            sparse_monodromy(a)

    def test_returns_the_exact_monodromy(self):
        a = seifert_matrix(torus_braid(TorusKnot(5, 12))).entries
        m = alexander_from_seifert(a, torus_alexander(TorusKnot(5, 12)))
        assert m.dtype == np.int64 and not m.flags.writeable
        assert np.array_equal(a @ m, a.T)
        assert set(m.flat) <= {-1, 0, 1}

    def test_braid_too_short_for_a_knot_refused_before_the_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("walked or built a braid that cannot close to a knot")

        monkeypatch.setattr(oracle, "_brick_matrix", refuse)
        monkeypatch.setattr(BraidWord, "closure_components", refuse)
        with pytest.raises(InvalidParameter, match="rank -1"):
            seifert_matrix(BraidWord(5, (1, 2, 3)))
        with pytest.raises(InvalidParameter, match="rank -1"):
            seifert_matrix(BraidWord(2, ()))

    def test_over_rank_braid_refused_before_the_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("walked or built an over-rank braid")

        monkeypatch.setattr(oracle, "_brick_matrix", refuse)
        monkeypatch.setattr(BraidWord, "closure_components", refuse)
        with pytest.raises(InvalidParameter, match="rank 2050"):
            seifert_matrix(BraidWord(2, (1,) * 2051))

    def test_negative_diagonal_accepted(self):
        raw = -torus_seifert_matrix(TorusKnot(3, 4)).entries
        alexander_from_seifert(raw, torus_alexander(TorusKnot(3, 4)))
        assert_validates_exactly(raw, pencil_det_bruteforce(raw.tolist()))


def monodromy_outcome(monodromy, a):
    """monodromy(a) as nested lists, or the message of its ValidationFailure."""
    try:
        return monodromy(np.asarray(a, dtype=np.int64)).tolist()
    except ValidationFailure as error:
        return str(error)


SIGNS = st.sampled_from([1, -1])
# small entries, and entries that drive M past 2^21 within a few rows
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(2**20), 2**20))


@st.composite
def upper_triangular(draw, max_n=12):
    """A random upper-triangular matrix with diagonal +-1, sparse or dense."""
    n = draw(st.integers(0, max_n))
    a = np.diag(draw(st.lists(SIGNS, min_size=n, max_size=n))).astype(np.int64)
    density = draw(st.sampled_from([0.1, 0.4, 1.0]))
    for i, j in zip(*np.triu_indices(n, 1)):
        if draw(st.floats(0, 1)) < density:
            a[i, j] = draw(ENTRIES)
    return a


@st.composite
def chains(draw, max_n=16):
    """Rows linked into chains by U[k,k+1] = -1 (U = diag(A) A), with some
    links broken by +1 or 0 or by a -1 diagonal beside a -1 superdiagonal
    (a run of one row), and far entries dropped inside the chains."""
    n = draw(st.integers(1, max_n))
    sign = np.array(draw(st.lists(SIGNS, min_size=n, max_size=n)), dtype=np.int64)
    a = np.diag(sign)
    for k in range(n - 1):
        a[k, k + 1] = draw(st.sampled_from([-sign[k], -sign[k], -sign[k], -1, 1, 0]))
    for _ in range(draw(st.integers(0, n))):
        i = draw(st.integers(0, n - 1))
        if i + 2 < n:
            a[i, draw(st.integers(i + 2, n - 1))] = draw(ENTRIES)
    return a


@st.composite
def banded_runs(draw):
    """Runs of rows linked by U[k,k+1] = -1, as the bricks of one generator
    are, each coupled to the next run by bands: entries at one offset from
    the diagonal on consecutive rows, of one value or of mixed values."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n = sum(lengths)
    sign = np.array(draw(st.lists(SIGNS, min_size=n, max_size=n)), dtype=np.int64)
    a = np.diag(sign)
    firsts = np.cumsum([0, *lengths]).tolist()
    for lo, hi, end in zip(firsts, firsts[1:], firsts[2:] + [n]):
        for k in range(lo, hi - 1):
            a[k, k + 1] = -sign[k]
        for _ in range(draw(st.integers(0, 2)) if hi < n else 0):
            offset = draw(st.integers(hi - lo, end - 1 - lo))
            same = st.sampled_from([-1, 1, 2]).map(lambda v: [v] * (hi - lo))
            mixed = st.lists(st.sampled_from([-1, 1, 2]), min_size=hi - lo, max_size=hi - lo)
            for k, value in zip(range(lo, hi), draw(st.one_of(same, mixed))):
                if k + offset < n:
                    a[k, k + offset] = value
    return a


@st.composite
def any_block(draw):
    """A block of a batch: of any kind above, a brick matrix, or rank 0 or 1."""
    torus = st.sampled_from([(2, 3), (3, 4), (3, 7), (4, 5), (5, 6), (4, 11), (7, 8)])
    return draw(st.one_of(
        upper_triangular(max_n=8), chains(max_n=10), banded_runs(),
        st.integers(0, 2**32).map(lambda seed: seifert_matrix(
            random_knot_braids(seed, count=1, max_strands=8, max_rank=40)[0]).entries),
        torus.map(lambda pq: seifert_matrix(torus_braid(TorusKnot(*pq))).entries),
        st.sampled_from([np.zeros((0, 0), np.int64), np.eye(1, dtype=np.int64),
                         -np.eye(1, dtype=np.int64)])))


def batch_outcomes(blocks):
    """`_monodromy` of the blocks as one block-diagonal A: each block's M as
    nested lists, or the message of its ValidationFailure."""
    first = np.cumsum([0, *map(len, blocks)])
    parts = [(rows + f, cols + f, values) for (rows, cols, values), f
             in zip(map(links, blocks), first)]
    cols, values, starts, errors = oracle._monodromy(*map(np.concatenate, zip(*parts)), first)
    return [str(error) if error else
            dense(cols[starts[lo] : starts[hi]] - lo, values[starts[lo] : starts[hi]],
                  starts[lo : hi + 1] - starts[lo]).tolist()
            for lo, hi, error in zip(first, first[1:], errors)]


class TestMonodromyRuns:
    """`_monodromy` by runs against the row-by-row `monodromy_rows`: the same
    M, or the same ValidationFailure naming the last row over 2^21."""

    @settings(max_examples=300, deadline=None)
    @given(upper_triangular())
    def test_random_upper_triangular(self, a):
        assert monodromy_outcome(sparse_monodromy, a) == monodromy_outcome(monodromy_rows, a)

    @settings(max_examples=300, deadline=None)
    @given(chains())
    def test_chains_with_far_entries_and_negative_diagonals(self, a):
        assert monodromy_outcome(sparse_monodromy, a) == monodromy_outcome(monodromy_rows, a)

    @settings(max_examples=300, deadline=None)
    @given(banded_runs())
    def test_runs_coupled_by_bands(self, a):
        assert monodromy_outcome(sparse_monodromy, a) == monodromy_outcome(monodromy_rows, a)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9), st.integers(-(2**20), 2**20))
    @example(5, 2**11)
    @example(5, 2**20)
    def test_identity_plus_k_superdiagonal(self, n, k):
        a = np.eye(n, dtype=np.int64) + np.diag(np.full(n - 1, k, dtype=np.int64), 1)
        assert monodromy_outcome(sparse_monodromy, a) == monodromy_outcome(monodromy_rows, a)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_random_braids(self, seed):
        [braid] = random_knot_braids(seed=seed, count=1, max_strands=16, max_rank=120)
        a = seifert_matrix(braid).entries
        assert monodromy_outcome(sparse_monodromy, a) == monodromy_outcome(monodromy_rows, a)

    def test_torus_grid_to_rank_200(self):
        pairs = [(p, q) for p, q in coprime_pairs(12, 201) if (p - 1) * (q - 1) <= 200]
        for p, q in pairs:
            a = seifert_matrix(torus_braid(TorusKnot(p, q))).entries
            assert np.array_equal(sparse_monodromy(a), monodromy_rows(a)), (p, q)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(any_block(), min_size=1, max_size=6))
    def test_batches_of_blocks(self, blocks):
        """Each block of a batch gets the M, or the refusal, of itself alone."""
        assert batch_outcomes(blocks) == [monodromy_outcome(monodromy_rows, a) for a in blocks]

    def test_one_block_over_the_bound_fails_alone(self):
        # the block of test_last_row_over_the_bound_is_named, among others
        big = np.eye(5, dtype=np.int64) + np.diag(np.full(4, 2**11), 1)
        torus = seifert_matrix(torus_braid(TorusKnot(3, 7))).entries
        blocks = [torus, np.eye(1, dtype=np.int64), big, np.zeros((0, 0), np.int64), -torus]
        outcomes = batch_outcomes(blocks)
        assert outcomes[2] == "row 3 of A^-1 A^T has an entry of 2^21 or more"
        del outcomes[2], blocks[2]
        assert outcomes == [monodromy_rows(a).tolist() for a in blocks]


# Checks that torus_seifert_matrix's refusals, each made by `_monodromy` or
# the Krylov proof, hold with asserts stripped; prints one line per case, the
# exception class name or "passed".
_REFUSALS = """
assert False, "asserts are live: run with python -O"
import numpy as np
from torsig.core import TorusKnot
from torsig import oracle
from test_oracle import flipped_interleave, negated, phi_start, validate_as_torus, with_oracle
knot = TorusKnot(7, 20)
cases = {
    "flipped-entry": lambda: validate_as_torus(flipped_interleave(knot), knot),
    "lower-entry": lambda: validate_as_torus(np.tril(np.ones((6, 6), np.int64)), TorusKnot(3, 4)),
    "diagonal-two": lambda: validate_as_torus(np.diag([1, 1, 1, 2, 1, 1]), TorusKnot(3, 4)),
    "torus-order": lambda: with_oracle("_monodromy", negated,
                                       lambda: oracle.torus_seifert_matrix(TorusKnot(3, 4))),
    "phi-35-start": lambda: phi_start(knot, 35),
}
for name, case in cases.items():
    try:
        case()
        print(name, "passed")
    except Exception as error:
        print(name, type(error).__name__)
"""


class TestExactValidation:
    LADDER = [(10, 23), (13, 31), (17, 37), (20, 53)]

    def test_rank_ladder_validates(self):
        for p, q in self.LADDER:
            knot = TorusKnot(p, q)
            matrix = torus_seifert_matrix(knot)
            assert matrix.size == knot.seifert_rank()
            m = alexander_from_seifert(matrix, torus_alexander(knot))
            assert set(m.flat) <= {-1, 0, 1}, (p, q)

    @pytest.mark.parametrize("p,q", [(7, 20), (13, 31)])
    def test_flipped_entry_fails(self, p, q):
        with pytest.raises(ValidationFailure):
            validate_as_torus(flipped_interleave(TorusKnot(p, q)), TorusKnot(p, q))

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (7, 20), (10, 23)])
    def test_order_is_exactly_pq(self, p, q):
        # the validated sequence returns to v at j = pq and not before, and
        # its g is u . y_j, u = A^T v
        knot = TorusKnot(p, q)
        matrix = torus_seifert_matrix(knot)
        g = validate_as_torus(matrix.entries, knot)
        y = krylov_rows(matrix.entries, start_vector(matrix.size), p * q + 1)
        assert np.array_equal(y[-1], y[0]) and not (y[1:-1] == y[0]).all(axis=1).any()
        assert g.dtype == np.int64 and np.array_equal(g, y[:-1] @ (matrix.entries.T @ y[0]))

    def test_torus_seifert_matrix_checks_the_order(self, monkeypatch):
        # (-M)^12 = I, so y_12 = v; but -M has eigenvalues of order 3, which divides p
        monkeypatch.setattr(oracle, "_monodromy", negated(oracle._monodromy))
        with pytest.raises(ValidationFailure, match="Phi_3 component of v is nonzero"):
            torus_seifert_matrix(TorusKnot(3, 4))

    @pytest.mark.parametrize("p,q,d", [(2, 3, 6), (3, 4, 6), (3, 4, 12), (5, 12, 10),
                                       (5, 12, 60), (7, 20, 35), (7, 20, 140)])
    def test_missing_root_component_raises(self, p, q, d):
        # Phi_d(M) v lies in a Krylov space of dimension n - phi(d) < n
        with pytest.raises(ValidationFailure, match=f"Phi_{d} component of v is zero"):
            phi_start(TorusKnot(p, q), d)

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (5, 12)])
    def test_eigenvalue_one_is_named_first(self, p, q):
        # A = I gives M = I: y_pq = v holds, and v lies wholly in the kernel
        # of Phi_1(M), which w_1 = S_1 = pq v shows before any other d
        a = np.eye((p - 1) * (q - 1), dtype=np.int64)
        with pytest.raises(ValidationFailure, match="Phi_1 component of v is nonzero"):
            validate_as_torus(a, TorusKnot(p, q))

    def test_divisor_sums_are_exact(self):
        # a symmetric g whose S_1 = 2^64 wraps to 0 in int64, which would hide
        # the Phi_1 component and name Phi_2 instead
        g = np.array([2**62, 2**62, 2**62, 0, 0, 2**62], np.int64)
        with pytest.raises(ValidationFailure, match="Phi_1 component of v is nonzero"):
            oracle._certify(g, 2, 3)

    def test_start_vector_over_the_g_bound_refused(self):
        # column 0 of an upper-triangular A holds its diagonal alone, so u_0 = +-v_0
        knot = TorusKnot(3, 4)
        entries = seifert_matrix(torus_braid(knot)).entries
        with pytest.raises(ValidationFailure, match="A\\^T v reaches 2\\^21"):
            exact_krylov(entries, [2**21, *start_vector(6)[1:]], knot)

    def test_over_rank_case_refused(self):
        # the int64 bounds of the proof need n <= 2^11
        with pytest.raises(InvalidParameter, match="rank 2052"):
            exact_krylov(np.eye(2052, dtype=np.int64), [1] * 2052, TorusKnot(3, 1027))

    def test_over_rank_knot_refused_before_its_braid(self, monkeypatch):
        def refuse(knot):
            raise AssertionError(f"built the braid of {knot}")

        monkeypatch.setattr(oracle, "torus_braid", refuse)
        [error] = oracle.oracle_step_functions([TorusKnot(2, 4099)])
        assert isinstance(error, InvalidParameter) and "rank 4098" in str(error)
        with pytest.raises(InvalidParameter, match="rank 10"):
            oracle.oracle_step_function(TorusKnot(2, 10**12 + 1))

    def test_held_errors_keep_no_frames(self):
        # an error waits for the rest of its batch; its frames would hold A and M
        cases = [lambda: (np.eye(6, dtype=np.int64), start_vector(6), 3, 4),
                 functools.partial(oracle._torus_case, TorusKnot(2, 4099)),
                 functools.partial(oracle._torus_case, TorusKnot(3, 4))]
        wrong, over, g = oracle._exact_krylov(cases)
        assert isinstance(wrong, ValidationFailure) and isinstance(over, InvalidParameter)
        assert wrong.__traceback__ is None and over.__traceback__ is None
        assert len(g) == 12

    def test_matrix_outside_the_proof_refused(self):
        entries = seifert_matrix(torus_braid(TorusKnot(3, 4))).entries
        lower = entries.copy()
        lower[2, 0] = 1
        twice = entries.copy()
        twice[3, 3] = 2
        # two copies of A: every component check passes, but the pencil is Delta^2
        doubled = np.kron(np.eye(2, dtype=np.int64), entries)
        for wrong, message in ((lower, "not upper triangular"), (twice, "diagonal \\+-1"),
                               (doubled, "not of size 6")):
            with pytest.raises(ValidationFailure, match=message):
                validate_as_torus(wrong, TorusKnot(3, 4))

    def test_accepts_every_torus_knot_up_to_rank_120(self):
        pairs = [(p, q) for p, q in coprime_pairs(12, 122) if (p - 1) * (q - 1) <= 120]
        assert len(pairs) == 172
        for p, q in pairs:
            assert torus_seifert_matrix(TorusKnot(p, q)).size == (p - 1) * (q - 1)

    def test_torus_path_is_prime_free(self, capsys, monkeypatch):
        """`verify` reaches neither the congruence check nor any test reference."""
        runs = {
            ("verify", "--which", "oracle", "--p-max", "6", "--q-max", "11"):
                "suite=oracle checked=22 failed=0\nresult=PASS\n",
            ("verify",):  # all seven suites
                "suite=glm checked=103 failed=0\nsuite=even-periodicity checked=45 failed=0\n"
                "suite=main checked=103 failed=0\nsuite=odd-shift checked=58 failed=0\n"
                "suite=closed-forms checked=9 failed=0\nsuite=oracle checked=103 failed=0\n"
                "suite=brute-max checked=103 failed=0\nresult=PASS\n",
        }
        for argv, expected in runs.items():
            assert main(list(argv)) == 0
            assert capsys.readouterr().out == expected

        def refuse(*args):
            raise AssertionError("verify reached the congruence check or a test reference")

        for name in ("alexander_from_seifert", "_minpoly_mod", "torus_alexander",
                     "hermitian_signature"):
            monkeypatch.setattr(oracle, name, refuse)
        for argv, expected in runs.items():
            assert main(list(argv)) == 0
            assert capsys.readouterr().out == expected

    def test_congruent_target_is_only_a_congruence(self):
        knot = TorusKnot(3, 5)
        matrix = seifert_matrix(torus_braid(knot))
        delta = torus_alexander(knot)
        congruent = [c + _PRIME * (k == 2) for k, c in enumerate(delta)]
        alexander_from_seifert(matrix, congruent)  # passes: equal modulo _PRIME
        assert associates(pencil_det_bruteforce(matrix.entries), delta)
        assert not associates(congruent, delta)
        # torus_seifert_matrix takes no target, so such a one cannot reach it
        assert list(inspect.signature(torus_seifert_matrix).parameters) == ["knot"]

    def test_refusals_hold_without_asserts(self):
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        run = subprocess.run([sys.executable, "-O", "-c", _REFUSALS],
                             capture_output=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr.decode("utf-8", "replace")
        assert run.stdout.decode().split("\n") == [
            "flipped-entry ValidationFailure",
            "lower-entry ValidationFailure",
            "diagonal-two ValidationFailure",
            "torus-order ValidationFailure",
            "phi-35-start ValidationFailure",
            "",
        ]


def random_square_matrices(seed, count, max_n=30):
    """Seeded integer matrices: dense ones with entries below the prime, small
    ones, and sparse ones, which are often singular with a repeated root of
    the characteristic polynomial at 0."""
    rng = random.Random(seed)
    matrices = []
    for index in range(count):
        n = rng.randint(0, max_n)
        kind = index % 3
        if kind == 0:
            rows = [[rng.randrange(_PRIME) for _ in range(n)] for _ in range(n)]
        elif kind == 1:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        else:
            density = rng.choice((0.05, 0.1, 0.2))
            rows = [[rng.choice((-1, 1, 2)) if rng.random() < density else 0
                     for _ in range(n)] for _ in range(n)]
        matrices.append(rows)
    return matrices


def krylov_sequence(rows, p, rng):
    """u^T M^i v mod p for i < 2n, with u and v drawn from rng."""
    n = len(rows)
    m = np.array(rows, dtype=np.int64).reshape(n, n) % p
    u, w = (np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64) for _ in range(2))
    s = []
    for _ in range(2 * n):
        s.append(int(u @ w) % p)
        w = m @ w % p
    return np.array(s, dtype=np.int64)


class TestMinpolyMod:
    SMALL = [
        [],
        [[5]],
        [[-7]],
        [[1, 2], [3, 4]],
        [[0, 0], [0, 0]],  # minpoly x, charpoly x^2
        [[3, 0], [0, 3]],  # a scalar matrix: minpoly of degree 1
        [[3, 1], [0, 3]],  # a Jordan block: degree n despite the repeated root
        [[0, 1], [-1, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[2, 0, 0], [0, 3, 0], [0, 0, 4]],
    ]

    @pytest.mark.parametrize("p", [_PRIME])
    def test_krylov_sequences_against_interpolation(self, p):
        rng = random.Random(p)
        short = 0
        for rows in self.SMALL + random_square_matrices(seed=4102, count=100):
            n, s = len(rows), krylov_sequence(rows, p, rng)
            c = oracle._minpoly_mod(s, p).tolist()
            length = len(c) - 1
            assert c[0] == 1 and all(
                sum(c[j] * int(s[i - j]) for j in range(len(c))) % p == 0
                for i in range(length, 2 * n)
            ), rows
            charpoly = charpoly_mod_interp(rows, p)
            if length == n:
                assert c == charpoly[::-1], rows
            else:
                assert length < n and has_repeated_root_mod(charpoly, p), rows
                short += 1
        assert 0 < short < 50


class TestTorusAlexander:
    @pytest.mark.parametrize(
        "p,q,coeffs",
        [
            (2, 3, (1, -1, 1)),
            (2, 5, (1, -1, 1, -1, 1)),
            (1, 7, (1,)),
        ],
    )
    def test_examples(self, p, q, coeffs):
        assert torus_alexander(TorusKnot(p, q)) == coeffs

    def test_semigroup_formula_matches_division(self):
        for p, q in coprime_pairs(19, 60) + [(1, 2), (1, 9), (31, 113), (47, 59)]:
            knot = TorusKnot(p, q)
            assert torus_alexander(knot) == torus_alexander_by_division(knot), (p, q)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 45)  # (p-1)(q-1) <= 2048 leaves some q > p up to p = 45
           .flatmap(lambda p: st.tuples(st.just(p), st.integers(p + 1, 2048 // (p - 1) + 1)))
           .filter(lambda pq: math.gcd(*pq) == 1))
    @example((2, 2049)).via("the largest pq within the rank limit")
    @example((45, 46)).via("the largest p")
    def test_cyclotomic_factor_set_is_delta(self, pq):
        knot = TorusKnot(*pq)
        assert knot.seifert_rank() <= 2048
        assert cyclotomic_torus_alexander(*pq) == torus_alexander(knot)

    def test_properties_on_grid(self):
        for p, q in coprime_pairs(8, 13):
            knot = TorusKnot(p, q)
            poly = torus_alexander(knot)
            assert len(poly) == knot.seifert_rank() + 1
            assert poly == tuple(reversed(poly))  # palindromic
            assert abs(sum(poly)) == 1  # value at 1


class TestHermitianSignature:
    def test_trefoil_half(self):
        matrix = torus_seifert_matrix(TorusKnot(2, 3))
        assert hermitian_signature(matrix, RationalAngle(1, 2)) == 2

    def test_trefoil_before_first_jump(self):
        matrix = torus_seifert_matrix(TorusKnot(2, 3))
        assert hermitian_signature(matrix, RationalAngle(1, 12)) == 0

    def test_t35_half(self):
        matrix = torus_seifert_matrix(TorusKnot(3, 5))
        assert hermitian_signature(matrix, RationalAngle(1, 2)) == 8
        assert classical_signature(TorusKnot(3, 5)) == 8

    def test_near_singular_at_jump(self):
        matrix = torus_seifert_matrix(TorusKnot(2, 3))
        with pytest.raises(NearSingular):
            hermitian_signature(matrix, RationalAngle(1, 6))

    def test_empty_matrix(self):
        matrix = torus_seifert_matrix(TorusKnot(1, 3))
        assert hermitian_signature(matrix, RationalAngle(1, 3)) == 0

    def test_matches_lattice_on_small_grid(self):
        for p, q in coprime_pairs(5, 8):
            knot = TorusKnot(p, q)
            matrix = torus_seifert_matrix(knot)
            for k in range(p * q):
                t = RationalAngle(2 * k + 1, 2 * p * q)
                assert hermitian_signature(matrix, t) == lt_signature(knot, t), (p, q, k)


class TestBruteForceMax:
    def test_worked_example(self):
        value, pieces = brute_force_max(TorusKnot(5, 12))
        assert value == 30 and type(value) is int
        lo, hi = Fraction(1, 2) - Fraction(1, 12), Fraction(1, 2)
        assert any(a < hi and b > lo for a, b in pieces_as_fractions(pieces, 60))

    def test_figure_example(self):
        value, pieces = brute_force_max(TorusKnot(4, 7))
        assert value == 14
        assert any(a < Fraction(1, 2) < b for a, b in pieces_as_fractions(pieces, 28))

    def test_trefoil(self):
        value, pieces = brute_force_max(TorusKnot(2, 3))
        assert value == 2
        assert pieces.dtype == np.int64 and pieces.tolist() == [[1, 5]]  # (1/6, 5/6)

    def test_agrees_with_profile_engine(self):
        for p, q in coprime_pairs(10, 21):
            knot = TorusKnot(p, q)
            assert brute_force_max(knot)[0] == max_signature(knot), (p, q)


# coprime (p, q), q > p, of rank (p-1)(q-1) <= 300, which leaves some q up to p = 17
pairs_of_rank_300 = (
    st.integers(2, 17)
    .flatmap(lambda p: st.tuples(st.just(p), st.integers(p + 1, 300 // (p - 1) + 1)))
    .filter(lambda pq: math.gcd(*pq) == 1)
)


def same_function(a, b):
    return (a.denominator == b.denominator
            and np.array_equal(a.breakpoints, b.breakpoints)
            and np.array_equal(a.interval_values, b.interval_values))


def midpoint_values(step):
    """sigma at each midpoint (2k+1)/(2pq), k < pq, read off a step function."""
    ks = np.arange(step.denominator)
    return step.interval_values[np.searchsorted(step.breakpoints, ks, "right")]


class Zeros(random.Random):
    """A random.Random whose choices are all 0."""

    def choices(self, population, weights=None, *, cum_weights=None, k=1):
        return [0] * k


def zero_start(real_random):
    """A stand-in for the oracle's `random` module that draws the zero start vector."""
    return types.SimpleNamespace(Random=Zeros)


scaled = with_values(lambda values: values * 2**20)  # M * 2^20, past `_monodromy`'s bound


class TestCrossCheck:
    """The `verify` oracle route: the oracle step function against the lattice."""

    def test_small_grid(self):
        for p, q in coprime_pairs(5, 9):
            knot = TorusKnot(p, q)
            assert same_function(oracle_step_function(knot), signature_step_function(knot)), (p, q)

    def test_deterministic_sampling(self):
        a = oracle_step_function(TorusKnot(3, 8))
        b = oracle_step_function(TorusKnot(3, 8))
        assert same_function(a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(pairs_of_rank_300, min_size=1, max_size=6), st.sampled_from([2**16, 300, 1]))
    @example([(2, 3), (1, 4), (3, 4), (2, 3)], 2**16).via("a rank-0 knot and a repeat")
    def test_batch_matches_one_knot_calls(self, pairs, rows):
        """Each knot of a batch gets its one-knot function, however the row
        cap cuts the batch."""
        knots = [TorusKnot(*pq) for pq in pairs]
        real, oracle._BATCH_ROWS = oracle._BATCH_ROWS, rows
        try:
            steps = list(oracle.oracle_step_functions(knots))
        finally:
            oracle._BATCH_ROWS = real
        assert len(steps) == len(knots)
        for knot, step in zip(knots, steps):
            assert same_function(step, oracle_step_function(knot)), knot

    def test_one_failing_knot_fails_alone(self, capsys, monkeypatch):
        """-M for T(4,7) alone: its row fails, every other knot of its batch
        passes, and the bytes do not depend on how --jobs cuts the batches."""
        knots = [TorusKnot(p, q) for p, q in coprime_pairs(6, 11)]
        bad, real = seifert_matrix(torus_braid(TorusKnot(4, 7))).entries, oracle._monodromy

        def monodromy(rows, cols, values, first):  # -M in the block of T(4,7)
            m_cols, m_values, starts, errors = real(rows, cols, values, first)
            a = np.zeros((first[-1],) * 2, np.int64)
            a[rows, cols] = values
            for lo, hi in zip(first, first[1:]):
                if np.array_equal(a[lo:hi, lo:hi], bad):
                    m_values[starts[lo] : starts[hi]] *= -1
            return m_cols, m_values, starts, errors

        monkeypatch.setattr(oracle, "_monodromy", monodromy)
        for knot, step in zip(knots, oracle.oracle_step_functions(knots)):
            if knot == TorusKnot(4, 7):
                assert isinstance(step, ValidationFailure), step
            else:
                assert same_function(step, signature_step_function(knot)), knot
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        argv = ["verify", "--which", "oracle", "--p-max", "6", "--q-max", "11"]
        for fmt in ("text", "json"):
            outs = [(main([*argv, "--format", fmt, "--jobs", jobs]), capsys.readouterr().out)
                    for jobs in ("1", "2", "3")]
            assert outs[0] == outs[1] == outs[2]
        assert outs[0][0] == 1 and json.loads(outs[0][1])["failures"] == [
            {"suite": "oracle", "p": 4, "q": 7, "expected": "",
             "computed": "error: the Phi_7 component of v is nonzero"}]


class SerialPool:
    """Stands in for verify's process pool and runs its tasks in this process,
    where the test doubles are."""

    def __init__(self, max_workers, mp_context):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestOracleStepFunction:
    def test_trefoil_sign_is_pinned(self):
        step = oracle_step_function(TorusKnot(2, 3))
        assert step.denominator == 6 and step.breakpoints.tolist() == [1, 5]
        assert step.interval_values.tolist() == [0, 2, 0]  # +2 at 1/6, 0 on (0, 1/6)

    def test_integer_arrays(self):
        step = oracle_step_function(TorusKnot(4, 7))
        assert step.breakpoints.dtype == step.interval_values.dtype == np.int64
        assert not step.breakpoints.flags.writeable

    def test_matches_lattice_on_verify_grid(self, capsys):
        """All 491 knots of coprime_pairs(20, 53), through the `verify` checker,
        which compares the whole functions, on two workers."""
        argv = ["verify", "--which", "oracle", "--p-max", "20", "--q-max", "53", "--jobs", "2"]
        code = main(argv)
        assert capsys.readouterr().out == "suite=oracle checked=491 failed=0\nresult=PASS\n"
        assert code == 0

    @pytest.mark.parametrize("p,q", TestExactValidation.LADDER)
    def test_matches_lattice_on_rank_ladder(self, p, q):
        knot = TorusKnot(p, q)
        step = oracle_step_function(knot)
        assert len(step.breakpoints) == knot.seifert_rank()  # one jump per root of Delta
        assert same_function(step, signature_step_function(knot))

    @settings(max_examples=30, deadline=None)
    @given(pairs_of_rank_300)
    def test_matches_lattice_sampled(self, pq):
        knot = TorusKnot(*pq)
        assert knot.seifert_rank() <= 300
        assert same_function(oracle_step_function(knot), signature_step_function(knot))

    @settings(max_examples=30, deadline=None)
    @given(pairs_of_rank_300, st.randoms(use_true_random=False))
    def test_jumps_rest_on_one_scalar_sequence(self, pq, rng):
        """M^T A M = A, so y_j^T A y_l = g_{(l-j) mod pq} and x_k* A x_k = pq G_k."""
        knot = TorusKnot(*pq)
        p, q, n = *pq, knot.seifert_rank()
        a = torus_seifert_matrix(knot).entries
        g = validate_as_torus(a, knot)
        y = krylov_rows(a, start_vector(n), p * q)
        m = sparse_monodromy(a)
        assert np.array_equal(m.T @ a @ m, a)  # exact in int64
        assert np.array_equal(g, y @ (a.T @ y[0]))
        for j, l in ((rng.randrange(p * q), rng.randrange(p * q)) for _ in range(20)):
            assert y[j] @ a @ y[l] == g[(l - j) % (p * q)]
        x, big_g = np.fft.rfft(y, axis=0), np.fft.rfft(g)
        k = [k for k in range(len(big_g)) if k % p and k % q]
        assert len(k) == n // 2
        form = np.einsum("ki,ij,kj->k", x[k].conj(), a, x[k]).imag
        assert np.allclose(p * q * big_g[k].imag, form, rtol=1e-9, atol=0), pq

    def test_matches_hermitian_signature_at_every_midpoint(self):
        for p, q in coprime_pairs(5, 8):
            knot = TorusKnot(p, q)
            matrix = torus_seifert_matrix(knot)
            values = midpoint_values(oracle_step_function(knot)).tolist()
            for k, value in enumerate(values):
                t = RationalAngle(2 * k + 1, 2 * p * q)
                assert hermitian_signature(matrix, t) == value, (p, q, k)

    @pytest.mark.parametrize("q", [1, 2, 7])
    def test_unknot_has_no_breakpoints(self, q):
        step = oracle_step_function(TorusKnot(1, q))
        assert step.breakpoints.tolist() == [] and step.interval_values.tolist() == [0]
        assert step.denominator == q

    def test_zero_start_vector_raises(self, monkeypatch):
        # every component of 0 is zero, the first root one being Phi_15's
        monkeypatch.setattr(oracle, "random", zero_start(oracle.random))
        with pytest.raises(ValidationFailure, match="Phi_15 component of v is zero"):
            oracle_step_function(TorusKnot(3, 5))

    def test_absurd_tolerance_raises(self):
        with pytest.raises(NearSingular, match="jump slope at t = 1/6 is not above 10.0 times"):
            oracle_step_function(TorusKnot(2, 3), tol=10.0)

    def test_krylov_must_close_up(self, monkeypatch):
        # (-M)^15 v = -v
        monkeypatch.setattr(oracle, "_monodromy", negated(oracle._monodromy))
        with pytest.raises(ValidationFailure, match="\\^15 v is not v"):
            oracle_step_function(TorusKnot(3, 5))

    def test_krylov_entry_bound(self, monkeypatch):
        monkeypatch.setattr(oracle, "_monodromy", scaled(oracle._monodromy))
        with pytest.raises(ValidationFailure, match="reaches 2\\^31"):
            oracle_step_function(TorusKnot(3, 5))

    def test_krylov_entry_bound_below_zero(self, monkeypatch):
        # M = I with row 0 replaced by -2^26 at column c > 0, where v_c >= 32:
        # y_j[0] = -2^26 v_c <= -2^31 for every j >= 1, and no entry is positive
        # past the bound
        n = TorusKnot(3, 5).seifert_rank()
        c = next(i for i, x in enumerate(start_vector(n)) if i and x >= 32)

        def negative_row(rows, cols, values, first):
            m = np.eye(n, dtype=np.int64)
            m[0] = 0
            m[0, c] = -(2**26)
            return (*csr(m), [None])

        monkeypatch.setattr(oracle, "_monodromy", negative_row)
        with pytest.raises(ValidationFailure, match="reaches 2\\^31"):
            oracle_step_function(TorusKnot(3, 5))

    def test_sequence_must_be_symmetric(self, monkeypatch):
        # M^T closes up and has M's eigenvalues, so its c_d pass, but
        # A^T = A M^T fails, and with it g_m = g_{1-m}
        def transposed(rows, cols, values, first):
            a = np.zeros((first[-1],) * 2, np.int64)
            a[rows, cols] = values
            return (*csr(monodromy_rows(a).T), [None])

        monkeypatch.setattr(oracle, "_monodromy", transposed)
        with pytest.raises(ValidationFailure, match="v\\^T A M\\^0 v is not v\\^T A M\\^1 v"):
            oracle_step_function(TorusKnot(4, 7))

    @pytest.mark.parametrize("p, q", [(2, 2049), (3, 1025), (33, 65)])
    def test_holds_no_sequence(self, p, q):
        """At rank 2048 a dense A or M would take 32 MiB, and the (pq + 1) n
        int64 sequence once stored took 48 or 64 MiB: the whole oracle,
        sparse build and streamed loop, peaks below 8 MiB."""
        knot = TorusKnot(p, q)
        tracemalloc.start()
        try:
            oracle_step_function(knot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert knot.seifert_rank() == 2048 and peak < 8 * 2**20

    def test_refusals_hold_without_asserts(self):
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        run = subprocess.run([sys.executable, "-O", "-c", _STEP_REFUSALS],
                             capture_output=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr.decode("utf-8", "replace")
        assert run.stdout.decode().split("\n") == [
            "zero-start ValidationFailure",
            "tol-10 NearSingular",
            "krylov-not-closed ValidationFailure",
            "entry-bound ValidationFailure",
            "",
        ]


# Each refusal of `oracle_step_function`, in an interpreter without asserts.
_STEP_REFUSALS = """
assert False, "asserts are live: run with python -O"
from torsig import oracle
from torsig.core import TorusKnot
from test_oracle import negated, scaled, with_oracle, zero_start
step = lambda: oracle.oracle_step_function(TorusKnot(3, 5))
cases = {
    "zero-start": lambda: with_oracle("random", zero_start, step),
    "tol-10": lambda: oracle.oracle_step_function(TorusKnot(2, 3), tol=10.0),
    "krylov-not-closed": lambda: with_oracle("_monodromy", negated, step),
    "entry-bound": lambda: with_oracle("_monodromy", scaled, step),
}
for name, case in cases.items():
    try:
        case()
        print(name, "passed")
    except Exception as error:
        print(name, type(error).__name__)
"""
