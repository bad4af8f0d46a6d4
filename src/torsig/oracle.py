"""Independent verification path for the lattice and profile engines.

Builds the Seifert matrix of a positive braid closure from its brick
decomposition, checks it against the exact cyclotomic Alexander polynomial
modulo three primes, and evaluates the signature numerically as the sign
count of the Hermitian form (1-w)A + (1-conj(w))A^T.  None of this shares
code with `torsig.lattice` or `torsig.maxsig`, which is the point.

Every brick matrix is upper triangular with diagonal +-1 (bricks are
ordered by generator, then by position, and only earlier bricks link later
ones).  So det A = +-1, and the pencil det(A - t*A^T) mod each prime needs
only one stacked back-substitution and a Krylov sequence per prime.

The brick matrix is one read-only int64 array built by broadcasting.  Its
sign convention (a wrong one silently computes the mirror knot) is fixed so
that sigma(T(2,3)) = +2 and pinned by tests: the Alexander-polynomial check
catches wrong linking patterns, the comparison of Hermitian signatures with
the lattice engine a wrong global sign.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameter, RationalAngle, TorsigError, TorusKnot, _is_int
from .lattice import StepFunction, lt_signature, signature_step_function

__all__ = [
    "ValidationFailure",
    "NearSingular",
    "BraidWord",
    "SeifertMatrix",
    "torus_braid",
    "seifert_matrix",
    "torus_seifert_matrix",
    "torus_alexander",
    "alexander_from_seifert",
    "hermitian_signature",
    "brute_force_max",
    "signature_cross_check",
    "DEFAULT_TOLERANCE",
]

DEFAULT_TOLERANCE = 1e-8
_MIDPOINT_SAMPLES = 25


class ValidationFailure(TorsigError):
    """A constructed Seifert matrix failed its polynomial sanity checks."""


class NearSingular(TorsigError):
    """An eigenvalue sits too close to zero to count its sign safely."""


# --------------------------------------------------------------------------
# braid words


@dataclass(frozen=True)
class BraidWord:
    """A positive braid word: generator indices in [1, strands-1]."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _is_int(self.strands) or self.strands < 1:
            raise InvalidParameter(f"strands must be an integer >= 1, got {self.strands!r}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for g in self.letters:
            if not _is_int(g) or not 1 <= g < self.strands:
                raise InvalidParameter(f"letter {g!r} outside [1, {self.strands - 1}]")

    def closure_components(self) -> int:
        """Number of components of the closed-up braid: the cycles of its permutation."""
        perm = list(range(self.strands))
        for g in self.letters:
            perm[g - 1], perm[g] = perm[g], perm[g - 1]
        unseen, cycles = set(perm), 0
        while unseen:
            s = unseen.pop()
            cycles += 1
            while (s := perm[s]) in unseen:
                unseen.remove(s)
        return cycles


def torus_braid(knot: TorusKnot) -> BraidWord:
    """The standard presentation on p strands: (p-1, p-2, ..., 1) repeated q times."""
    p, q = knot.p, knot.q
    block = tuple(range(p - 1, 0, -1))
    return BraidWord(p, block * q)


# --------------------------------------------------------------------------
# exact integer polynomials (dense, ascending coefficients)


def torus_alexander(knot: TorusKnot) -> tuple[int, ...]:
    """Alexander polynomial of T(p,q), ascending coefficients.

    (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)) is (1 - t) times the sum of t^k
    over the semigroup <p, q>, which holds k exactly when (k q^{-1} mod p) q <= k.
    """
    p, q = knot.p, knot.q
    inverse = pow(q, -1, p)
    member = [(k * inverse % p) * q <= k for k in range(-1, knot.seifert_rank() + 1)]
    return tuple(int(b) - int(a) for a, b in zip(member, member[1:]))


# --------------------------------------------------------------------------
# det(A - t*A^T) checked modulo word-size primes
#
# A pass proves det(A - t*A^T) = +-Delta coefficientwise modulo each of
# three primes below 2^26, with one sign for all three, so modulo their
# product (about 2^78).  It proves exact equality only while every pencil
# coefficient is below half the product.  Hadamard's bound on
# |det(A - t*A^T)| over |t| = 1, taken from the row norms of |A| + |A^T|,
# guarantees this only for small ranks: up to n = 48 on the default
# `verify` grid, whose largest rank is 198.
#
# Every intermediate stays below 2^63: residues are below p, products below
# p^2 < 2^52.  A back-substitution row, a mat-vec, a dot product with u and
# a Berlekamp-Massey discrepancy (its length is at most n, as the sequence
# obeys charpoly(M)) each add at most n products to one residue: below
# n(p-1)^2 + p, which `alexander_from_seifert` and `torus_seifert_matrix` keep
# below 2^63 by rejecting any n above _MAX_RANK (2048).

_PRIMES = (67108859, 67108837, 67108819)
_MODULI = np.array(_PRIMES, dtype=np.int64)[:, None]
_MAX_RANK = (2**63 - 1) // (max(_PRIMES) - 1) ** 2
_KRYLOV_TRIES = 3


def _require_rank(n: int) -> None:
    if n > _MAX_RANK:
        raise InvalidParameter(f"rank {n} is too large for exact int64 arithmetic")


def _monodromy_mod(a: np.ndarray) -> np.ndarray:
    """M = A^{-1} A^T modulo each prime, one (3, n, n) stack, by back-substitution
    on the upper-triangular A: M[k] = A[k,k] (A^T[k] - A[k,k+1:] M[k+1:])."""
    m = np.ascontiguousarray(a.T % _MODULI[:, :, None])
    for k in range(len(a) - 1, -1, -1):
        row = a[k, k + 1 :] % _MODULI
        m[:, k] = a[k, k] * (m[:, k] - np.einsum("pj,pjc->pc", row, m[:, k + 1 :])) % _MODULI
    return m


def _minpoly_mod(s: np.ndarray, p: int) -> np.ndarray:
    """Berlekamp-Massey: the shortest c = (1, c_1, ..., c_L) with
    s[i] + c_1 s[i-1] + ... + c_L s[i-L] = 0 (mod p) for L <= i < len(s).

    x^L c(1/x) is the minimal polynomial of s.  For s[i] = u^T M^i v with
    i < 2n it divides charpoly(M), and at L = n, c is det(I - xM).
    """
    c = np.zeros(len(s) + 1, dtype=np.int64)
    c[0] = 1
    b, length, shift, last = c.copy(), 0, 1, 1
    for i in range(len(s)):
        d = int(s[i] + c[1 : length + 1] @ s[i - 1 :: -1][:length]) % p
        if d == 0:
            shift += 1
            continue
        previous = c.copy()
        c[shift:] = (c[shift:] - d * pow(last, -1, p) % p * b[:-shift]) % p
        if 2 * length <= i:
            length, b, last, shift = i + 1 - length, previous, d, 1
        else:
            shift += 1
    return c[: length + 1]


def alexander_from_seifert(matrix, expected) -> None:
    """Raise ValidationFailure unless det(A - t*A^T) = +-expected modulo each
    of the three primes, with one sign for all (see the comment above
    `_PRIMES`).  expected is read up to a power of t: zeros at both ends are
    dropped, and what is left must have n + 1 coefficients.

    A must be an upper-triangular integer matrix with diagonal +-1, which
    is every matrix `seifert_matrix` builds; anything else, or a rank too
    large for the int64 bound, raises InvalidParameter.  Then the pencil is
    det(A), the product of the diagonal, times det(I - tM), M = A^{-1}A^T,
    which Berlekamp-Massey on u^T M^i v (i < 2n) finds once it reaches
    degree n.  u and v come from random.Random(n), so no result depends on
    the process; a shortfall is retried with fresh ones, _KRYLOV_TRIES times.

    Degree n needs minpoly(M) = charpoly(M) mod p, so a matrix whose pencil
    has a repeated factor, such as (1 - t + t^2 - t^3 + t^4)^2, can fail
    even when the pencil is right.  A torus knot never does: its Alexander
    polynomial divides t^{pq} - 1, which has no repeated roots mod a prime
    that does not divide pq.
    """
    a = np.asarray(getattr(matrix, "entries", matrix), dtype=np.int64)
    n = len(a)
    if a.shape != (n, n) or np.tril(a, -1).any() or (np.abs(a.diagonal()) != 1).any():
        raise InvalidParameter("need a square upper-triangular matrix with diagonal +-1")
    _require_rank(n)
    m, rng = _monodromy_mod(a), random.Random(n)
    for _ in range(_KRYLOV_TRIES):
        u, w = (np.array([[rng.randrange(p) for _ in range(n)] for p in _PRIMES],
                         dtype=np.int64) for _ in range(2))
        s = np.empty((len(_PRIMES), 2 * n), dtype=np.int64)
        for i in range(2 * n):
            s[:, i] = np.einsum("pj,pj->p", u, w) % _MODULI[:, 0]
            w = np.einsum("pjk,pk->pj", m, w) % _MODULI
        polys = [_minpoly_mod(row, p) for row, p in zip(s, _PRIMES)]
        short = [(p, len(c) - 1) for p, c in zip(_PRIMES, polys) if len(c) <= n]
        if not short:
            break
    else:
        raise ValidationFailure("Krylov sequence mod %d reaches degree %d, not %d" % (*short[0], n))
    pencil = np.prod(a.diagonal()) * np.array(polys) % _MODULI
    target = np.trim_zeros(list(expected))
    residues = np.array([[int(x) % p for x in target] for p in _PRIMES], dtype=np.int64)
    if residues.shape != pencil.shape or not (
        (pencil == residues).all() or (pencil == -residues % _MODULI).all()
    ):
        raise ValidationFailure(f"det(A - tA^T) is not +-{tuple(expected)} modulo {_PRIMES}")


# --------------------------------------------------------------------------
# brick construction


@dataclass(frozen=True, eq=False)
class SeifertMatrix:
    """Integer Seifert matrix of a positive braid closure, size l - n + 1,
    as a read-only int64 array."""

    entries: np.ndarray

    @property
    def size(self) -> int:
        return len(self.entries)


def _brick_matrix(braid: BraidWord) -> np.ndarray:
    """Brick matrix: one brick per pair (a, b) of consecutive positions of
    the same generator g, ordered by generator and then by position.

    Entry [u][v], in the sign where sigma(T(2,3)) = +2:
      * +1 on the diagonal;
      * -1 when v is the next brick of u's generator (b_u = a_v);
      * for v of generator g_u + 1 whose interval interleaves u's:
        -1 when u starts first (a_u < a_v < b_u < b_v), +1 when it starts
        second (a_v < a_u < b_v < b_u).
    """
    letters = np.asarray(braid.letters, dtype=np.int64)
    order = np.lexsort((np.arange(letters.size), letters))
    gens = letters[order]
    same = gens[1:] == gens[:-1]
    g, a, b = (x[same][:, None] for x in (gens[1:], order[:-1], order[1:]))
    adjacent = g.T == g + 1
    return (
        np.eye(len(g), dtype=np.int64)
        - ((g.T == g) & (a.T == b))
        - (adjacent & (a < a.T) & (a.T < b) & (b < b.T))
        + (adjacent & (a.T < a) & (a < b.T) & (b.T < b))
    )


def seifert_matrix(braid: BraidWord) -> SeifertMatrix:
    """Seifert matrix of the closure of a positive braid word; the closure must be a knot."""
    components = braid.closure_components()
    if components != 1:
        raise InvalidParameter(f"closure has {components} components, need a knot")
    entries = _brick_matrix(braid)
    assert len(entries) == len(braid.letters) - braid.strands + 1
    entries.flags.writeable = False
    return SeifertMatrix(entries)


def torus_seifert_matrix(knot: TorusKnot) -> SeifertMatrix:
    """Validated Seifert matrix of the standard torus braid closure; a rank
    too large to validate is refused before any brick is built."""
    _require_rank(knot.seifert_rank())
    matrix = seifert_matrix(torus_braid(knot))
    alexander_from_seifert(matrix, torus_alexander(knot))
    return matrix


# --------------------------------------------------------------------------
# numeric Hermitian-form signature


def hermitian_signature(matrix, t: RationalAngle, tol: float = DEFAULT_TOLERANCE) -> int:
    """Sign count of the Hermitian form (1-w)A + (1-conj(w))A^T at w = e^{2*pi*i*t}.

    One complex Hermitian eigen-solve of size n.  Any eigenvalue smaller
    than tol times the largest magnitude raises NearSingular: the caller
    should pick a different t (midpoints between candidate jumps are always
    safe), never round.
    """
    a = np.asarray(getattr(matrix, "entries", matrix), dtype=float)
    if a.size == 0:
        return 0
    w = cmath.exp(2j * cmath.pi * t.numerator / t.denominator)
    eigenvalues = np.linalg.eigvalsh((1 - w) * a + (1 - w.conjugate()) * a.T)
    magnitudes = np.abs(eigenvalues)
    largest = magnitudes.max()
    if largest == 0.0 or magnitudes.min() < tol * largest:
        raise NearSingular(f"eigenvalue within {tol} of zero at t = {t}")
    return int((eigenvalues > 0).sum()) - int((eigenvalues < 0).sum())


# --------------------------------------------------------------------------
# sweeps


def brute_force_max(knot: TorusKnot) -> tuple[int, np.ndarray]:
    """Maximum of the full signature function and every maximizing piece.

    Pieces are the open intervals (lo, hi) of StepFunction.argmax_pieces:
    an (m, 2) int64 array of numerators over pq.  No single breakpoint is a
    piece: its value is the smaller of its two neighbouring interval values,
    which differ, so it stays below the maximum.
    """
    step: StepFunction = signature_step_function(knot)
    return step.max_value(), step.argmax_pieces()


def midpoint_sample(knot: TorusKnot) -> list[RationalAngle]:
    """Deterministic pseudo-random sample of midpoint angles (2k+1)/(2pq).

    Midpoints fall strictly between candidate jump abscissae, so the
    Hermitian form is nonsingular there.  The seed depends only on (p, q);
    results are independent of evaluation order and process layout.
    """
    pq = knot.p * knot.q
    rng = random.Random(1_000_003 * knot.p + knot.q)
    ks = sorted(rng.sample(range(pq), min(_MIDPOINT_SAMPLES, pq)))
    return [RationalAngle(2 * k + 1, 2 * pq) for k in ks]


def signature_cross_check(
    knot: TorusKnot, tol: float = DEFAULT_TOLERANCE
) -> list[tuple[RationalAngle, int, int]]:
    """Compare the lattice engine and the Hermitian oracle at sampled angles.

    Returns (t, lattice value, oracle value) triples; the Seifert matrix is
    validated against the cyclotomic Alexander polynomial on the way.
    """
    matrix = torus_seifert_matrix(knot)
    return [
        (t, lt_signature(knot, t), hermitian_signature(matrix, t, tol))
        for t in midpoint_sample(knot)
    ]
