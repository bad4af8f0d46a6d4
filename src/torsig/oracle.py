"""Independent verification path for the lattice and profile engines.

Builds the Seifert matrix of a positive braid closure from its brick
decomposition, validates it against the exact cyclotomic Alexander
polynomial, and evaluates the signature numerically as the sign count of
the Hermitian form (1-w)A + (1-conj(w))A^T.  None of this shares code with
`torsig.lattice` or `torsig.maxsig`, which is the point.

Every brick matrix is upper triangular with diagonal +-1 (bricks are
ordered by generator, then by position, and only earlier bricks link later
ones).  So det A = +-1, and the exact pencil det(A - t*A^T) needs only a
mod-p back-substitution and one characteristic polynomial per prime.

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

from .core import InvalidParameter, RationalAngle, TorsigError, TorusKnot
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
        if self.strands < 1:
            raise InvalidParameter(f"need at least one strand, got {self.strands}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for g in self.letters:
            if not isinstance(g, int) or not 1 <= g < self.strands:
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


def _associates(f, g) -> bool:
    """Equality up to sign and a power of t."""
    f, g = np.trim_zeros(list(f)), np.trim_zeros(list(g))
    return f == g or f == [-x for x in g]


# --------------------------------------------------------------------------
# det(A - t*A^T) via CRT over word-size primes
#
# Residues are combined over three primes below 2^26 (product about 3e23,
# 2^78) and lifted symmetrically.  A passing check therefore proves
# det(A - t*A^T) = +-Delta coefficientwise modulo that product.  It proves
# exact equality only while every pencil coefficient is below half the
# product.  Hadamard's bound on |det(A - t*A^T)| over |t| = 1, taken from
# the row norms of |A| + |A^T|, guarantees this only for small ranks: up to
# n = 48 on the default `verify` grid, whose largest rank is 198.
#
# All mod-p kernels keep every intermediate below 2^63: entries < p, so
# products < p^2 < 2^52, and a matmul over n terms accumulates
# < n * (p-1)^2, which `alexander_from_seifert` and `seifert_matrix` keep
# below 2^63 by rejecting any n above _MAX_RANK (2048).

_PRIMES = (67108859, 67108837, 67108819)
_MAX_RANK = (2**63 - 1) // (max(_PRIMES) - 1) ** 2


def _require_rank(n: int) -> None:
    if n > _MAX_RANK:
        raise InvalidParameter(f"rank {n} is too large for exact int64 arithmetic")


def _solve_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """X with a @ X = b (mod p) for upper-triangular a with diagonal +-1.

    Back-substitution; each diagonal entry is its own inverse."""
    diagonal = a.diagonal().copy()
    a, x = a % p, b % p
    for k in range(a.shape[0] - 1, -1, -1):
        x[k] = diagonal[k] * (x[k] - a[k, k + 1 :] @ x[k + 1 :]) % p
    return x


def _charpoly_mod(matrix: np.ndarray, p: int) -> np.ndarray:
    """Coefficients (ascending) of det(x*I - M) mod p.

    Reduces M to upper Hessenberg form by a mod-p similarity transform,
    then runs the leading-minor recurrence: expanding det(xI - H_k) along
    the last column gives

        p_k = (x - H[k-1,k-1]) p_{k-1}
              - sum_i H[i,k-1] * (prod of subdiagonals below i) * p_i.
    """
    n = matrix.shape[0]
    h = matrix.astype(np.int64) % p
    for k in range(n - 2):
        nz = np.nonzero(h[k + 1 :, k])[0]
        if nz.size == 0:
            continue
        r = k + 1 + int(nz[0])
        if r != k + 1:
            h[[k + 1, r]] = h[[r, k + 1]]
            h[:, [k + 1, r]] = h[:, [r, k + 1]]
        f = h[k + 2 :, k] * pow(int(h[k + 1, k]), -1, p) % p
        h[k + 2 :, :] = (h[k + 2 :, :] - f[:, None] * h[k + 1, :]) % p
        h[:, k + 1] = (h[:, k + 1] + h[:, k + 2 :] @ f) % p
    # beta[i] is the product of the subdiagonals H[i+1,i] ... H[k-1,k-2];
    # column k > 1 extends every product by H[k-1,k-2] and starts beta[k-2].
    # Products of two residues stay below p^2 < 2^52, and the matmul adds
    # k-1 < n of them to acc < p: below n(p-1)^2 + p, which for
    # n <= _MAX_RANK leaves a slack of about 1.6e12 under 2^63.
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    beta = np.ones(n, dtype=np.int64)
    for k in range(1, n + 1):
        beta[: k - 1] = beta[: k - 1] * h[k - 1, k - 2] % p
        weights = h[: k - 1, k - 1] * beta[: k - 1] % p
        polys[k, 1:] = polys[k - 1, :-1]
        acc = (polys[k] - h[k - 1, k - 1] * polys[k - 1]) % p
        polys[k] = (acc - weights @ polys[: k - 1]) % p
    return polys[n]


def _crt_symmetric(residues, primes) -> int:
    x, modulus = 0, 1
    for r, p in zip(residues, primes):
        h = (int(r) - x) * pow(modulus % p, -1, p) % p
        x += modulus * h
        modulus *= p
    if x > modulus // 2:
        x -= modulus
    return x


def alexander_from_seifert(matrix) -> tuple[int, ...]:
    """det(A - t*A^T), ascending coefficients, lifted from three primes.

    The lift is exact while the coefficients stay below half the product
    of the primes (see the comment above `_PRIMES`); beyond that it is the
    pencil's symmetric residue modulo that product.

    A must be an upper-triangular integer matrix with diagonal +-1, which
    is every matrix `seifert_matrix` builds; anything else, or a rank too
    large for the int64 bound above, raises InvalidParameter.  Then
    A - tA^T = A (I - t A^{-1}A^T), so the pencil is det(A), the product of
    the diagonal, times the reversed characteristic polynomial of A^{-1}A^T.
    Its degree is exactly n: the leading coefficient is det(-A^T) = +-1.
    """
    a = np.asarray(getattr(matrix, "entries", matrix), dtype=np.int64)
    n = len(a)
    if n == 0:
        return (1,)
    if a.shape != (n, n) or np.tril(a, -1).any() or (np.abs(a.diagonal()) != 1).any():
        raise InvalidParameter("need a square upper-triangular matrix with diagonal +-1")
    _require_rank(n)
    det_a = int(np.prod(a.diagonal()))
    per_prime = [det_a * _charpoly_mod(_solve_mod(a, a.T, p), p)[::-1] % p for p in _PRIMES]
    return tuple(
        _crt_symmetric([vec[k] for vec in per_prime], _PRIMES) for k in range(n + 1)
    )


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


def seifert_matrix(braid: BraidWord, expected_alexander=None) -> SeifertMatrix:
    """Seifert matrix of the closure of a positive braid word.

    The closure must be connected (a knot).  When expected_alexander is
    given, the construction is validated against it: det(A - t*A^T) must
    match up to sign and a power of t, and a rank too large to validate is
    refused before any brick is built.
    """
    if expected_alexander is not None:
        _require_rank(len(braid.letters) - braid.strands + 1)
    components = braid.closure_components()
    if components != 1:
        raise InvalidParameter(f"closure has {components} components, need a knot")
    entries = _brick_matrix(braid)
    assert len(entries) == len(braid.letters) - braid.strands + 1
    entries.flags.writeable = False
    matrix = SeifertMatrix(entries)
    if expected_alexander is not None:
        computed = alexander_from_seifert(matrix)
        if not _associates(computed, expected_alexander):
            raise ValidationFailure(
                f"det(A - tA^T) = {computed} does not match the expected "
                f"Alexander polynomial {tuple(expected_alexander)}"
            )
    return matrix


def torus_seifert_matrix(knot: TorusKnot) -> SeifertMatrix:
    """Validated Seifert matrix of the standard torus braid closure."""
    return seifert_matrix(torus_braid(knot), expected_alexander=torus_alexander(knot))


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


def brute_force_max(knot: TorusKnot) -> tuple[int, tuple]:
    """Maximum of the full signature function and every maximizing piece.

    Pieces are the open intervals (lo, hi) of StepFunction.argmax_pieces.
    No single breakpoint is a piece: its value is the smaller of its two
    neighbouring interval values, which differ, so it stays below the
    maximum.
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
