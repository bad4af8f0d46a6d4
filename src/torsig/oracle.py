"""Independent verification path for the lattice and profile engines.

Builds the Seifert matrix of a positive braid closure from its brick
decomposition, proves det(A - t*A^T) = +-Delta exactly for a torus knot
from one exact Krylov sequence M^j v of the monodromy M = A^{-1}A^T, and
reads the whole signature function off that same sequence: its real FFT
projects v onto the eigenvectors of M, and the jump formula at the roots of
Delta (Matumoto 1977, Gambaudo-Ghys 2005) gives each jump of sigma as the
sign of one term of the real FFT of the scalar sequence v^T A M^j v.  A
general braid gets a check modulo one prime.  None of this shares code with
`torsig.lattice` or `torsig.maxsig`, which is the point.

Every brick matrix is upper triangular with diagonal +-1 (bricks are
ordered by generator, then by position, and only earlier bricks link later
ones).  So det A = +-1, and the monodromy M = A^{-1}A^T is an integer
matrix that one back-substitution builds.

The brick matrix is one read-only int64 array built by broadcasting.  Its
sign convention (a wrong one silently computes the mirror knot) is fixed so
that sigma(T(2,3)) = +2 and pinned by tests: the Alexander-polynomial check
catches wrong linking patterns, the comparison of signature functions with
the lattice engine a wrong global sign.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameter, RationalAngle, TorsigError, TorusKnot, _is_int
from .lattice import StepFunction, signature_step_function

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
    "oracle_step_function",
    "DEFAULT_TOLERANCE",
]

DEFAULT_TOLERANCE = 1e-8


class ValidationFailure(TorsigError):
    """A constructed Seifert matrix failed its polynomial sanity checks."""


class NearSingular(TorsigError):
    """A numeric margin (eigenvalue or jump slope) is too thin to trust a sign."""


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
# det(A - t*A^T) modulo one prime, for a general braid
#
# det(A - t*A^T) = det A * det(I - tM) with M = A^{-1}A^T, and
# `alexander_from_seifert` proves it = +-expected modulo _PRIME.  That
# congruence is all it proves.  A torus knot is proved exactly by
# `_exact_krylov` instead, with no prime.
#
# Each step is exact.  Entries of A and M below _ENTRY_BOUND = 2^21 keep a
# back-substitution row below n 2^42 + 2^21 < 2^63.  Mod _PRIME, a mat-vec
# row, a dot product and a Berlekamp-Massey discrepancy (its length is at
# most n) add at most n products below _PRIME^2 to a residue, which
# n <= _MAX_RANK keeps below 2^63.

_PRIME = 67108859
_MAX_RANK = (2**63 - 1) // (_PRIME - 1) ** 2
_ENTRY_BOUND = 2**21
_KRYLOV_TRIES = 3


def _require_rank(n: int) -> None:
    if not 0 <= n <= _MAX_RANK:
        raise InvalidParameter(f"rank {n} is not in [0, {_MAX_RANK}]: not a knot, or too large")


def _monodromy(a: np.ndarray) -> np.ndarray:
    """M = A^{-1} A^T, exactly, by back-substitution over the nonzeros of each
    row of the upper-triangular A: M[k] = A[k,k] (A^T[k] - A[k,nz] M[nz])."""
    m = a.T.copy()
    rows, cols = np.nonzero(np.triu(a, 1))
    starts = np.searchsorted(rows, np.arange(len(a) + 1))
    for k in range(len(a) - 1, -1, -1):
        nz = cols[starts[k] : starts[k + 1]]
        m[k] = a[k, k] * (m[k] - a[k, nz] @ m[nz])
    # M[k] reads only the rows after k.  So the last row with an entry of 2^21
    # or more read rows below the bound and is exact, even if the rows before
    # it then wrapped; and if no row reaches the bound, every row is exact.
    big = np.flatnonzero((np.abs(m) >= _ENTRY_BOUND).any(axis=1))
    if big.size:
        raise ValidationFailure(f"row {big[-1]} of A^-1 A^T has an entry of 2^21 or more")
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


def alexander_from_seifert(matrix, expected) -> np.ndarray:
    """Return M = A^{-1}A^T, read-only int64, if det(A - t*A^T) = +-expected
    modulo _PRIME with one sign for all coefficients; else ValidationFailure.
    That congruence is all it proves, for any braid; `torus_seifert_matrix`
    proves a torus knot's pencil exactly without it.  expected is read up
    to a power of t: zeros at both ends are dropped, n + 1 ints must remain.

    A must be an upper-triangular integer matrix with diagonal +-1 and
    entries below 2^21, as every `seifert_matrix` is; anything else (float,
    bool or object entries, too large a rank) raises InvalidParameter.  The
    pencil is det(A), the product of the diagonal, times det(I - tM), which
    Berlekamp-Massey on u^T M^i v (i < 2n, M held sparse) finds once it
    reaches degree n.  u and v come from random.Random(n), so no result
    depends on the process; a shortfall is retried _KRYLOV_TRIES times.

    Degree n needs minpoly(M) = charpoly(M) mod _PRIME, so a pencil with a
    repeated factor, such as (1 - t + t^2 - t^3 + t^4)^2, can fail even when
    it is right; a torus knot's cannot, as Delta divides t^{pq} - 1.
    """
    a, expected = np.asarray(getattr(matrix, "entries", matrix)), tuple(expected)
    if not (a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64)
            and all(map(_is_int, expected))):
        raise InvalidParameter(f"need integer entries and int coefficients: {a.dtype}, {expected}")
    n = len(a)
    if (a.shape != (n, n) or np.tril(a, -1).any() or (np.abs(a.diagonal()) != 1).any()
            or a.min(initial=0) <= -_ENTRY_BOUND or a.max(initial=0) >= _ENTRY_BOUND):
        raise InvalidParameter("need square upper-triangular A, diagonal +-1, entries below 2^21")
    _require_rank(n)
    a = a.astype(np.int64)
    m, rng = _monodromy(a), random.Random(n)
    # det M = 1, so every row of M has a nonzero and starts a segment of them
    rows, cols = np.nonzero(m)
    values, starts = m[rows, cols] % _PRIME, np.searchsorted(rows, np.arange(n))
    for _ in range(_KRYLOV_TRIES):
        u, w = (np.array([rng.randrange(_PRIME) for _ in range(n)], np.int64) for _ in range(2))
        s = np.empty(2 * n, dtype=np.int64)
        for i in range(2 * n):
            s[i] = u @ w % _PRIME
            w = np.add.reduceat(values * w[cols], starts) % _PRIME
        c = _minpoly_mod(s, _PRIME)
        if len(c) > n:
            break
    else:
        raise ValidationFailure(f"Krylov mod {_PRIME} reaches degree {len(c) - 1}, not {n}")
    pencil = np.prod(a.diagonal()) * c % _PRIME
    residues = np.array([x % _PRIME for x in np.trim_zeros(expected)], dtype=np.int64)
    if residues.shape != pencil.shape or not (
        (pencil == residues).all() or (pencil == -residues % _PRIME).all()
    ):
        raise ValidationFailure(f"det(A - tA^T) is not +-{expected} modulo {_PRIME}")
    m.flags.writeable = False
    return m


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
    """Seifert matrix of a positive braid closure, which must be a knot of rank <= _MAX_RANK."""
    rank = len(braid.letters) - braid.strands + 1
    _require_rank(rank)  # a knot needs strands - 1 letters or more
    components = braid.closure_components()
    if components != 1:
        raise InvalidParameter(f"closure has {components} components, need a knot")
    entries = _brick_matrix(braid)
    assert len(entries) == rank
    entries.flags.writeable = False
    return SeifertMatrix(entries)


# --------------------------------------------------------------------------
# det(A - t*A^T) = +-Delta exactly for T(p,q), from one exact Krylov sequence
#
# Let N = pq and y_j = M^j v, exactly.  If y_N = v, then M^N = I on the
# Krylov space K of v, so M is diagonalizable on K, and t^N - 1 splits K into
# the kernels of the Phi_d(M), d | N, with rational projectors E_d.  On K,
# the sum of M^j over j < N with e | j is (N/e) times the sum of E_d over
# d | e; Moebius inversion of S_e = sum_{j<N, e|j} y_j gives the integer
# vector w_d = sum_{e|d} mu(d/e) e S_e = N E_d v.  Phi_d is irreducible over
# Q, so minpoly(v) is the product of the Phi_d with w_d != 0.  If those are
# exactly the d | N dividing neither p nor q, then:
#   * dim K = deg minpoly(v) = sum of phi(d) over them = (p-1)(q-1) = n, so
#     v is cyclic and K = Q^n;
#   * M^N = I on all of Q^n, and charpoly(M) = minpoly(v) = prod Phi_d =
#     (t^N - 1)(t - 1)/((t^p - 1)(t^q - 1)) = Delta;
#   * A is upper triangular of size n with diagonal +-1 (checked), so
#     det(A - t*A^T) = det A * t^n charpoly(M)(1/t) = +-Delta exactly (Delta
#     is palindromic).
# Milnor (Singular Points of Complex Hypersurfaces, 1968) is why this passes:
# M is the monodromy of x^p + y^q, of order pq; the proof does not use it.
#
# int64: with n <= 2^11 and |M| < 2^21, a mat-vec row of entries below 2^31
# stays below 2^63, and the first entry of y to reach 2^31 is exact, so it is
# caught.  Then e |S_e| <= N 2^31 and |w_d| <= tau(d) N 2^31 < 2^63, as
# tau(d) <= N <= 2 * 2049 within _MAX_RANK.  Brick entries lie in {-1, 0, 1}
# (the three boolean terms of `_brick_matrix` are mutually exclusive) and
# v < 2^6, so |A^T v| < 2^17 and g_m = (A^T v) . y_m has |g| < 2^59 < 2^63.


def _exact_krylov(a: np.ndarray, v, p: int, q: int) -> np.ndarray:
    """y_j = M^j v (j <= pq) for M = A^{-1}A^T, exactly in int64, once it
    proves det(A - tA^T) = +-Delta(T(p,q)) as above; else ValidationFailure."""
    n, pq = len(a), p * q
    if n != (p - 1) * (q - 1) or np.tril(a, -1).any() or (np.abs(a.diagonal()) != 1).any():
        raise ValidationFailure(f"A is not upper triangular of size {(p - 1) * (q - 1)}, diagonal +-1")
    m = _monodromy(a)
    # det M = 1, so every row of M has a nonzero and starts a segment of them
    rows, cols = np.nonzero(m)
    values, starts = m[rows, cols], np.searchsorted(rows, np.arange(n))
    y = np.empty((pq + 1, n), dtype=np.int64)
    y[0] = v
    for j in range(pq):
        y[j + 1] = np.add.reduceat(values * y[j, cols], starts)
    if np.abs(y).max(initial=0) >= 2**31:
        raise ValidationFailure("an entry of (A^-1 A^T)^j v reaches 2^31")
    if not np.array_equal(y[pq], y[0]):
        raise ValidationFailure(f"(A^-1 A^T)^{pq} v is not v")
    divisors, mu = [d for d in range(1, pq + 1) if pq % d == 0], {}
    for d in divisors:  # the sum of mu(e) over e | d is [d = 1]
        mu[d] = int(d == 1) - sum(mu[e] for e in mu if d % e == 0)
    scaled = {e: e * y[:pq:e].sum(axis=0) for e in divisors}  # e S_e
    for d in divisors:
        w = sum(mu[d // e] * scaled[e] for e in divisors if d % e == 0 and mu[d // e])
        if (nonzero := bool(np.any(w))) != bool(p % d and q % d):
            raise ValidationFailure(f"the Phi_{d} component of v is {'non' * nonzero}zero")
    return y


def _validated_monodromy(knot: TorusKnot) -> tuple[SeifertMatrix, np.ndarray]:
    """(A, y) of the torus braid closure: y_j = M^j v for j <= pq and v
    nonzero from random.Random(n), det(A - tA^T) = +-Delta proved on the way."""
    _require_rank(knot.seifert_rank())
    matrix = seifert_matrix(torus_braid(knot))
    v = random.Random(matrix.size).choices(range(1, 64), k=matrix.size)
    return matrix, _exact_krylov(matrix.entries, v, knot.p, knot.q)


def torus_seifert_matrix(knot: TorusKnot) -> SeifertMatrix:
    """Seifert matrix of the torus braid closure, det(A - tA^T) = +-Delta proved
    exactly from one Krylov sequence of its monodromy, with no prime."""
    return _validated_monodromy(knot)[0]


# --------------------------------------------------------------------------
# numeric Hermitian-form signature


def hermitian_signature(matrix, t: RationalAngle, tol: float = DEFAULT_TOLERANCE) -> int:
    """Sign count of the Hermitian form (1-w)A + (1-conj(w))A^T at w = e^{2*pi*i*t}.

    One complex Hermitian eigen-solve of size n.  Any eigenvalue smaller
    than tol times the largest magnitude raises NearSingular: the caller
    should pick a different t (midpoints between candidate jumps are always
    safe), never round.  `verify` no longer calls it: tests keep it as the
    slow reference for `oracle_step_function`.
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


def oracle_step_function(knot: TorusKnot, tol: float = DEFAULT_TOLERANCE) -> StepFunction:
    """The whole signature function of T(p,q) from its validated Krylov sequence alone.

    Row k of the real FFT x of y_j = M^j v (j < pq) is an eigenvector of M
    for e^{2 pi i k/pq}, a simple root of Delta, if p, q do not divide k, and
    exactly zero otherwise (`_exact_krylov`).  Then A^T x = lambda A x, and as
    t passes k/pq one eigenvalue of the Hermitian form crosses zero with slope
    -2 Im(x_k* A x_k) = -2 pq Im G_k for G the real FFT of g_m = v^T A y_m:
    A M = A^T = M^-T A, so M^T A M = A and y_j^T A y_l = g_{(l-j) mod pq}.
    So sigma jumps by 2 if Im G_k < 0, else by -2.  Rows above pq/2 are
    conjugates with negated jumps, and sigma = 0 on (0, 1/pq).
    NearSingular unless each |Im G_k| is above tol times the largest.
    """
    (matrix, y), pq = _validated_monodromy(knot), knot.p * knot.q
    g = y[:pq] @ (matrix.entries.T @ y[0])  # exact in int64, as bounded above _exact_krylov
    k = np.arange(pq // 2 + 1)
    k = k[(k % knot.p != 0) & (k % knot.q != 0)]
    form = np.fft.rfft(g)[k].imag
    margin = np.abs(form)
    if not margin.min(initial=np.inf) > tol * margin.max(initial=0.0):
        t = RationalAngle(int(k[margin.argmin()]), pq)
        raise NearSingular(f"jump slope at t = {t} is not above {tol} times the largest")
    jumps = np.where(form < 0, 2, -2)
    steps = np.concatenate(([0], jumps, -jumps[::-1]))
    return StepFunction(np.concatenate((k, pq - k[::-1])), pq, np.cumsum(steps))
