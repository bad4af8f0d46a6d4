"""Independent verification path for the lattice and profile engines.

Builds the Seifert matrix of a positive braid closure from its brick
decomposition, proves det(A - t*A^T) = +-Delta exactly for a torus knot
from one exact Krylov sequence M^j v of the monodromy M = A^{-1}A^T, and
reads the whole signature function off that same sequence: its real FFT
projects v onto the eigenvectors of M, and the jump formula at the roots of
Delta (Matumoto 1977, Gambaudo-Ghys 2005) gives each jump of sigma as the
sign of one term of the real FFT of the scalar sequence g_j = v^T A M^j v.  A
general braid gets a check modulo one prime.  None of this shares code with
`torsig.lattice` or `torsig.maxsig`, which is the point; the one exception is
`brute_force_max`, which wraps `signature_step_function`.

The proof needs g alone too: Moebius sums of g over the divisors of pq
give a certificate c_d per cyclotomic factor Phi_d of Delta (see
`_exact_krylov`), so no vector M^j v outlives the step that uses it.  Knots
run in batches: their monodromies side by side as one block-diagonal
operator, in decreasing order of pq, so each step touches only the knots
not yet done, and a knot that fails any check fails alone.

Every brick matrix is upper triangular with diagonal +-1 (bricks are
ordered by generator, then by position, and only earlier bricks link later
ones).  So det A = +-1, and the monodromy M = A^{-1}A^T is an integer
matrix.  `_monodromy` builds it sparse from A's links, a run of rows at a
time: the bricks of one generator form a run whose diagonal block is
I - (superdiagonal), which a running sum inverts.  A batch is one
block-diagonal A from one brick build, and the runs of all its knots at one
distance from their knot's last run take one vectorised pass, so T(p,q)
takes p - 1 passes and no n x n array is built.

The brick matrix comes as links: each brick's diagonal and at most three
links to later bricks, which `seifert_matrix` scatters into a read-only
int64 array.  Its sign convention (a wrong one silently computes the mirror
knot) is fixed so that sigma(T(2,3)) = +2 and pinned by tests: the
Alexander-polynomial check catches wrong linking patterns, the comparison
of signature functions with the lattice engine a wrong global sign.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
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
    "brute_force_max",
    "oracle_step_function",
    "oracle_step_functions",
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
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        # one C-level pass per test; the loop below only names the first bad letter
        if letters and not (set(map(type, letters)) <= {int}
                            and 1 <= min(letters) and max(letters) < self.strands):
            bad = next(g for g in letters if type(g) is not int or not 1 <= g < self.strands)
            raise InvalidParameter(f"letter {bad!r} outside [1, {self.strands - 1}]")

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
# Each step is exact.  _MAX_RANK = 2^11 is the rank that `_exact_krylov`'s
# int64 bounds allow (below).  Entries of A and M below _ENTRY_BOUND = 2^21
# keep a back-substitution row below n 2^42 + 2^22 < 2^63.  Mod _PRIME < 2^26,
# a mat-vec row, a dot product and a Berlekamp-Massey discrepancy (its length
# is at most n) add at most n products below _PRIME^2 to a residue, which
# n <= 2^11 keeps below 2^63.

_PRIME = 67108859
_MAX_RANK = 2**11
_ENTRY_BOUND = 2**21
_KRYLOV_TRIES = 3


def _require_rank(n: int) -> None:
    if not 0 <= n <= _MAX_RANK:
        raise InvalidParameter(f"rank {n} is not in [0, {_MAX_RANK}]: not a knot, or too large")


def _monodromy(rows, cols, values, first) -> tuple:
    """M = A^{-1} A^T, exactly, for a block-diagonal int64 A given by its
    links (rows, cols, values), block i on rows first[i]..first[i+1] - 1:
    M's nonzeros by row (cols, values, and starts: row k's are at
    starts[k]..starts[k+1] - 1), and per block None or its ValidationFailure.

    With D = diag(A) (D^2 = I), U = DA has diagonal 1 and U M = D A^T.  A run
    is a block of rows lo..hi on which U's diagonal block is I - N, N the
    superdiagonal: U[k,k+1] = -1 within it and no other entry.  For k in it,
    M[k] - M[k+1] = B[k] = (D A^T)[k] - sum over j > hi of U[k,j] M[j] (and
    M[hi] = B[hi]), so M[k] is the sum of B[i] over k <= i <= hi.  A brick
    matrix has one run per generator (consecutive bricks of a generator link
    by -1, and nothing else within it); elsewhere a row with no such link
    is a run of one, the plain back-substitution step.  A run reads only
    later runs of its block, so the runs of every block at one level (the
    number of runs after it in its block) take one vectorised pass, and
    T(p,q) takes p - 1.  A pass lists the terms of each B[k] (the rows of M
    its couplings read, times -U[k,j], and D A^T), sorts them by column and
    then by row from hi down, and sums them in each (run, column) group:
    after the last term of row k the sum is M[k, column], down to the next
    row with a term.

    A block that is not upper triangular with diagonal +-1 fails.  So does
    one with an entry of M of 2^21 or more, naming its last row that has
    one, and that row is exact.  M[k] reads only the rows after k in its
    block.  If those are exact and below 2^21, as A's entries are, each
    partial sum of its groups (M[k+1, c] and some terms of B[k, c]) is below
    n 2^42 + 2^22 < 2^63 (n <= 2^11), so M[k] is exact too, even if the
    rows before it then wrap; and if no row reaches the bound, every row is
    exact.  A group's sums are one cumsum less its value before the group:
    int64 wraps mod 2^64, so each is exact while its true value is below 2^63.
    """
    n = int(first[-1])
    block = np.repeat(np.arange(len(first) - 1), np.diff(first))  # of each row
    sign, superdiagonal = np.zeros(n, np.int64), np.zeros(n, np.int64)
    sign[rows[rows == cols]] = values[rows == cols]
    superdiagonal[rows[cols == rows + 1]] = values[cols == rows + 1]
    wrong = np.abs(sign) != 1  # rows that refuse their block
    wrong[rows[rows > cols]] = True
    # row k runs on into row k + 1 if U[k,k+1] = -1, and no other entry of
    # row k falls in the chain of such links through it
    joined = sign[:-1] * superdiagonal[:-1] == -1
    run = np.ones(n, bool)  # a run starts at this row
    run[1:] = ~joined
    chain = np.cumsum(run)
    joined[rows[(cols > rows + 1) & (chain[rows] == chain[cols])]] = False
    run[1:] = ~joined
    lo, run = np.flatnonzero(run), np.cumsum(run) - 1  # each run's first row, each row's run
    level = (np.searchsorted(lo, first[1:]) - 1)[block] - run
    later = run[cols] > run[rows]  # U's couplings
    k, j, u = rows[later], cols[later], values[later] * sign[rows[later]]
    start, count = np.zeros(n, np.int64), np.zeros(n, np.int64)  # of each row of M in m
    m = np.zeros((3, 0), np.int64)  # M's rows, columns and values, a level at a time
    for step in range(int(level.max(initial=-1)) + 1):
        now, direct = level[k] == step, level[cols] == step  # D A^T holds A[i,k] at (k, i)
        size = count[j[now]]
        at = np.repeat(start[j[now]] - np.cumsum(size) + size, size) + np.arange(size.sum())
        r = np.concatenate((np.repeat(k[now], size), cols[direct]))
        c = np.concatenate((m[1, at], rows[direct]))
        x = np.concatenate((-np.repeat(u[now], size) * m[2, at],
                            values[direct] * sign[cols[direct]]))
        order = np.argsort(c * n - r)  # by column, then by row from the bottom
        r, c, x = r[order], c[order], x[order]
        head = np.ones(r.size, bool)  # a (run, column) group starts here
        head[1:] = (c[1:] != c[:-1]) | (run[r[1:]] != run[r[:-1]])
        sums, h = np.cumsum(x), np.flatnonzero(head)
        sums -= np.repeat(sums[h] - x[h], np.diff(np.append(h, r.size)))
        last = np.ones(r.size, bool)  # the last term of its row in its group
        last[:-1] = (c[1:] != c[:-1]) | (r[1:] != r[:-1])
        below = np.where(np.append(~head[1:], False), np.append(r[1:], 0) + 1, lo[run[r]])
        keep = last & (sums != 0)
        r, c, sums, size = r[keep], c[keep], sums[keep], r[keep] - below[keep] + 1
        r = np.repeat(r + np.cumsum(size) - size, size) - np.arange(size.sum())  # down to below
        rows_m = np.stack((r, np.repeat(c, size), np.repeat(sums, size)))
        rows_m = rows_m[:, np.argsort(r * n + rows_m[1])]
        h = np.flatnonzero(np.diff(rows_m[0], prepend=-1))  # each row's first entry
        start[rows_m[0, h]] = m.shape[1] + h
        count[rows_m[0, h]] = np.diff(np.append(h, rows_m.shape[1]))
        m = np.concatenate((m, rows_m), axis=1)
    m = m[:, np.argsort(m[0], kind="stable")]
    big = m[0, (m[2] >= _ENTRY_BOUND) | (m[2] <= -_ENTRY_BOUND)]  # in increasing order
    refused, named = set(block[wrong].tolist()), dict(zip(block[big].tolist(), big.tolist()))
    errors = [ValidationFailure("A is not upper triangular with diagonal +-1") if i in refused
              else ValidationFailure(f"row {named[i] - f} of A^-1 A^T has an entry of 2^21 or more")
              if i in named else None for i, f in enumerate(first[:-1])]
    return m[1], m[2], np.concatenate(([0], np.cumsum(count))), errors


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
    Berlekamp-Massey on u^T M^i v (i < 2n, M built and held sparse by
    `_monodromy`, dense only for the return value) finds once it
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
    rows, cols = np.nonzero(a)
    cols, values, starts, [error] = _monodromy(rows, cols, a[rows, cols], np.array([0, n]))
    if error:
        raise error
    m = np.zeros((n, n), np.int64)
    m[np.repeat(np.arange(n), np.diff(starts)), cols] = values
    # det M = 1, so every row of M has a nonzero and starts a segment of them
    values, starts, rng = values % _PRIME, starts[:-1], random.Random(n)
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


def _brick_matrix(letters: np.ndarray) -> tuple:
    """Brick matrix of the int64 letters of a braid word, by its links
    (rows, cols, values), the diagonal included: one brick per pair (a, b)
    of consecutive positions of the same generator g, ordered by generator
    and then by position.

    Entry [u][v], in the sign where sigma(T(2,3)) = +2:
      * +1 on the diagonal;
      * -1 when v is the next brick of u's generator (b_u = a_v);
      * for v of generator g_u + 1 whose interval interleaves u's:
        -1 when u starts first (a_u < a_v < b_u < b_v), +1 when it starts
        second (a_v < a_u < b_v < b_u).

    So u has at most two such v, both read off the letters of g_u + 1: the
    -1 brick starts at the last of them before b_u, if that is after a_u
    and another follows; the +1 brick ends at the first of them after a_u,
    if that is before b_u and another precedes.  One searchsorted over the
    (generator, position) keys of all letters finds each.
    """
    size = letters.size
    order = np.lexsort((np.arange(size), letters))  # positions by (generator, position)
    gens = letters[order]
    opens = np.append(gens[1:] == gens[:-1], False)  # i opens the brick (order[i], order[i+1])
    brick = np.cumsum(opens) - 1  # the index of the brick that i opens
    starts = np.flatnonzero(opens)
    up, a, b = gens[starts] + 1, order[starts], order[starts + 1]
    keys = gens * size + order  # increasing
    last = np.searchsorted(keys, up * size + b) - 1  # >= the letter at b
    first = np.minimum(np.searchsorted(keys, up * size + a), size - 1)  # > the letter at b
    minus = (gens[last] == up) & (order[last] > a) & opens[last]
    plus = (gens[first] == up) & (a < order[first]) & (order[first] < b) & opens[first - 1]
    u = np.arange(starts.size)
    chained = u[:-1][opens[starts[:-1] + 1]]  # the next brick has u's generator
    rows = np.concatenate((u, chained, u[minus], u[plus]))
    cols = np.concatenate((u, chained + 1, brick[last[minus]], brick[first[plus] - 1]))
    values = np.repeat(np.array([1, -1, -1, 1]), [u.size, chained.size, minus.sum(), plus.sum()])
    return rows, cols, values


def seifert_matrix(braid: BraidWord) -> SeifertMatrix:
    """Seifert matrix of a positive braid closure, which must be a knot of rank <= _MAX_RANK."""
    rank = len(braid.letters) - braid.strands + 1
    _require_rank(rank)  # a knot needs strands - 1 letters or more
    components = braid.closure_components()
    if components != 1:
        raise InvalidParameter(f"closure has {components} components, need a knot")
    # a knot's closure uses every generator, so it has rank bricks
    entries = np.zeros((rank, rank), np.int64)
    rows, cols, values = _brick_matrix(np.array(braid.letters, dtype=np.int64))
    entries[rows, cols] = values
    entries.flags.writeable = False
    return SeifertMatrix(entries)


# --------------------------------------------------------------------------
# det(A - t*A^T) = +-Delta exactly for T(p,q), from one streamed Krylov sequence
#
# Let N = pq, y_j = M^j v exactly, u = A^T v and g_j = u . y_j.  If y_N = v,
# then M^N = I on the Krylov space K of v, so M is diagonalizable on K, and
# t^N - 1 splits K into the kernels of the Phi_d(M), d | N, with rational
# projectors E_d.  On K, the sum of M^j over j < N with e | j is (N/e) times
# the sum of E_d over d | e, so Moebius inversion of S_e = sum_{j<N, e|j} y_j
# gives w_d = sum_{e|d} mu(d/e) e S_e = N E_d v.  Its projection
# c_d = u . w_d = sum_{e|d} mu(d/e) e sum_{j<N, e|j} g_j needs g alone, and
# c_d != 0 proves w_d != 0.  Phi_d is irreducible over Q, so minpoly(v) is
# the product of the Phi_d with w_d != 0.  If c_d != 0 for every d | N
# dividing neither p nor q, then:
#   * deg minpoly(v) >= sum of phi(d) over those d = (p-1)(q-1) = n, so v is
#     cyclic, K = Q^n, and minpoly(v), of degree n at most, is their product;
#   * M^N = I on all of Q^n, and charpoly(M) = minpoly(v) = prod Phi_d =
#     (t^N - 1)(t - 1)/((t^p - 1)(t^q - 1)) = Delta;
#   * A is upper triangular of size n with diagonal +-1 (checked: `_stream`
#     refuses a link out of the knot's n rows, `_monodromy` a row with no
#     diagonal +-1 or an entry below it), so det(A - t*A^T) =
#     det A * t^n charpoly(M)(1/t) = +-Delta exactly (Delta is palindromic).
# Every other d then has w_d = 0, and c_d = 0 is checked there too, so a
# wrong M fails at its first wrong d either way.  Last, g_m = g_{(1-m) mod N}
# is checked: g_{-m} = y_m^T A y_0 = y_0^T A^T y_m = y_0^T A M y_m = g_{m+1},
# as A^T = AM; it ties the sequence the jump stage reads to A.
# Milnor (Singular Points of Complex Hypersurfaces, 1968) is why this passes:
# M is the monodromy of x^p + y^q, of order pq; the proof does not use it.
#
# int64: with n <= 2^11 and |M| < 2^21, a mat-vec row of entries below 2^31
# stays below 2^63, and |u| < 2^21 (checked) keeps every partial sum of g_j
# below n 2^21 2^31 <= 2^63; the sums S_e and c_d are Python ints.  Brick
# entries lie in {-1, 0, 1} (each off-diagonal link of `_brick_matrix` goes to
# a different brick, so no entry is written twice) and v < 2^6, so
# |u| < 2^17 passes.  `_cadence` checks 2^31 on a cadence: with L >= 1 the
# largest row l1 norm of a knot's own M and `every` the largest power of two
# e <= 64 with e = 1 or L^e <= 2^16, the knot needs |y_j| < B = 2^31 // L^every
# at each j that `every` divides.  Then |y_{j+s}| <= L^s (B - 1) < 2^31 for
# s <= every, so each y up to a knot's first failed check is exact.
#
# No y_j is kept: a batch runs as one block-diagonal operator, its knots in
# decreasing order of pq, and step j applies M to the knots with pq > j, a
# prefix of its rows, into a double buffer, adds up their g_j, checks each
# knot's y against its B if its `every` divides j, and compares y_pq with v
# as each finishes.

# Rows of one batch.  Its build and Krylov loop hold a few int64 arrays per
# row, link of A, nonzero of M and slot of M padded to (w, n), and never an
# n x n one, so a large grid runs as several batches of a few MB.
_BATCH_ROWS = 2**16


def _start_vector(n: int) -> list:  # nonzero, and the same in every process
    return random.Random(n).choices(range(1, 64), k=n)


def _exact_krylov(knots) -> Iterator:
    """g_j = (A^T v) . M^j v for j < pq, M = A^{-1}A^T, exactly in int64,
    for each torus knot once it proves det(A - tA^T) = +-Delta(T(p,q)) as
    above, A its brick matrix and v = `_start_vector(n)`; else the
    TorsigError of that knot.  Yields them in the order of `knots`.  A knot
    over the rank bound is refused from p and q alone, before any letter is
    built; rank 0 needs no build, and the rest run in batches of at most
    _BATCH_ROWS rows (`_stream`), each yielded before the next starts."""
    results, batch, rows = [], [], 0
    for knot in knots:
        p, q, n = knot.p, knot.q, knot.seifert_rank()
        try:
            _require_rank(n)
            if not n:  # rank 0: y is empty, so g = 0
                results.append(_certify(np.zeros(p * q, np.int64), p, q))
                continue
        except TorsigError as error:  # kept without its frames
            results.append(error.with_traceback(None))
            continue
        if rows + n > _BATCH_ROWS:
            _stream(batch, results)
            yield from results
            results, batch, rows = [], [], 0
        batch.append((len(results), p, q, np.array(_start_vector(n), np.int64)))
        results.append(None)
        rows += n
    _stream(batch, results)
    yield from results


def _cadence(norm: int) -> tuple:
    """(every, B) of the bound check above, for M's largest row l1 norm L = norm >= 1."""
    every = max(e for e in (1, 2, 4, 8, 16, 32, 64) if e == 1 or norm**e <= 2**16)
    return every, 2**31 // norm**every


def _stream(batch: list, results: list) -> None:
    """One batch, (slot, p, q, v) per knot, in decreasing order of pq: its
    build, then its Krylov loop, then each knot's checks; results[slot]
    becomes the knot's g or ValidationFailure.  The build is one brick
    matrix of the knots' torus braids, each on generators past the last
    one's and one more, which has no letters, so no brick links two knots,
    and knot i's (p-1)(q-1) bricks are rows first[i]..first[i+1] - 1.  A
    knot fails with a link out of those rows (a brick too many; one too few
    leaves a row with no diagonal), or `_monodromy`'s checks, or
    |A^T v| < 2^21, and the rest are built again without it.  M steps y
    padded to (w, n): slot s of row i holds its s-th nonzero, or a pad that
    reads the zero y[n]."""
    batch = sorted(batch, key=lambda knot: -knot[1] * knot[2])
    while batch:
        slot, p, q, v = zip(*batch)
        first = np.cumsum([0, *map(len, v)])  # each knot's first row
        shift = np.cumsum([0, *p])  # and its generators' shift
        rows, cols, values = _brick_matrix(np.concatenate(
            [np.tile(np.arange(a - 1, 0, -1) + s, b) for a, b, s in zip(p, q, shift)]))
        own = np.minimum(np.searchsorted(first, rows, "right"), len(p)) - 1  # each link's knot
        out = (rows >= first[-1]) | (cols < first[own]) | (cols >= first[own + 1])
        sized = ~np.isin(np.arange(len(p)), own[out])
        rows, cols, values = rows[~out], cols[~out], values[~out]
        nz_cols, nz_values, starts, errors = _monodromy(rows, cols, values, first)
        v = np.concatenate(v)
        u = np.zeros_like(v)
        np.add.at(u, cols, values * v[rows])  # A^T v
        over = np.logical_or.reduceat((u >= _ENTRY_BOUND) | (u <= -_ENTRY_BOUND), first[:-1])
        errors = [error or (ValidationFailure("an entry of A^T v reaches 2^21") if o else None)
                  if s else ValidationFailure(f"A is not of size {n}")
                  for s, n, error, o in zip(sized, np.diff(first), errors, over)]
        if not any(errors):
            break
        for s, error in zip(slot, errors):
            results[s] = error
        batch = [knot for knot, error in zip(batch, errors) if not error]
    if not batch:
        return
    pq = np.array([a * b for a, b in zip(p, q)], dtype=np.int64)
    # step j runs the knots with pq > j, a prefix; g_j of knot i is g[at[j] + i]
    live = np.searchsorted(-pq, -np.arange(pq[0])).tolist()
    at = np.cumsum([0, *live])
    g = np.empty(at[-1], np.int64)
    n, count = len(v), np.diff(starts)
    filled = np.arange(count.max()) < count[:, None]  # (n, w): slot s of row i
    m_cols, m_values = np.full(filled.T.shape, n), np.zeros(filled.T.shape, np.int64)
    m_cols.T[filled], m_values.T[filled] = nz_cols, nz_values
    # each knot's L >= 1 (M is invertible), every, and B per row; the least every divides all
    norm = np.maximum.reduceat(np.abs(m_values).sum(axis=0), first[:-1]).tolist()
    cadence = {L: _cadence(L) for L in norm}
    every, bound = np.array([cadence[L] for L in norm]).T
    bound, least = np.repeat(bound, np.diff(first)), every.min()
    y, y_next = np.append(v, 0), np.zeros(n + 1, np.int64)  # y[n] = 0 for the pads
    over, closed = np.zeros(len(pq), bool), np.ones(len(pq), bool)
    for j, (k, done) in enumerate(zip(live, live[1:] + [0])):
        r = first[k]
        if not j % least:  # check the knots whose every divides j
            high = np.logical_or.reduceat(np.abs(y[:r]) >= bound[:r], first[:k])
            over[:k] |= high & (j % every[:k] == 0)
        np.add.reduceat(u[:r] * y[:r], first[:k], out=g[at[j] : at[j + 1]])
        np.multiply(m_values[0, :r], y[m_cols[0, :r]], out=y_next[:r])
        for c, x in zip(m_cols[1:, :r], m_values[1:, :r]):
            y_next[:r] += x * y[c]
        y, y_next = y_next, y
        if done < k:  # knots done..k-1 have pq = j + 1
            same = y[first[done] : r] == v[first[done] : r]
            closed[done:k] = np.logical_and.reduceat(same, first[done:k] - first[done])
    for i, s in enumerate(slot):
        try:
            if over[i]:
                raise ValidationFailure(f"an entry of (A^-1 A^T)^j v reaches 2^31 // "
                                        f"{norm[i]}^{every[i]} at a j divisible by {every[i]}")
            if not closed[i]:
                raise ValidationFailure(f"(A^-1 A^T)^{pq[i]} v is not v")
            results[s] = _certify(g[at[: pq[i]] + i], p[i], q[i])
        except ValidationFailure as error:
            results[s] = error.with_traceback(None)


def _certify(g: np.ndarray, p: int, q: int) -> np.ndarray:
    """g, once c_d is nonzero exactly for the d | pq dividing neither p nor q
    and g_m = g_{(1-m) mod pq}, as above; else ValidationFailure."""
    pq = p * q
    divisors, mu = [d for d in range(1, pq + 1) if pq % d == 0], {}
    for d in divisors:  # the sum of mu(e) over e | d is [d = 1]
        mu[d] = int(d == 1) - sum(mu[e] for e in mu if d % e == 0)
    terms = g.tolist()
    sums = {e: e * sum(terms[::e]) for e in divisors}
    for d in divisors:
        found = bool(sum(mu[d // e] * sums[e] for e in divisors if d % e == 0))
        if found != bool(p % d and q % d):
            raise ValidationFailure(f"the Phi_{d} component of v is {'non' * found}zero")
    wrong = np.flatnonzero(g != g[(1 - np.arange(pq)) % pq])
    if wrong.size:
        m = int(wrong[0])
        raise ValidationFailure(f"v^T A M^{m} v is not v^T A M^{(1 - m) % pq} v")
    return g


def _raised(result):
    """result, unless it is a TorsigError, which is raised."""
    if isinstance(result, TorsigError):
        raise result
    return result


def torus_seifert_matrix(knot: TorusKnot) -> SeifertMatrix:
    """Seifert matrix of the torus braid closure, det(A - tA^T) = +-Delta proved
    exactly from one Krylov sequence of its monodromy, with no prime: the
    one-knot batch of `_exact_krylov`."""
    _raised(next(_exact_krylov([knot])))
    return seifert_matrix(torus_braid(knot))


# --------------------------------------------------------------------------
# numeric Hermitian-form signature


def hermitian_signature(matrix, t: RationalAngle, tol: float = DEFAULT_TOLERANCE) -> int:
    """Sign count of the Hermitian form (1-w)A + (1-conj(w))A^T at w = e^{2*pi*i*t}.

    One complex Hermitian eigen-solve of size n.  Any eigenvalue smaller
    than tol times the largest magnitude raises NearSingular: the caller
    should pick a different t (midpoints between candidate jumps are always
    safe), never round.  Tests keep it as the slow reference for
    `oracle_step_function`.
    """
    a = np.asarray(getattr(matrix, "entries", matrix), dtype=float)
    if a.size == 0:
        return 0
    w = np.exp(2j * np.pi * t.numerator / t.denominator)
    eigenvalues = np.linalg.eigvalsh((1 - w) * a + (1 - np.conj(w)) * a.T)
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
    """The whole signature function of T(p,q) from its validated Krylov sequence
    alone: the one-knot batch of `oracle_step_functions`.

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
    return _raised(next(oracle_step_functions([knot], tol)))


def oracle_step_functions(knots, tol: float = DEFAULT_TOLERANCE) -> Iterator:
    """`oracle_step_function` of each knot, or the TorsigError it raises, in
    turn: one streamed Krylov loop per batch of knots (`_exact_krylov`), so
    only one batch's sequences are held at a time."""
    knots = list(knots)
    for knot, g in zip(knots, _exact_krylov(knots)):
        try:
            yield _jumps(_raised(g), knot.p, knot.q, tol)
        except TorsigError as error:
            yield error


def _jumps(g: np.ndarray, p: int, q: int, tol: float) -> StepFunction:
    """The step function read off the real FFT of g, as `oracle_step_function` tells."""
    pq = p * q
    k = np.arange(pq // 2 + 1)
    k = k[(k % p != 0) & (k % q != 0)]
    form = np.fft.rfft(g)[k].imag
    margin = np.abs(form)
    # a Python float product: one that overflows is inf, which no margin
    # exceeds, with no numpy overflow warning
    if not margin.min(initial=np.inf) > tol * float(margin.max(initial=0.0)):
        t = RationalAngle(int(k[margin.argmin()]), pq)
        raise NearSingular(f"jump slope at t = {t} is not above {tol} times the largest")
    jumps = np.where(form < 0, 2, -2)
    steps = np.concatenate(([0], jumps, -jumps[::-1]))
    return StepFunction(np.concatenate((k, pq - k[::-1])), pq, np.cumsum(steps))
