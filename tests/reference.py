"""Slow, independent reference routes for the fast kernels in `torsig`.

Each function here computes the same quantity as a production kernel by a
deliberately different and simpler route (point-by-point or column-by-column
loops, sorting, a list-based walk).  The tests compare the kernels against
these; nothing in `src/` imports this module.  It also keeps
`rotation_relation`, the q -> q + p rotation of the balanced sequence, which
no `verify` suite runs, the %-formatting and `json.dumps` renderers that
`torsig.cli` replaced with its digit blocks (`_digits` and `_pieces`), and
the stored Krylov sequence that `torsig.oracle._exact_krylov` streams.
`monodromy_rows`, a dense row-by-row back-substitution on one matrix, is
the reference for `torsig.oracle._monodromy`, which builds M sparse, run by
run and level by level, for a whole batch of blocks at once: each block's
M, or its refusal naming the last row over 2^21, must be that of
`monodromy_rows` on the block alone.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from torsig.cli import SCHEMA_VERSION
from torsig.core import InvalidParameter, RationalAngle, TorusKnot
from torsig.lattice import StepFunction, classical_signature
from torsig.maxsig import DistanceProfile, balanced_sequence, distance_profile, max_cyclic_sum
from torsig.oracle import BraidWord, ValidationFailure


def floor_sum_naive(n: int, m: int, a: int, b: int) -> int:
    """sum of floor((a*i + b) / m) over 0 <= i < n, term by term."""
    return sum((a * i + b) // m for i in range(n))


@dataclass(frozen=True)
class AnnulusCount:
    """Lattice points inside the open annulus (t, t+1) versus outside it.

    inside + outside = (p-1)(q-1) unless some point sits exactly on the
    boundary (which happens only at jump abscissae).
    """

    inside: int
    outside: int


def annulus_count_bruteforce(knot: TorusKnot, t: RationalAngle) -> AnnulusCount:
    """O(pq) count looping over every lattice point."""
    p, q = knot.p, knot.q
    a, b = t.numerator, t.denominator
    # d(i,j) = (iq + jp)/(pq); compare against a/b by clearing denominators.
    lo = a * p * q          # t * (pq) * b ... both sides scaled by b
    hi = (a + b) * p * q    # (t+1) * pq * b
    inside = 0
    outside = 0
    for i in range(1, p):
        for j in range(1, q):
            norm = (i * q + j * p) * b
            assert norm != p * q * b, "no lattice point has Manhattan norm 1"
            if lo < norm < hi:
                inside += 1
            elif norm < lo or norm > hi:
                outside += 1
    return AnnulusCount(inside, outside)


def annulus_count(knot: TorusKnot, t: RationalAngle) -> AnnulusCount:
    """O(p) count: for each column i the admissible j form an open rational
    interval, counted by clearing denominators."""
    p, q = knot.p, knot.q
    a, b = t.numerator, t.denominator
    den = b * p
    inside = 0
    boundary = 0
    for i in range(1, p):
        # j must satisfy  q(t - i/p) < j < q(t + 1 - i/p)  and  0 < j < q.
        n1 = q * (a * p - i * b)
        n2 = n1 + q * den
        jmin = max(n1 // den + 1, 1)
        jmax = min((n2 - 1) // den, q - 1)
        if jmax >= jmin:
            inside += jmax - jmin + 1
        for boundary_num in (n1, n2):
            if boundary_num % den == 0 and 0 < boundary_num // den < q:
                boundary += 1
    total = (p - 1) * (q - 1)
    return AnnulusCount(inside, total - inside - boundary)


def lt_signature_columns(knot: TorusKnot, t: RationalAngle) -> int:
    """sigma_t from the O(p) per-column annulus count."""
    return 2 * annulus_count(knot, t).inside - knot.seifert_rank()


def classical_signature_loop(knot: TorusKnot) -> int:
    """(p-1)(q-1) - 4 * sum of floor(jq/2p) over 0 < j < p, j = p (mod 2), in O(p)."""
    p, q = knot.p, knot.q
    total = 0
    for j in range(2 - p % 2, p, 2):
        total += (j * q) // (2 * p)
    return (p - 1) * (q - 1) - 4 * total


@dataclass(frozen=True)
class DictProfile:
    """A distance profile as dicts from column index to distance.

    The dict reference form of `torsig.maxsig.DistanceProfile`, whose D is
    one int64 array with d and the indices derived from it; this one keys
    every value by its index, in increasing order, and compares by value.
    """

    p: int
    D: dict[int, int]
    d: dict[int, int]

    @classmethod
    def of(cls, profile: DistanceProfile) -> "DictProfile":
        js = profile.j.tolist()
        ks = [-j for j in reversed(js)]
        return cls(profile.p, dict(zip(js, profile.D.tolist())),
                   dict(zip(ks, profile.d.tolist())))


def distance_profile_loop(knot: TorusKnot) -> DictProfile:
    """D_j = (-j*q) mod 2p and d_k = 2p - D_{-k}, one Python int at a time."""
    p, q = knot.p, knot.q
    D = {j: (-j * q) % (2 * p) for j in range(-p + 2, 0, 2)}
    d = {k: 2 * p - D[-k] for k in range(2 - p % 2, p, 2)}
    return DictProfile(p, D, d)


def geometric_distance_profile(knot: TorusKnot) -> DictProfile:
    """Distances measured geometrically, by scanning lattice rows.

    Works in coordinates with the origin moved to (1/2, 0), where the two
    boundary lines of the half-signature annulus become y = -x and
    y = -x + 1.  For each column the nearest lattice row strictly below the
    relevant line is found by scanning; the row y = 0 participates as the
    boundary row (it is the minimizer whenever the column has no interior
    point below the line).  Distances are scaled by 2pq.
    """
    p, q = knot.p, knot.q
    D: dict[int, int] = {}
    d: dict[int, int] = {}
    for j in range(-p + 2, 0, 2):
        # column x = j/(2p); lower line y = -x, i.e. y = -j/(2p) > 0
        best = None
        for row in range(q):  # y = row/q, including the boundary row 0
            scaled_gap = (-j) * q - 2 * p * row  # 2pq * (-x - y)
            if scaled_gap > 0 and (best is None or scaled_gap < best):
                best = scaled_gap
        D[j] = best
    for k in range(2 - p % 2, p, 2):
        # column x = k/(2p); upper line y = -x + 1
        best = None
        for row in range(q + 1):
            scaled_gap = (2 * p - k) * q - 2 * p * row  # 2pq * (1 - x - y)
            if scaled_gap > 0 and (best is None or scaled_gap < best):
                best = scaled_gap
        d[k] = best
    return DictProfile(p, D, d)


def sorted_balanced_sequence(profile: DictProfile) -> tuple[int, ...]:
    """Sort the labelled (value, kind, index) triples; D -> +1, d -> -1."""
    triples = [(v, "D", j) for j, v in profile.D.items()]
    triples += [(v, "d", k) for k, v in profile.d.items()]
    triples.sort()
    return tuple(1 if kind == "D" else -1 for _, kind, _ in triples)


def max_cyclic_sum_loop(entries: tuple[int, ...]) -> int:
    """Largest prefix sum of one period, at least 0 (the empty sum)."""
    best = running = 0
    for a in entries:
        running += a
        best = max(best, running)
    return best


def max_signature_sorted(knot: TorusKnot) -> int:
    """sigma + 2M through the loop profile, the sort and the loop sum."""
    if knot.p == 1:
        return 0
    entries = sorted_balanced_sequence(distance_profile_loop(knot))
    return classical_signature_loop(knot) + 2 * max_cyclic_sum_loop(entries)


def ordering_holds_sorted(p: int, profile: DictProfile, kinds: tuple[int, ...]) -> bool:
    """The T(p,p+1) distance ordering, read off the dicts and the sorted kinds:
    all D before all d with D_{-2} < D_{-4} < ... for even p, all d before
    all D for odd p."""
    m = len(kinds) // 2
    expected = (1,) * m + (-1,) * m if p % 2 == 0 else (-1,) * m + (1,) * m
    if kinds != expected:
        return False
    if p % 2 == 0:
        by_index = [profile.D[j] for j in sorted(profile.D, reverse=True)]
        return by_index == sorted(by_index)
    return True


@dataclass(frozen=True)
class RotationReport:
    """Outcome of comparing the sequences of T(p,q) and T(p,q+p).

    For even p the two balanced sequences coincide; for odd p the second
    is the first read starting (p-1)/2 entries later (cyclic left shift).
    """

    knot: TorusKnot
    shifted_knot: TorusKnot
    shift: int
    sequence: tuple[int, ...]
    shifted_sequence: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.shifted_sequence == self.sequence[self.shift:] + self.sequence[:self.shift]


def rotation_relation(knot: TorusKnot) -> RotationReport:
    """Check how the balanced sequence transforms under q -> q + p."""
    p, q = knot.p, knot.q
    if p < 2:
        raise InvalidParameter("rotation relation needs p >= 2")
    other = TorusKnot(p, q + p)
    seq = balanced_sequence(distance_profile(knot))
    seq_other = balanced_sequence(distance_profile(other))
    shift = 0 if p % 2 == 0 else (p - 1) // 2
    return RotationReport(knot, other, shift, tuple(seq.tolist()), tuple(seq_other.tolist()))


@dataclass(frozen=True)
class FractionStep:
    """A step function with its breakpoints as a tuple of Fractions.

    The list-based reference form of `torsig.lattice.StepFunction`, whose
    breakpoints, values and argmax pieces are int64 arrays of integers and of
    numerators over pq; this one holds tuples and compares by value.
    """

    breakpoints: tuple[Fraction, ...]
    interval_values: tuple[int, ...]
    breakpoint_values: tuple[int, ...]

    @classmethod
    def of(cls, step: StepFunction) -> "FractionStep":
        pq = step.denominator
        points = tuple(Fraction(k, pq) for k in step.breakpoints.tolist())
        return cls(points, tuple(step.interval_values.tolist()),
                   tuple(step.breakpoint_values.tolist()))

    def value_at(self, t: Fraction) -> int:
        """sigma_t by bisection over the breakpoints, for 0 < t < 1."""
        if not 0 < t < 1:
            raise ValueError(f"t = {t} outside (0, 1)")
        k = bisect.bisect_left(self.breakpoints, t)
        if k < len(self.breakpoints) and self.breakpoints[k] == t:
            return self.breakpoint_values[k]
        return self.interval_values[k]

    def argmax_pieces(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Maximizing pieces as (lo, hi) pairs, collected piece by piece."""
        m = max(self.interval_values + self.breakpoint_values)
        bounds = (Fraction(0),) + self.breakpoints + (Fraction(1),)
        pieces = []
        for k, value in enumerate(self.interval_values):
            if value == m:
                pieces.append((bounds[k], bounds[k + 1]))
        for t, value in zip(self.breakpoints, self.breakpoint_values):
            if value == m:
                pieces.append((t, t))
        pieces.sort()
        return tuple(pieces)


def pieces_as_fractions(pieces, denominator: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """The (m, 2) numerator array of StepFunction.argmax_pieces as Fraction pairs."""
    return tuple((Fraction(lo, denominator), Fraction(hi, denominator))
                 for lo, hi in pieces.tolist())


def argmax_in_window_fractions(pieces, q: int) -> bool:
    """Whether some open interval (a, b) of Fractions meets (1/2 - 1/q, 1/2]."""
    lo, hi = Fraction(1, 2) - Fraction(1, q), Fraction(1, 2)
    return any(a < hi and b > lo for a, b in pieces)


def step_function_walk(knot: TorusKnot) -> FractionStep:
    """The step function from a list histogram of the norms and a
    candidate-by-candidate walk that updates the inside count."""
    p, q = knot.p, knot.q
    pq = p * q
    rank = (p - 1) * (q - 1)
    if rank == 0:
        return FractionStep((), (0,), ())
    counts = [0] * (2 * pq)
    for i in range(1, p):
        for j in range(1, q):
            counts[i * q + j * p] += 1
    inside = sum(counts[1:pq])
    breakpoints = []
    interval_values = [2 * inside - rank]
    breakpoint_values = []
    for k in range(1, pq):
        lost, gained = counts[k], counts[k + pq]
        if lost == 0 and gained == 0:
            continue
        at_breakpoint = inside - lost
        inside = at_breakpoint + gained
        breakpoints.append(Fraction(k, pq))
        breakpoint_values.append(2 * at_breakpoint - rank)
        interval_values.append(2 * inside - rank)
    return FractionStep(tuple(breakpoints), tuple(interval_values), tuple(breakpoint_values))


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_div_exact(num, den) -> list[int]:
    """Quotient of an exact division by a divisor with leading coefficient +-1."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        f = num[k] // lead
        quot[k - dn] = f
        for i, d in enumerate(den):
            num[k - dn + i] -= f * d
    if any(num):
        raise ValueError("division is not exact")
    return quot


def _t_power_minus_one(n: int) -> list[int]:
    return [-1] + [0] * (n - 1) + [1]


def torus_alexander_by_division(knot: TorusKnot) -> tuple[int, ...]:
    """(t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)) by two exact long divisions."""
    p, q = knot.p, knot.q
    num = _poly_mul(_t_power_minus_one(p * q), _t_power_minus_one(1))
    quot = _poly_div_exact(_poly_div_exact(num, _t_power_minus_one(p)), _t_power_minus_one(q))
    while len(quot) > 1 and quot[-1] == 0:
        quot.pop()
    return tuple(quot)


def _mobius(k: int) -> int:
    """(-1)^r if k is the product of r distinct primes, else 0, by trial division."""
    sign, f = 1, 2
    while k > 1:
        if f * f > k:
            f = k
        if k % f == 0:
            k //= f
            if k % f == 0:
                return 0
            sign = -sign
        f += 1
    return sign


def _times_binomial(f: list[int], e: int) -> list[int]:
    """f * (t^e - 1)."""
    out = [0] * e + f
    for k, c in enumerate(f):
        out[k] -= c
    return out


def _over_binomial(f: list[int], e: int) -> list[int]:
    """f / (t^e - 1), exactly: f = g t^e - g gives g_k = g_{k-e} - f_k."""
    g = []
    for k, c in enumerate(f):
        g.append((g[k - e] if k >= e else 0) - c)
    if any(g[len(f) - e :]):
        raise ValueError("division is not exact")
    return g[: len(f) - e]


def _times_cyclotomic(f: list[int], d: int) -> list[int]:
    """f * Phi_d, Phi_d being the product of (t^e - 1)^mu(d/e) over e | d:
    every factor with mu = 1 multiplied in, then every one with mu = -1
    divided out exactly."""
    divisors = [e for e in range(1, d + 1) if d % e == 0]
    for e in divisors:
        if _mobius(d // e) == 1:
            f = _times_binomial(f, e)
    for e in divisors:
        if _mobius(d // e) == -1:
            f = _over_binomial(f, e)
    return f


def cyclotomic(d: int) -> list[int]:
    """Phi_d, ascending coefficients."""
    return _times_cyclotomic([1], d)


def cyclotomic_torus_alexander(p: int, q: int) -> tuple[int, ...]:
    """The product of Phi_d over d | pq dividing neither p nor q: the factor
    set the oracle proves, each Phi_d built by exact integer division."""
    f = [1]
    for d in range(1, p * q + 1):
        if p * q % d == 0 and p % d and q % d:
            f = _times_cyclotomic(f, d)
    return tuple(f)


def seifert_bricks_loop(braid: BraidWord) -> list[list[int]]:
    """Brick matrix of a positive braid closure, one pair of bricks at a time.

    Bricks are consecutive occurrences (a, b) of a generator g, ordered by
    generator and then by position.  Raw rules: each brick links its own
    pushoff -1; the earlier of two consecutive bricks of one generator links
    the later +1; a brick of g links an interleaving brick of g+1 with +1 when
    it starts first (a < c < b < d) and -1 when it starts second
    (c < a < d < b).  The whole matrix is then multiplied by -1, the sign
    under which sigma(T(2,3)) = +2.
    """
    occurrences: dict[int, list[int]] = defaultdict(list)
    for pos, g in enumerate(braid.letters):
        occurrences[g].append(pos)
    bricks = []
    for g in sorted(occurrences):
        positions = occurrences[g]
        bricks.extend((g, a, b) for a, b in zip(positions, positions[1:]))
    m = len(bricks)
    raw = [[0] * m for _ in range(m)]
    for u, (gu, a, b) in enumerate(bricks):
        raw[u][u] = -1
        for v, (gv, c, d) in enumerate(bricks):
            if gv == gu and b == c:
                raw[u][v] = 1
            elif gv == gu + 1:
                if a < c < b < d:
                    raw[u][v] = 1
                elif c < a < d < b:
                    raw[u][v] = -1
    return [[-x for x in row] for row in raw]


def monodromy_rows(a: np.ndarray) -> np.ndarray:
    """M = A^{-1} A^T for an upper-triangular int64 A with diagonal +-1, one
    row at a time from the bottom: M[k] = A[k,k] (A^T[k] - A[k,nz] M[nz]) over
    the nonzeros nz of row k right of the diagonal.  Raises the same
    ValidationFailure as `_monodromy` when an entry reaches 2^21: M[k] reads
    only later rows, so the last row that does is exact."""
    m = a.T.copy()
    rows, cols = np.nonzero(np.triu(a, 1))
    starts = np.searchsorted(rows, np.arange(len(a) + 1))
    for k in range(len(a) - 1, -1, -1):
        nz = cols[starts[k] : starts[k + 1]]
        m[k] = a[k, k] * (m[k] - a[k, nz] @ m[nz])
    big = np.flatnonzero((np.abs(m) >= 2**21).any(axis=1))
    if big.size:
        raise ValidationFailure(f"row {big[-1]} of A^-1 A^T has an entry of 2^21 or more")
    return m


def krylov_rows(a: np.ndarray, v, count: int) -> np.ndarray:
    """y_j = M^j v for j < count, M = A^{-1} A^T from `monodromy_rows`, one
    dense int64 mat-vec per row: the stored sequence that
    `torsig.oracle._exact_krylov` streams.  Exact while every entry stays
    below 2^31, as it does on the torus knots the tests run."""
    m = monodromy_rows(np.asarray(a, dtype=np.int64))
    y = np.empty((count, len(m)), np.int64)
    y[0] = v
    for j in range(1, count):
        y[j] = m @ y[j - 1]
    return y


def _det_mod(rows: list[list[int]], p: int) -> int:
    """det mod p by Gaussian elimination on Python ints."""
    m = [[x % p for x in row] for row in rows]
    n, det = len(m), 1
    for k in range(n):
        r = next((r for r in range(k, n) if m[r][k]), None)
        if r is None:
            return 0
        if r != k:
            m[k], m[r] = m[r], m[k]
            det = -det
        det = det * m[k][k] % p
        inverse = pow(m[k][k], -1, p)
        for i in range(k + 1, n):
            f = m[i][k] * inverse % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[k])]
    return det % p


def charpoly_mod_interp(rows: list[list[int]], p: int) -> list[int]:
    """Ascending coefficients of det(x*I - M) mod p: the determinant at
    x = 0..n, then Lagrange interpolation mod p."""
    n = len(rows)
    points = range(n + 1)
    values = [
        _det_mod([[(x if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)], p)
        for x in points
    ]
    coeffs = [0] * (n + 1)
    for i in points:
        basis, denom = [1], 1
        for j in points:
            if j != i:
                basis = [(lo - j * hi) % p for lo, hi in zip([0] + basis, basis + [0])]
                denom = denom * (i - j) % p
        weight = values[i] * pow(denom, -1, p) % p
        coeffs = [(c + weight * b) % p for c, b in zip(coeffs, basis)]
    return coeffs


def has_repeated_root_mod(coeffs: list[int], p: int) -> bool:
    """Whether a polynomial (ascending coefficients) has a repeated root over
    the algebraic closure of F_p: gcd(f, f') mod p has positive degree, by
    Euclid's algorithm on Python ints."""

    def trimmed(f):
        f = [c % p for c in f]
        while f and f[-1] == 0:
            f.pop()
        return f

    f, g = trimmed(coeffs), trimmed([k * c for k, c in enumerate(coeffs)][1:])
    while g:
        inverse = pow(g[-1], -1, p)
        while len(f) >= len(g):
            factor, shift = f[-1] * inverse, len(f) - len(g)
            f = trimmed([c - factor * g[i - shift] if i >= shift else c for i, c in enumerate(f)])
        f, g = g, f
    return len(f) > 1


def rows_by_percent(row: str, *columns) -> str:
    """`row` filled from each index of the lists in turn, cut to the
    shortest, by one % call: the route `torsig.cli._pieces` replaced."""
    count = min(map(len, columns))
    return (row * count) % tuple(chain.from_iterable(zip(*columns)))


def sweep_csv_by_percent(step: StepFunction) -> str:
    """`torsig sweep` csv from str(Fraction) bounds and %-formatted rows."""
    f = FractionStep.of(step)
    points = [str(t) for t in f.breakpoints]
    bounds = ["0", *points, "1"]
    return ("t_lo,t_hi,sigma\n" + rows_by_percent("%s,%s,%d\n", bounds, bounds[1:], f.interval_values)
            + "\nt,sigma\n" + rows_by_percent("%s,%d\n", points, f.breakpoint_values))


def sweep_json_by_dumps(knot: TorusKnot, step: StepFunction) -> str:
    """`torsig sweep --format json` as json.dumps(sort_keys=True, indent=2) writes it."""
    f = FractionStep.of(step)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "p": knot.p,
        "q": knot.q,
        "breakpoints": [str(t) for t in f.breakpoints],
        "interval_values": list(f.interval_values),
        "breakpoint_values": list(f.breakpoint_values),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def max_json_by_dumps(knot: TorusKnot) -> str:
    """`torsig max --format json` as json.dumps(sort_keys=True, indent=2)
    writes it, with string keys for D and d; the numbers come from the
    production kernels, so only the rendering is independent."""
    profile = distance_profile(knot)
    sequence = balanced_sequence(profile)
    sigma, m = classical_signature(knot), max_cyclic_sum(sequence)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "p": knot.p,
        "q": knot.q,
        "sigma": sigma,
        "M": m,
        "sigma_hat": sigma + 2 * m,
        "g4_lb": (sigma + 2 * m + 1) // 2,
        "D": dict(zip(map(str, profile.j.tolist()), profile.D.tolist())),
        "d": dict(zip(map(str, (-profile.j[::-1]).tolist()), profile.d.tolist())),
        "sequence": sequence.tolist(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
