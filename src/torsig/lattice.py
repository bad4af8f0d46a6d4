"""Signature of T(p,q) from lattice-point counts in a Manhattan-norm annulus.

The lattice is Sigma = {(i/p, j/q) : 0 < i < p, 0 < j < q}.  A point a
contributes to the "inside" count at angle t when its Manhattan norm
d(a) = i/p + j/q lies strictly inside the open annulus (t, t+1), and

    sigma_t(T(p,q)) = 2 * inside - (p-1)(q-1).

All inequalities are strict: a point exactly on an annulus boundary counts
for neither side, which is what makes the value at a jump well-defined.
(The complementary convention, which counts the annulus (t-1, t) instead,
gives the mirror values; this module is pinned to the annulus (t, t+1) so
that positive torus knots get positive signatures.)

The value reported exactly at a jump abscissa is the strict-inequality
count there; no averaging of the one-sided limits is implied.

Counts are exact Python-int floor sums evaluated in O(log(pqb)) steps, so
`lt_signature` and `classical_signature` take microseconds even at
p = 10**40.  The step function is one +-2 jump per root k/pq of the
Alexander polynomial, in numpy int64 arrays guarded so that no value can
wrap: breakpoints and argmax pieces are numerators over the common
denominator pq, and values are the integers sigma_t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidParameter, RationalAngle, TorusKnot

__all__ = [
    "StepFunction",
    "lt_signature",
    "classical_signature",
    "signature_step_function",
]

INT64_MAX = int(np.iinfo(np.int64).max)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum of floor((a*i + b) / m) over 0 <= i < n, for n, a, b >= 0 and m > 0.

    Euclid-style reduction (as in the AtCoder Library): O(log m) steps on
    Python ints, so it is exact at any size.
    """
    total = 0
    while n:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            break
        n, b, m, a = y_max // m, y_max % m, a, m
    return total


def _count_norms_at_most(p: int, q: int, a: int, b: int) -> int:
    """#{0 < i < p, 0 < j < q : i/p + j/q <= a/b} for 0 < a/b < 1.

    Column i admits the j with 0 < j <= q(a/b - i/p); that bound is below q,
    and nonnegative exactly for i <= top = floor(ap/b).  Reading the columns
    as i = top - s turns the count into one floor sum over s.
    """
    top = a * p // b
    return _floor_sum(top, p * b, q * b, a * p * q - top * q * b)


def lt_signature(knot: TorusKnot, t: RationalAngle) -> int:
    """Levine-Tristram signature sigma_t of T(p,q) at w = e^{2*pi*i*t}.

    The points outside the open annulus (t, t+1) are those of norm <= t and
    those of norm >= t+1; the symmetry (i, j) -> (p-i, q-j) sends norm n to
    2 - n, so the second set has as many points as {norm <= 1-t}.  Hence
    sigma_t = rank - 2 * (#{norm <= t} + #{norm <= 1-t}).
    """
    p, q = knot.p, knot.q
    a, b = t.numerator, t.denominator
    outside = _count_norms_at_most(p, q, a, b) + _count_norms_at_most(p, q, b - a, b)
    return knot.seifert_rank() - 2 * outside


def classical_signature(knot: TorusKnot) -> int:
    """Signature at w = -1 via the Gordon-Litherland-Murasugi floor sum.

    sigma = (p-1)(q-1) - 4 * sum of floor(jq/2p) over 0 < j < p with
    j = p mod 2.  Agrees with lt_signature(knot, 1/2) everywhere; the two
    routes count different sets, so they cross-check each other.
    """
    p, q = knot.p, knot.q
    j0 = 2 - p % 2  # smallest j in the parity class, j = j0 + 2s
    terms = (p - j0 + 1) // 2
    return (p - 1) * (q - 1) - 4 * _floor_sum(terms, 2 * p, 2 * q, j0 * q)


@dataclass(frozen=True, eq=False)
class StepFunction:
    """The full signature function t -> sigma_t on (0, 1).

    Every jump lies on the grid k/pq, so breakpoints holds the numerators k
    in increasing order as one read-only int64 array over the common
    denominator pq.  interval_values, a read-only int64 array too, holds the
    constant value on each open interval between consecutive breakpoints
    (including the leading and trailing intervals), so
    len(interval_values) == len(breakpoints) + 1.  breakpoint_values is
    derived: the value at a breakpoint is the smaller of its two neighbouring
    interval values, since a jump loses or gains exactly one point.
    """

    breakpoints: np.ndarray
    denominator: int
    interval_values: np.ndarray

    def __post_init__(self) -> None:
        self.breakpoints.flags.writeable = False
        self.interval_values.flags.writeable = False

    @property
    def breakpoint_values(self) -> np.ndarray:
        v = self.interval_values
        return np.minimum(v[:-1], v[1:])

    def max_value(self) -> int:
        return int(self.interval_values.max())

    def argmax_pieces(self) -> np.ndarray:
        """Maximizing open intervals (lo, hi), lo < hi, in order, as the rows
        of an (m, 2) int64 array of numerators over the denominator.

        The maximum is reached on intervals only: a breakpoint's value is the
        smaller of its two neighbouring interval values, which differ.
        """
        bounds = np.concatenate(([0], self.breakpoints, [self.denominator]))
        intervals = np.flatnonzero(self.interval_values == self.max_value())
        return np.stack((bounds[intervals], bounds[intervals + 1]), axis=1)


def signature_step_function(knot: TorusKnot) -> StepFunction:
    """Compute the whole signature function of T(p,q) exactly.

    sigma jumps at the roots k/pq of the Alexander polynomial, p and q not
    dividing k.  By the Chinese remainder theorem each such k is congruent
    mod pq to the norm numerator iq + jp of exactly one lattice point, the
    one with i = k * q^-1 mod p, and no other k is.  If iq < k its norm is
    k/pq: it leaves the annulus and sigma drops by 2.  Otherwise its norm
    is k/pq + 1: it enters and sigma rises by 2 (Litherland, "Signatures of
    iterated torus knots", LNM 722, 1979).  sigma is 0 on (0, 1/pq), so the
    values are a cumulative sum.  Every int64 intermediate is below pq.

    No value is negative.  No point has norm 1, and (i, j) -> (p-i, q-j)
    sends norm n to 2 - n, so for t <= 1/2 the count of `lt_signature` reads
    sigma_t = 2(#{1-t < norm < 1} - #{norm <= t}); compare the two counts
    column by column.  Column i holds floor(q(t - i/p)) points of norm <= t.
    If that is positive, i/p < t <= 1/2, so its j in the open interval
    (q(1 - t - i/p), q(1 - i/p)), which lies in [0, q) and has length qt,
    are at least ceil(qt) - 1 points of norm in (1-t, 1); and as
    q/p > 1, floor(q(t - i/p)) < qt - 1 <= ceil(qt) - 1.  For t > 1/2,
    sigma_t = sigma_{1-t}.
    """
    p, q = knot.p, knot.q
    pq = p * q
    if 2 * pq > INT64_MAX:
        raise InvalidParameter(f"{knot}: norms up to 2pq = {2 * pq} overflow int64")
    roots = np.ones(pq, dtype=bool)
    roots[::p] = roots[::q] = False  # k = 0 and the multiples of p or q
    k = np.flatnonzero(roots)
    iq = k % p
    iq *= pow(q, -1, p)
    iq %= p
    iq *= q
    interval_values = np.zeros(len(k) + 1, dtype=np.int64)
    np.cumsum(np.where(iq < k, -2, 2), out=interval_values[1:])
    return StepFunction(k, pq, interval_values)
