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
p = 10**40.  The step function histograms the pq norms with numpy int64
arrays, guarded so that no value can wrap, and keeps its breakpoints as
int64 numerators over the common denominator pq.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    denominator pq.  interval_values holds the constant value on each open
    interval between consecutive breakpoints (including the leading and
    trailing intervals), so len(interval_values) == len(breakpoints) + 1.
    breakpoint_values holds the exact value at each breakpoint: the smaller
    of its two neighbouring interval values, since a jump either loses or
    gains points, never both.
    """

    breakpoints: np.ndarray
    denominator: int
    interval_values: tuple[int, ...]
    breakpoint_values: tuple[int, ...]

    def __post_init__(self) -> None:
        self.breakpoints.flags.writeable = False

    def max_value(self) -> int:
        return max(self.interval_values)

    def argmax_pieces(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Maximizing pieces as open intervals (lo, hi), lo < hi, in order.

        The maximum is reached on intervals only: a breakpoint's value is the
        smaller of its two neighbouring interval values, which differ, so it
        stays below the larger one.  The intervals are found on the
        numerators; only they become Fractions.
        """
        m = self.max_value()
        bounds = np.concatenate(([0], self.breakpoints, [self.denominator]))
        intervals = np.flatnonzero(np.asarray(self.interval_values, dtype=np.int64) == m)
        den = self.denominator
        return tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in
                     zip(bounds[intervals].tolist(), bounds[intervals + 1].tolist()))


def signature_step_function(knot: TorusKnot) -> StepFunction:
    """Compute the whole signature function of T(p,q) exactly.

    Candidate breakpoints are k/(pq) for 0 < k < pq: every Manhattan norm
    (iq+jp)/(pq), and every norm minus one, lands on this grid.  One
    bincount histograms the norm multiset.  At candidate k the inside count
    loses the points of norm k/pq and gains those of norm k/pq + 1, so a
    cumulative sum over the candidates where either happens yields the
    value on every interval and at every breakpoint; the result is
    identical to evaluating lt_signature at every candidate and midpoint.
    Candidates where the value does not jump are merged away.
    """
    p, q = knot.p, knot.q
    pq = p * q
    rank = (p - 1) * (q - 1)
    if rank == 0:
        return StepFunction(np.empty(0, dtype=np.int64), pq, (0,), ())
    if 2 * pq > INT64_MAX:
        raise InvalidParameter(f"{knot}: norms up to 2pq = {2 * pq} overflow int64")

    columns = np.arange(q, pq, q, dtype=np.int64)  # i*q for 0 < i < p
    rows = np.arange(p, pq, p, dtype=np.int64)  # j*p for 0 < j < q
    counts = np.bincount((columns[:, None] + rows).ravel(), minlength=2 * pq)
    assert counts[pq] == 0, "no lattice point has Manhattan norm 1"

    # lost[k-1] and gained[k-1] are the norms at k/pq and k/pq + 1.
    lost, gained = counts[1:pq], counts[pq + 1:]
    # inside on the leading interval (0, 1/pq): norms in [1, pq-1].
    inside = int(lost.sum())
    assert 2 * inside == rank, "half of the points lie below norm 1"
    # Coprimality forbids norms at both k/pq and k/pq + 1, so every
    # surviving candidate is a genuine jump between distinct levels.
    assert not np.any((lost > 0) & (gained > 0))

    jumps = np.flatnonzero(lost + gained)
    lost, gained = lost[jumps], gained[jumps]
    after = inside + np.cumsum(gained - lost)
    interval_values = (2 * inside - rank,) + tuple((2 * after - rank).tolist())
    breakpoint_values = tuple((2 * (after - gained) - rank).tolist())
    return StepFunction(jumps + 1, pq, interval_values, breakpoint_values)
