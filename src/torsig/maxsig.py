"""Maximum of the signature function via distance profiles.

For T(p,q) with p >= 2, group the lattice points of `torsig.lattice` into
columns and measure, in units of 1/(2pq), the vertical distance from each
column to the boundary of the half-signature annulus (the band whose count
gives the classical signature).  Writing the column index as j (negative
side) or k (positive side), the scaled distances reduce to congruences:

    D_j = (-j*q) mod 2p        for -p < j < 0,  j = p (mod 2),
    d_k = 2p - D_{-k}          for  0 < k < p,  k = p (mod 2).

Reading the multiset {D_j} united with {d_k} in increasing order and
replacing each D by +1 and each d by -1 yields a balanced +-1 sequence
whose maximal cyclic partial sum M determines the peak of the signature
function:

    max_signature = classical_signature + 2*M.

The values are distinct integers in (0, 2p), so the sequence is read off an
int8 mark array over [0, 2p) with no sort, and M is the maximum of one
cumulative sum.  Distances are computed with q reduced mod 2p, so every
intermediate stays below 2p^2, which is checked against int64 up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .core import InvalidParameter, TorusKnot
from .lattice import INT64_MAX, classical_signature

__all__ = [
    "DistanceProfile",
    "BalancedSequence",
    "RotationReport",
    "distance_profile",
    "balanced_sequence",
    "max_cyclic_sum",
    "knot_max_cyclic_sum",
    "max_signature",
    "rotation_relation",
    "g4_lower_bound",
]


@dataclass(frozen=True)
class DistanceProfile:
    """Scaled column-to-boundary distances for one torus knot.

    D maps each negative column index j to D_j; d maps each positive index
    k to d_k; `distance_profile` inserts the keys in increasing order.
    All 2m values (m = ceil(p/2) - 1) are distinct integers in (0, 2p),
    never equal to p, and satisfy D_j + d_{-j} = 2p.
    """

    p: int
    D: dict[int, int]
    d: dict[int, int]


@dataclass(frozen=True)
class BalancedSequence:
    """A +-1 sequence with equally many entries of each sign."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        plus = self.entries.count(1)
        assert plus == self.entries.count(-1)
        assert 2 * plus == len(self.entries), "entries must all be +1 or -1"

    def __len__(self) -> int:
        return len(self.entries)


def _distances(knot: TorusKnot) -> np.ndarray:
    """D_j as an int64 array, in increasing order of j = -p+2, -p+4, ..., < 0.

    D_j = s*q mod 2p with s = -j.  With q reduced mod 2p first, s*q < 2p^2,
    which must fit in int64.
    """
    p = knot.p
    if 2 * p * p > INT64_MAX:
        raise InvalidParameter(f"{knot}: distances up to 2p^2 = {2 * p * p} overflow int64")
    return np.arange(p - 2, 0, -2, dtype=np.int64) * (knot.q % (2 * p)) % (2 * p)


def _marks(p: int, D: np.ndarray, d: np.ndarray) -> np.ndarray:
    """int8 array over [0, 2p) with +1 at every D value and -1 at every d value.

    The values must be indices into [0, 2p); asserts that they avoid 0 and
    p and are distinct (a repeat leaves fewer nonzero marks than values).
    """
    marks = np.zeros(2 * p, dtype=np.int8)
    marks[D] = 1
    marks[d] = -1
    assert marks[0] == marks[p] == 0, "distance values must avoid 0 and p"
    assert np.count_nonzero(marks) == D.size + d.size, "distance values must be distinct"
    return marks


def _mark_profile(knot: TorusKnot) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D and d as int64 arrays in increasing index order, and their marks.

    D_j is read for j = -p+2, -p+4, ..., < 0 and d_k for k = -j in
    increasing order; the mark array asserts the profile's invariants.
    """
    D = _distances(knot)
    d = 2 * knot.p - D[::-1]
    return D, d, _marks(knot.p, D, d)


def _peak(marks: np.ndarray) -> int:
    """M: the largest cumulative sum of a mark array, at least 0."""
    return int(np.cumsum(marks, dtype=np.int64).max(initial=0))


def distance_profile(knot: TorusKnot) -> DistanceProfile:
    """Compute every D_j and d_k by modular reduction.

    p = 1 and p = 2 have empty index sets and return an empty profile.
    Distinctness and the value p being avoided both follow from
    coprimality; a violation would mean a bug upstream, so they are
    asserted here.
    """
    p = knot.p
    D, d, _ = _mark_profile(knot)
    return DistanceProfile(
        p,
        dict(zip(range(2 - p, 0, 2), D.tolist())),
        dict(zip(range(2 - p % 2, p, 2), d.tolist())),
    )


def balanced_sequence(profile: DistanceProfile) -> BalancedSequence:
    """Read the distances in increasing order: D entries +1, d entries -1."""
    n, p = len(profile.D), profile.p
    values = np.fromiter(chain(profile.D.values(), profile.d.values()), dtype=np.int64,
                         count=n + len(profile.d))
    assert values.size == 0 or 0 < values.min() <= values.max() < 2 * p, \
        "distance values must lie in (0, 2p)"
    marks = _marks(p, values[:n], values[n:])
    return BalancedSequence(tuple(marks[marks != 0].tolist()))


def max_cyclic_sum(seq: BalancedSequence) -> int:
    """Largest cyclic partial sum of the sequence, at least 0.

    The empty sum is admissible.  Because the sequence is balanced, sums
    longer than one period repeat earlier values, so the partial sums of a
    single period starting at index 0 suffice.
    """
    return max(0, max(accumulate(seq.entries), default=0))


def knot_max_cyclic_sum(knot: TorusKnot) -> int:
    """M of T(p,q) straight from the mark array.

    Equal to max_cyclic_sum(balanced_sequence(distance_profile(knot))), but
    builds neither the profile dicts nor the sequence tuple.
    """
    return _peak(_mark_profile(knot)[2])


def max_signature(knot: TorusKnot) -> int:
    """Peak value of the signature function: sigma + 2M."""
    return classical_signature(knot) + 2 * knot_max_cyclic_sum(knot)


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
    passed: bool


def rotation_relation(knot: TorusKnot) -> RotationReport:
    """Check how the balanced sequence transforms under q -> q + p."""
    p, q = knot.p, knot.q
    if p < 2:
        raise InvalidParameter("rotation relation needs p >= 2")
    other = TorusKnot(p, q + p)
    seq = balanced_sequence(distance_profile(knot)).entries
    seq_other = balanced_sequence(distance_profile(other)).entries
    shift = 0 if p % 2 == 0 else (p - 1) // 2
    n = len(seq)
    if n == 0:
        expected = seq
    else:
        # left shift: entry i of the new sequence is entry i+shift of the old
        expected = tuple(seq[(i + shift) % n] for i in range(n))
    return RotationReport(knot, other, shift, seq, seq_other, seq_other == expected)


def _g4_from_peak(sigma_hat: int) -> int:
    """ceil(sigma_hat / 2), the 4-genus bound given by a peak value."""
    return (sigma_hat + 1) // 2


def g4_lower_bound(knot: TorusKnot) -> int:
    """Lower bound for the topological 4-genus: ceil(max_signature / 2)."""
    return _g4_from_peak(max_signature(knot))
