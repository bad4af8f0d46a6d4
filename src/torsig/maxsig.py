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

The profile is one int64 array of the D_j, and d is derived from it.  The
values are distinct integers in (0, 2p), so the sequence is an int8 array
read off an int8 mark array over [0, 2p) with no sort, and M is the maximum
of one cumulative sum.  Distances are computed with q reduced mod 2p, so
every intermediate stays below 2p^2, which is checked against int64 up front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidParameter, TorusKnot
from .lattice import INT64_MAX, classical_signature

__all__ = [
    "DistanceProfile",
    "distance_profile",
    "balanced_sequence",
    "max_cyclic_sum",
    "knot_max_cyclic_sum",
    "max_signature",
    "g4_lower_bound",
]


@dataclass(frozen=True, eq=False)
class DistanceProfile:
    """Scaled column-to-boundary distances for one torus knot.

    D holds D_j in increasing order of its index j = 2-p, 4-p, ..., < 0, as
    one read-only int64 array; d_k = 2p - D_{-k} and the indices are derived
    from it.  All 2m values (m = ceil(p/2) - 1) are distinct integers in
    (0, 2p), never equal to p.
    """

    p: int
    D: np.ndarray

    def __post_init__(self) -> None:
        self.D.flags.writeable = False

    @property
    def j(self) -> np.ndarray:
        """The indices of D; those of d are k = -j in increasing order."""
        return np.arange(2 - self.p, 0, 2, dtype=np.int64)

    @property
    def d(self) -> np.ndarray:
        """d_k for k = 2 - p%2, 4 - p%2, ..., < p."""
        return 2 * self.p - self.D[::-1]


def distance_profile(knot: TorusKnot) -> DistanceProfile:
    """Compute every D_j = s*q mod 2p, s = -j, by one modular reduction.

    p = 1 and p = 2 have empty index sets and return an empty profile.  With
    q reduced mod 2p first, s*q < 2p^2, which must fit in int64.
    """
    p = knot.p
    if 2 * p * p > INT64_MAX:
        raise InvalidParameter(f"{knot}: distances up to 2p^2 = {2 * p * p} overflow int64")
    s = np.arange(p - 2, 0, -2, dtype=np.int64)  # -j for each j of DistanceProfile.j
    return DistanceProfile(p, s * (knot.q % (2 * p)) % (2 * p))


def balanced_sequence(profile: DistanceProfile) -> np.ndarray:
    """Read the distances in increasing order: D entries +1, d entries -1.

    The int8 mark array over [0, 2p) holds +1 at every D value and -1 at
    every d value; its nonzero entries, in order, are the sequence.
    Distinctness and the value p being avoided both follow from coprimality,
    and the range (0, 2p) makes the values valid indices (numpy would read
    a negative one from the end of the array); d = 2p - D lies in that
    range exactly when D does.  A profile that breaks any of the three
    raises InvalidParameter.
    """
    p, D = profile.p, profile.D
    if D.size and not 0 < D.min() <= D.max() < 2 * p:
        raise InvalidParameter("distance values must lie in (0, 2p)")
    marks = np.zeros(2 * p, dtype=np.int8)
    marks[D] = 1
    marks[profile.d] = -1
    if marks[p]:
        raise InvalidParameter("distance values must avoid p")
    # a repeat leaves fewer nonzero marks than values
    if np.count_nonzero(marks) != 2 * D.size:
        raise InvalidParameter("distance values must be distinct")
    return marks[marks != 0]


def max_cyclic_sum(seq: np.ndarray) -> int:
    """Largest cyclic partial sum of a balanced sequence, at least 0.

    The empty sum is admissible.  Because the sequence sums to 0 (checked
    on the last partial sum, InvalidParameter otherwise), sums longer than
    one period repeat earlier values, so the partial sums of a single period
    starting at index 0 suffice.
    """
    sums = seq.cumsum(dtype=np.int64)
    if sums.size and sums[-1]:
        raise InvalidParameter("the sequence must be balanced")
    return int(sums.max(initial=0))


def knot_max_cyclic_sum(knot: TorusKnot) -> int:
    """M of T(p,q): max_cyclic_sum(balanced_sequence(distance_profile(knot)))."""
    return max_cyclic_sum(balanced_sequence(distance_profile(knot)))


def max_signature(knot: TorusKnot) -> int:
    """Peak value of the signature function: sigma + 2M."""
    return classical_signature(knot) + 2 * knot_max_cyclic_sum(knot)


def _g4_from_peak(sigma_hat: int) -> int:
    """ceil(sigma_hat / 2), the 4-genus bound given by a peak value."""
    return (sigma_hat + 1) // 2


def g4_lower_bound(knot: TorusKnot) -> int:
    """Lower bound for the topological 4-genus: ceil(max_signature / 2)."""
    return _g4_from_peak(max_signature(knot))
