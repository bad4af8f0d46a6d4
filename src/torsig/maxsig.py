"""Maximum of the signature function via distance profiles.

For T(p,q) with p >= 2, group the lattice points of `torsig.lattice` into
columns and measure, in units of 1/(2pq), the vertical distance from each
column to the boundary of the half-signature annulus (the band whose count
gives the classical signature).  Writing the column index as j (negative
side) or k (positive side), the scaled distances reduce to congruences:

    D_j = (-j*q) mod 2p        for -p < j < 0,  j = p (mod 2),
    d_k = 2p - D_{-k}          for  0 < k < p,  k = p (mod 2).

Sorting the multiset {D_j} united with {d_k} and replacing each D by +1 and
each d by -1 yields a balanced +-1 sequence whose maximal cyclic partial
sum M determines the peak of the signature function:

    max_signature = classical_signature + 2*M.

The geometric definition of the distances is exercised by a slow
cross-check (`geometric_distance_profile`) used in the tests; production
code uses only the congruences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InvalidParameter, TorusKnot
from .lattice import classical_signature

__all__ = [
    "DistanceProfile",
    "BalancedSequence",
    "RotationReport",
    "distance_profile",
    "geometric_distance_profile",
    "balanced_sequence",
    "max_cyclic_sum",
    "max_signature",
    "rotation_relation",
    "g4_lower_bound",
]


@dataclass(frozen=True)
class DistanceProfile:
    """Scaled column-to-boundary distances for one torus knot.

    D maps each negative column index j to D_j; d maps each positive index
    k to d_k.  All 2m values (m = ceil(p/2) - 1) are distinct integers in
    (0, 2p), never equal to p, and satisfy D_j + d_{-j} = 2p.
    """

    p: int
    D: dict[int, int]
    d: dict[int, int]

    def values_sorted(self) -> list[tuple[int, str, int]]:
        """All (value, kind, index) triples ordered by increasing value."""
        triples = [(v, "D", j) for j, v in self.D.items()]
        triples += [(v, "d", k) for k, v in self.d.items()]
        triples.sort()
        return triples


@dataclass(frozen=True)
class BalancedSequence:
    """A +-1 sequence with equally many entries of each sign."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        assert self.entries.count(1) == self.entries.count(-1)
        assert all(v in (1, -1) for v in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def distance_profile(knot: TorusKnot) -> DistanceProfile:
    """Compute every D_j and d_k by modular reduction.

    p = 1 and p = 2 have empty index sets and return an empty profile.
    Distinctness and the value p being avoided both follow from
    coprimality; a violation would mean a bug upstream, so they are
    asserted here.
    """
    p, q = knot.p, knot.q
    D: dict[int, int] = {}
    d: dict[int, int] = {}
    for j in range(-p + 2, 0, 2):
        # -p + 2 is the smallest index in the parity class j = p (mod 2)
        D[j] = (-j * q) % (2 * p)
    for k in range(2 - p % 2, p, 2):
        d[k] = 2 * p - D[-k]
    values = list(D.values()) + list(d.values())
    assert len(set(values)) == len(values), "distance values must be distinct"
    assert all(0 < v < 2 * p and v != p for v in values)
    return DistanceProfile(p, D, d)


def geometric_distance_profile(knot: TorusKnot) -> DistanceProfile:
    """Slow geometric cross-check of `distance_profile`.

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
    return DistanceProfile(p, D, d)


def balanced_sequence(profile: DistanceProfile) -> BalancedSequence:
    """Sort the distances and map D entries to +1, d entries to -1."""
    return BalancedSequence(
        tuple(1 if kind == "D" else -1 for _, kind, _ in profile.values_sorted())
    )


def max_cyclic_sum(seq: BalancedSequence) -> int:
    """Largest cyclic partial sum of the sequence, at least 0.

    The empty sum is admissible.  Because the sequence is balanced, sums
    longer than one period repeat earlier values, so scanning a single
    period starting at index 0 suffices.
    """
    best = 0
    running = 0
    for a in seq.entries:
        running += a
        if running > best:
            best = running
    return best


def max_signature(knot: TorusKnot) -> int:
    """Peak value of the signature function: sigma + 2M."""
    if knot.p == 1:
        return 0
    m = max_cyclic_sum(balanced_sequence(distance_profile(knot)))
    return classical_signature(knot) + 2 * m


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


def g4_lower_bound(knot: TorusKnot) -> int:
    """Lower bound for the topological 4-genus: ceil(max_signature / 2)."""
    sig_hat = max_signature(knot)
    return (sig_hat + 1) // 2
