"""Machine-checkable verifiers for the signature recursions and closed forms.

Every verifier evaluates the two sides of its identity through independent
code paths (floor sums on one side, distance profiles on the other, and so
on) and reports both numbers, so a bug in one formula cannot certify
itself.  Reports carry the intermediate quantities for forensics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import InvalidParameter, TorusKnot
from .lattice import classical_signature
from .maxsig import balanced_sequence, distance_profile, max_signature

__all__ = [
    "IdentityReport",
    "GapWitness",
    "check_glm",
    "check_even_periodicity",
    "check_main_recursion",
    "check_odd_shift_identity",
    "check_closed_forms",
    "gap_witness",
]


@dataclass(frozen=True)
class IdentityReport:
    """One verified instance of an identity: passed iff expected == computed."""

    identity_name: str
    knot_params: tuple[tuple[int, int], ...]
    expected: int
    computed: int
    passed: bool
    details: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        assert self.passed == (self.expected == self.computed)


def _report(name, knots, expected, computed, **details) -> IdentityReport:
    return IdentityReport(
        identity_name=name,
        knot_params=tuple((k.p, k.q) for k in knots),
        expected=expected,
        computed=computed,
        passed=expected == computed,
        details=details,
    )


def check_glm(p: int, q: int) -> IdentityReport:
    """sigma(T(p,q+2p)) = sigma(T(p,q)) + p^2 (p even) or p^2 - 1 (p odd)."""
    base = TorusKnot(p, q)
    stepped = TorusKnot(p, q + 2 * p)
    increment = p * p if p % 2 == 0 else p * p - 1
    sigma_base = classical_signature(base)
    computed = classical_signature(stepped)
    return _report("glm", (base, stepped), sigma_base + increment, computed,
                   sigma_base=sigma_base, increment=increment)


def check_even_periodicity(p: int, q: int) -> IdentityReport:
    """sigma(T(p,p+q)) = sigma(T(p,q)) + p^2/2, valid for even p only.

    The odd-p analogue is false (see check_odd_shift_identity for what
    holds instead), so odd p is refused rather than silently checked.
    """
    if p % 2 != 0:
        raise InvalidParameter(f"even-p periodicity requires even p, got {p}")
    base = TorusKnot(p, q)
    stepped = TorusKnot(p, q + p)
    sigma_base = classical_signature(base)
    computed = classical_signature(stepped)
    return _report("even-periodicity", (base, stepped), sigma_base + p * p // 2, computed,
                   sigma_base=sigma_base)


def check_main_recursion(p: int, q: int) -> IdentityReport:
    """max_signature(T(p,q+p)) = max_signature(T(p,q)) + p^2/2 or (p^2-1)/2."""
    if not 0 < p < q:
        raise InvalidParameter(f"need 0 < p < q, got ({p}, {q})")
    base = TorusKnot(p, q)
    stepped = TorusKnot(p, q + p)
    increment = p * p // 2 if p % 2 == 0 else (p * p - 1) // 2
    sigma_hat_base = max_signature(base)
    computed = max_signature(stepped)
    return _report("main-recursion", (base, stepped), sigma_hat_base + increment, computed,
                   sigma_hat_base=sigma_hat_base, increment=increment)


def check_odd_shift_identity(p: int, q: int) -> IdentityReport:
    """For odd p: sigma(T(p,p+q)) = sigma(T(p,q)) - 4*#{D > p} + (p-1)(p+3)/2.

    The D values come from the distance profile of T(p,q); the left side is
    evaluated by the floor sum.  The companion counting identity
    #{D < p} + #{D > p} = (p-1)/2 is checked as well.
    """
    if p % 2 == 0 or p < 3:
        raise InvalidParameter(f"odd-shift identity requires odd p >= 3, got {p}")
    base = TorusKnot(p, q)
    stepped = TorusKnot(p, q + p)
    D = distance_profile(base).D
    above = int(np.count_nonzero(D > p))
    below = int(np.count_nonzero(D < p))
    if below + above != (p - 1) // 2:
        return _report("odd-shift", (base, stepped), (p - 1) // 2, below + above,
                       D=D.tolist())
    expected = classical_signature(base) - 4 * above + (p - 1) * (p + 3) // 2
    computed = classical_signature(stepped)
    return _report("odd-shift", (base, stepped), expected, computed,
                   D=D.tolist(), above=above, below=below)


def _ordering_holds(p: int, D: np.ndarray, kinds: np.ndarray) -> bool:
    """Distance ordering in T(p,p+1): all D before all d for even p (with
    D_{-2} < D_{-4} < ...), all d before all D for odd p.

    D is the profile's array, in increasing order of j, and kinds its
    balanced sequence: +1 marks a D value and -1 a d value.
    """
    first = 1 if p % 2 == 0 else -1
    if not np.array_equal(kinds, np.repeat([first, -first], kinds.size // 2)):
        return False
    # D_{-2} < D_{-4} < ... reads as a decreasing array
    return p % 2 == 1 or bool(np.all(np.diff(D) < 0))


def check_closed_forms(p: int) -> list[IdentityReport]:
    """Closed forms for the two one-parameter families.

    Returns three reports: the T(p,p+1) gap (p-2 for even p, 0 for odd),
    the T(p,2p+1) value p^2 + p - 2, and the distance orderings that the
    first family's derivation relies on.  A list is returned because the
    families are independent integer equalities.
    """
    if p < 2:
        raise InvalidParameter(f"closed forms need p >= 2, got {p}")
    reports = []

    near = TorusKnot(p, p + 1)
    gap_expected = p - 2 if p % 2 == 0 else 0
    sigma_near = classical_signature(near)
    reports.append(_report("closed-form-p-plus-1", (near,), gap_expected,
                           max_signature(near) - sigma_near, sigma=sigma_near))

    far = TorusKnot(p, 2 * p + 1)
    reports.append(_report("closed-form-2p-plus-1", (far,), p * p + p - 2,
                           max_signature(far), sigma=classical_signature(far)))

    profile = distance_profile(near)
    sequence = balanced_sequence(profile)
    reports.append(_report("closed-form-ordering", (near,), 1,
                           int(_ordering_holds(p, profile.D, sequence)),
                           sequence=tuple(sequence.tolist())))
    return reports


@dataclass(frozen=True)
class GapWitness:
    """Smallest-p witness that max_signature - sigma reaches a target."""

    knot: TorusKnot
    gap: int


def gap_witness(n: int) -> GapWitness:
    """Smallest p such that T(p,2p+1) has max_signature - sigma >= n.

    For this family the gap is p - 2 (even p) or p - 1 (odd p); the witness
    is re-verified against the actual signature computations.
    """
    if n < 0:
        raise InvalidParameter(f"need n >= 0, got {n}")
    p = 2
    while True:
        formula_gap = p - 2 if p % 2 == 0 else p - 1
        if formula_gap >= n:
            knot = TorusKnot(p, 2 * p + 1)
            gap = max_signature(knot) - classical_signature(knot)
            assert gap == formula_gap
            return GapWitness(knot, gap)
        p += 1
