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
from .maxsig import balanced_sequence, distance_profile, max_cyclic_sum, max_signature

__all__ = [
    "IdentityReport",
    "check_glm",
    "check_even_periodicity",
    "check_main_recursion",
    "check_odd_shift_identity",
    "check_closed_forms",
]


@dataclass(frozen=True)
class IdentityReport:
    """One verified instance of an identity: passed iff expected == computed."""

    identity_name: str
    knot_params: tuple[tuple[int, int], ...]
    expected: int
    computed: int
    details: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


def _report(name, knots, expected, computed, **details) -> IdentityReport:
    return IdentityReport(
        identity_name=name,
        knot_params=tuple((k.p, k.q) for k in knots),
        expected=expected,
        computed=computed,
        details=details,
    )


def _step(name, kernel, p, q, s, c, base_key, **details) -> IdentityReport:
    """kernel(T(p,q+s)) = kernel(T(p,q)) + c; details hold base_key, increment
    and any further details given."""
    base = TorusKnot(p, q)
    stepped = TorusKnot(p, q + s)
    value = kernel(base)
    return _report(name, (base, stepped), value + c, kernel(stepped),
                   **{base_key: value}, increment=c, **details)


def check_glm(p: int, q: int) -> IdentityReport:
    """sigma(T(p,q+2p)) = sigma(T(p,q)) + p^2 (p even) or p^2 - 1 (p odd)."""
    return _step("glm", classical_signature, p, q, 2 * p, p * p - p % 2, "sigma_base")


def check_even_periodicity(p: int, q: int) -> IdentityReport:
    """sigma(T(p,p+q)) = sigma(T(p,q)) + p^2/2, valid for even p only.

    The odd-p analogue is false (see check_odd_shift_identity for what
    holds instead), so odd p is refused rather than silently checked.
    """
    if p % 2 != 0:
        raise InvalidParameter(f"even-p periodicity requires even p, got {p}")
    return _step("even-periodicity", classical_signature, p, q, p, p * p // 2, "sigma_base")


def check_main_recursion(p: int, q: int) -> IdentityReport:
    """max_signature(T(p,q+p)) = max_signature(T(p,q)) + p^2/2 or (p^2-1)/2."""
    if not 0 < p < q:
        raise InvalidParameter(f"need 0 < p < q, got ({p}, {q})")
    return _step("main-recursion", max_signature, p, q, p, p * p // 2, "sigma_hat_base")


def check_odd_shift_identity(p: int, q: int) -> IdentityReport:
    """For odd p: sigma(T(p,p+q)) = sigma(T(p,q)) - 4*#{D > p} + (p-1)(p+3)/2.

    The D values come from the distance profile of T(p,q); both sides of the
    step are evaluated by the floor sum.  The profile holds the (p-1)/2 values
    s*q mod 2p for odd 0 < s < p, and none equals p, since p divides neither
    s nor q; so #{D < p} = (p-1)/2 - #{D > p} needs no separate check.
    """
    if p % 2 == 0 or p < 3:
        raise InvalidParameter(f"odd-shift identity requires odd p >= 3, got {p}")
    D = distance_profile(TorusKnot(p, q)).D
    above = int(np.count_nonzero(D > p))
    return _step("odd-shift", classical_signature, p, q, p,
                 (p - 1) * (p + 3) // 2 - 4 * above, "sigma_base", D=D.tolist(), above=above)


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
    near = TorusKnot(p, p + 1)
    profile = distance_profile(near)
    sequence = balanced_sequence(profile)
    far = TorusKnot(p, 2 * p + 1)
    return [
        _report("closed-form-p-plus-1", (near,), p - 2 if p % 2 == 0 else 0,
                2 * max_cyclic_sum(sequence), sigma=classical_signature(near)),
        _report("closed-form-2p-plus-1", (far,), p * p + p - 2,
                max_signature(far), sigma=classical_signature(far)),
        _report("closed-form-ordering", (near,), 1,
                int(_ordering_holds(p, profile.D, sequence)),
                sequence=tuple(sequence.tolist())),
    ]
