"""Exact computation of the signature function of torus knots.

The lattice engine (`torsig.lattice`) counts lattice points in a
Manhattan-norm annulus; the profile engine (`torsig.maxsig`) locates the
peak of the signature function through balanced sequences; `torsig.identities`
verifies the recursions and closed forms instance by instance; and
`torsig.oracle` re-derives everything numerically from Seifert matrices of
braid closures as an independent cross-check.
"""

from .core import (
    InvalidParameter,
    NotCoprime,
    OutOfRange,
    RationalAngle,
    TorsigError,
    TorusKnot,
)
from .lattice import (
    StepFunction,
    classical_signature,
    lt_signature,
    signature_step_function,
)
from .maxsig import (
    DistanceProfile,
    balanced_sequence,
    distance_profile,
    g4_lower_bound,
    knot_max_cyclic_sum,
    max_cyclic_sum,
    max_signature,
)
from .identities import (
    IdentityReport,
    check_closed_forms,
    check_even_periodicity,
    check_glm,
    check_main_recursion,
    check_odd_shift_identity,
)
from .oracle import (
    BraidWord,
    NearSingular,
    SeifertMatrix,
    ValidationFailure,
    alexander_from_seifert,
    brute_force_max,
    hermitian_signature,
    oracle_step_function,
    seifert_matrix,
    torus_alexander,
    torus_braid,
    torus_seifert_matrix,
)

__version__ = "0.1.0"
