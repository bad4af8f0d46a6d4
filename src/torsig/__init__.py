"""Exact computation of the signature function of torus knots.

The lattice engine (`torsig.lattice`) counts lattice points in a
Manhattan-norm annulus; the profile engine (`torsig.maxsig`) locates the
peak of the signature function through balanced sequences; `torsig.identities`
verifies the recursions and closed forms instance by instance; and
`torsig.oracle` re-derives everything numerically from Seifert matrices of
braid closures as an independent cross-check.
"""

from .core import *
from .lattice import *
from .maxsig import *
from .identities import *
from .oracle import *

__version__ = "0.1.0"
