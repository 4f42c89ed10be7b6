"""Exact Hodge diamonds of crepant resolutions of (K3 x E)/C_n quotients.

S is a K3 surface with a purely non-symplectic automorphism of order
n in {2, 3, 4, 6}, E is an elliptic curve with an automorphism scaling its
1-form by the conjugate root of unity, and C_n acts diagonally on the
product.  From a combinatorial description of the fixed locus on S the
package computes the full Hodge diamond of any crepant resolution of the
quotient twice, through a general twisted-sector engine and through
per-order closed formulas, and cross-validates both against the
group-averaged Euler characteristic.  All arithmetic is exact.
"""

from .engine import crosscheck, orbifold_euler_pairsum, orbifold_hodge_diamond
from .fixed_locus import (
    CurveOrbit,
    EigenspaceDims,
    InvariantError,
    K3Config,
    PointOrbit,
    SubgroupFixedRecord,
    from_invariants_order2,
    from_invariants_order3,
    from_invariants_order4,
    from_invariants_order6,
    validate,
)

__version__ = "0.1.0"

#: the names the README's Python API section documents; the rest stays in the modules
__all__ = [
    "CurveOrbit",
    "EigenspaceDims",
    "InvariantError",
    "K3Config",
    "PointOrbit",
    "SubgroupFixedRecord",
    "crosscheck",
    "from_invariants_order2",
    "from_invariants_order3",
    "from_invariants_order4",
    "from_invariants_order6",
    "orbifold_euler_pairsum",
    "orbifold_hodge_diamond",
    "validate",
]
