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

from .closed_forms import (
    HodgePair,
    closed_form_pair,
    euler_formula,
    hodge_order2,
    hodge_order3,
    hodge_order4,
    hodge_order6,
)
from .cyclic import (
    GroupElement,
    LocalAction,
    age,
    power_transport,
)
from .engine import (
    Check,
    CrosscheckReport,
    SectorContribution,
    crosscheck,
    orbifold_euler_pairsum,
    orbifold_hodge_diamond,
    sector_contribution,
    untwisted_diamond,
)
from .fixed_locus import (
    CurveOrbit,
    EigenspaceDims,
    EllipticFixture,
    InvariantError,
    K3Config,
    PointOrbit,
    SubgroupFixedRecord,
    SUPPORTED_ORDERS,
    Violation,
    curve_character_dims,
    elliptic_fixture,
    euler_fixed_set,
    from_invariants_order2,
    from_invariants_order3,
    from_invariants_order4,
    from_invariants_order6,
    validate,
)
from .hodge import (
    BigradedCharacterTable,
    CharacterVector,
    HodgeDiamond,
    ModulusMismatch,
    add_shifted,
    euler_characteristic,
    invariant_diamond,
    invariant_pairing,
    kunneth_character_product,
)

__version__ = "0.1.0"

__all__ = [
    "BigradedCharacterTable",
    "CharacterVector",
    "Check",
    "CrosscheckReport",
    "CurveOrbit",
    "EigenspaceDims",
    "EllipticFixture",
    "GroupElement",
    "HodgeDiamond",
    "HodgePair",
    "InvariantError",
    "K3Config",
    "LocalAction",
    "ModulusMismatch",
    "PointOrbit",
    "SUPPORTED_ORDERS",
    "SectorContribution",
    "SubgroupFixedRecord",
    "Violation",
    "add_shifted",
    "age",
    "closed_form_pair",
    "crosscheck",
    "curve_character_dims",
    "elliptic_fixture",
    "euler_characteristic",
    "euler_fixed_set",
    "euler_formula",
    "from_invariants_order2",
    "from_invariants_order3",
    "from_invariants_order4",
    "from_invariants_order6",
    "hodge_order2",
    "hodge_order3",
    "hodge_order4",
    "hodge_order6",
    "invariant_diamond",
    "invariant_pairing",
    "kunneth_character_product",
    "orbifold_euler_pairsum",
    "orbifold_hodge_diamond",
    "power_transport",
    "sector_contribution",
    "untwisted_diamond",
    "validate",
]
