"""Twisted-sector cohomology engine for the (K3 x E)/C_n quotients.

The untwisted part is the character-0 slice of the character-refined
Kuenneth product of the two eigenspace tables.  For each nontrivial power
of the generator, the fixed locus is a disjoint union of products (curve
or point on the K3 side) x (fixed point on the elliptic side); the group
permutes these components and acts on their cohomology through the
residual data stored in the configuration.  Every invariant dimension is
an invariant pairing of two character vectors, and every component
carries an integral age that shifts its contribution diagonally.

The engine trusts its configuration: the named constructors and the
raw-document parser validate each one as they build it.  A configuration
built by hand is checked with :func:`bvhodge.fixed_locus.validate` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Union

from .closed_forms import HodgePair, closed_form_pair, euler_formula
from .cyclic import GroupElement, LocalAction, age, power_transport
from .fixed_locus import (
    CurveOrbit,
    InvariantError,
    K3Config,
    PointOrbit,
    curve_character_dims,
    elliptic_fixture,
    elliptic_sector_exponent,
    euler_fixed_set,
    validate,
)
from .hodge import (
    BigradedCharacterTable,
    CharacterVector,
    HodgeDiamond,
    add_shifted,
    euler_characteristic,
    invariant_diamond,
    invariant_pairing,
    kunneth_character_product,
)


def k3_character_table(cfg: K3Config) -> BigradedCharacterTable:
    """Eigenspace table of H^0 + H^2 + H^4 of the K3 surface.

    H^0 and H^4 are invariant; the period sits in character 1 and its
    conjugate in character n-1; the (1,1) part carries the remaining
    eigenspace dimensions.
    """
    n = cfg.n
    dims = list(cfg.eigenspace.dims)
    dims[1 % n] -= 1
    dims[(n - 1) % n] -= 1
    if min(dims) < 0:
        raise InvariantError(validate(cfg))
    table = BigradedCharacterTable.from_entries(n, 2, {
        (0, 0): CharacterVector.delta(n, 0),
        (2, 2): CharacterVector.delta(n, 0),
        (2, 0): CharacterVector.delta(n, 1),
        (0, 2): CharacterVector.delta(n, n - 1),
        (1, 1): CharacterVector(n, tuple(dims)),
    })
    assert table.total() == 24
    return table


def elliptic_character_table(n: int) -> BigradedCharacterTable:
    """Eigenspace table of the elliptic curve: the 1-form sits in character n-1."""
    table = BigradedCharacterTable.from_entries(n, 1, {
        (0, 0): CharacterVector.delta(n, 0),
        (1, 1): CharacterVector.delta(n, 0),
        (1, 0): CharacterVector.delta(n, n - 1),
        (0, 1): CharacterVector.delta(n, 1),
    })
    assert table.total() == 4
    return table


def untwisted_diamond(cfg: K3Config) -> HodgeDiamond:
    """Invariant part of the cohomology of the product, as a threefold diamond."""
    product = kunneth_character_product(k3_character_table(cfg), elliptic_character_table(cfg.n))
    return invariant_diamond(product)


@dataclass(frozen=True)
class SectorComponent:
    """One class of components of a twisted sector, with its age and increment."""

    kind: str  # "curve" or "point"
    source: Union[CurveOrbit, PointOrbit]
    local: LocalAction
    age: int
    increment: HodgeDiamond


@dataclass(frozen=True)
class SectorContribution:
    """Everything the sector of one nontrivial group element adds."""

    element: GroupElement
    components: tuple[SectorComponent, ...]
    increment: HodgeDiamond

    @property
    def h11(self) -> int:
        return self.increment.entry(1, 1)

    @property
    def h21(self) -> int:
        return self.increment.entry(2, 1)


def sector_contribution(cfg: K3Config, j: Union[int, GroupElement]) -> SectorContribution:
    """Twisted sector of the j-th power of the generator (j nonzero).

    Assumes a structurally valid configuration.  A non-integral age means
    the local data cannot belong to a crepant-resolvable quotient and is a
    hard error.
    """
    n = cfg.n
    r = j.j if isinstance(j, GroupElement) else j % n
    if r == 0:
        raise ValueError("the untwisted part is not a sector; use untwisted_diamond")
    c = gcd(r, n)
    u = r // c
    record = cfg.record(n // c)
    e_vec = elliptic_fixture(n).char_vector(n // c)
    e_exp = elliptic_sector_exponent(n, r)

    components = []
    total = HodgeDiamond.zero(3)
    for curve in record.curves:
        local = LocalAction(n, (0, r, e_exp))
        a = _integral_age(local)
        assert a == 1, "a fixed curve always has age 1 in these quotients"
        perm = CharacterVector.orbit(n, curve.orbit_size)
        forms = perm.convolve(curve_character_dims(curve, n))
        inc = HodgeDiamond.from_entries(1, {
            (0, 0): invariant_pairing(perm, e_vec),
            (1, 0): invariant_pairing(forms, e_vec),
            (0, 1): invariant_pairing(forms.conjugate(), e_vec),
            (1, 1): invariant_pairing(perm, e_vec),
        })
        shifted = _scaled(add_shifted(HodgeDiamond.zero(3), inc, a), curve.count)
        total = total + shifted
        components.append(SectorComponent("curve", curve, local, a, shifted))
    for point in record.points:
        s_local = power_transport(LocalAction(n, point.type_exponents), u)
        local = LocalAction(n, s_local.exponents + (e_exp,))
        a = _integral_age(local)
        if a not in (1, 2):
            raise ValueError(f"point sector age {a} outside {{1, 2}}: non-crepant local data")
        perm = CharacterVector.orbit(n, point.orbit_size)
        inc = HodgeDiamond.from_entries(0, {(0, 0): invariant_pairing(perm, e_vec)})
        shifted = _scaled(add_shifted(HodgeDiamond.zero(3), inc, a), point.count)
        total = total + shifted
        components.append(SectorComponent("point", point, local, a, shifted))
    return SectorContribution(GroupElement(n, r), tuple(components), total)


def _scaled(diamond: HodgeDiamond, count: int) -> HodgeDiamond:
    return HodgeDiamond(diamond.d, tuple(tuple(count * v for v in row) for row in diamond.table))


def _integral_age(local: LocalAction) -> int:
    a = age(local)
    if a.denominator != 1:
        raise ValueError(
            f"non-integral age {a} for local exponents {local.exponents} mod {local.n}: "
            "non-crepant local data"
        )
    return int(a)


def orbifold_hodge_diamond(cfg: K3Config) -> HodgeDiamond:
    """Full orbifold Hodge diamond: untwisted part plus all twisted sectors.

    The result is checked against the Calabi-Yau frame (corner 1s, vanishing
    (1,0) and (2,0) rows) and both symmetries; a failure here indicates an
    internal inconsistency and is raised, not returned.
    """
    diamond = untwisted_diamond(cfg)
    for r in range(1, cfg.n):
        diamond = diamond + sector_contribution(cfg, r).increment
    frame = [
        diamond.entry(0, 0) == 1, diamond.entry(3, 3) == 1,
        diamond.entry(3, 0) == 1, diamond.entry(0, 3) == 1,
        diamond.entry(1, 0) == 0, diamond.entry(0, 1) == 0,
        diamond.entry(2, 0) == 0, diamond.entry(0, 2) == 0,
    ]
    if not (all(frame) and diamond.is_pq_symmetric() and diamond.is_self_dual()):
        raise RuntimeError(f"internal consistency failure: malformed diamond {diamond.table}")
    return diamond


def orbifold_euler_pairsum(cfg: K3Config) -> int:
    """Group-averaged Euler characteristic over commuting pairs.

    (1/n) * sum over all pairs (j, k) of e of the common fixed set, which
    only depends on gcd(j, k, n).  The division is checked exact; a
    remainder would mean corrupted input and raises.
    """
    n = cfg.n
    fixture = elliptic_fixture(n)
    total = 0
    for j in range(n):
        for k in range(n):
            c = gcd(j, k, n) % n
            if c == 0:
                continue  # e(E) = 0 kills the identity class
            total += euler_fixed_set(cfg, c) * fixture.point_count(n // c)
    if total % n:
        raise RuntimeError(f"pair sum {total} not divisible by {n}: corrupted input")
    return total // n


@dataclass(frozen=True)
class Check:
    """One cross-validation: status is 'pass', 'fail' or 'skipped'."""

    name: str
    status: str
    lhs: Optional[int] = None
    rhs: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class CrosscheckReport:
    diamond: HodgeDiamond
    h11: int
    h21: int
    euler_diamond: int
    euler_pairsum: int
    closed: Optional[HodgePair]
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name, lhs, rhs) -> Check:
    return Check(name, "pass" if lhs == rhs else "fail", lhs, rhs)


def crosscheck(cfg: K3Config) -> CrosscheckReport:
    """Run every cross-validation the configuration supports.

    Always: the alternating sum of the engine diamond against the pair-sum
    Euler characteristic, and h^{2,1} against h^{1,1} - e/2.  When the
    configuration carries the named invariants its constructor built it
    from, also engine against closed forms; otherwise those checks are
    reported as skipped.  Mismatches are data, not exceptions.
    """
    diamond = orbifold_hodge_diamond(cfg)
    h11, h21 = diamond.entry(1, 1), diamond.entry(2, 1)
    e_diamond = euler_characteristic(diamond)
    e_pair = orbifold_euler_pairsum(cfg)
    checks = [_check("euler_pairsum", e_diamond, e_pair)]
    if e_pair % 2 == 0:
        checks.append(_check("cy_relation", h21, h11 - e_pair // 2))
    else:
        checks.append(Check("cy_relation", "fail", h21, None))

    closed = None
    if cfg.invariants is not None:
        closed = closed_form_pair(cfg.n, cfg.invariants)
        classes = sorted({gcd(r, cfg.n) for r in range(1, cfg.n)})
        e_closed = euler_formula(cfg.n, [euler_fixed_set(cfg, c) for c in classes])
        checks.append(_check("closed_form_h11", h11, closed.h11))
        checks.append(_check("closed_form_h21", h21, closed.h21))
        checks.append(_check("closed_form_euler", e_pair, e_closed))
    else:
        checks.extend(Check(name, "skipped") for name in
                      ("closed_form_h11", "closed_form_h21", "closed_form_euler"))
    return CrosscheckReport(diamond, h11, h21, e_diamond, e_pair, closed, tuple(checks))

