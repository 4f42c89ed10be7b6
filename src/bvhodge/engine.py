"""Twisted-sector cohomology engine for the (K3 x E)/C_n quotients.

Every number is a plain integer sum of invariant pairings of character
tuples, written straight into 4x4 tables; one :class:`HodgeDiamond` is
built for the untwisted part and one for the result, which is checked.

The untwisted part pairs the five eigenspace entries (p, q, characters)
of the K3 surface directly with the four of the elliptic curve, each of
which holds a single character k: the invariants of a product entry are
the multiplicity of character -k in the K3 entry.  This is the character-0
slice of the character-refined Kuenneth product, which the tests keep as
an independent oracle (:func:`bvhodge.hodge.kunneth_character_product`).

For each nontrivial power g^r of the generator, the fixed locus is a
disjoint union of products (curve or point on the K3 side) x (fixed point on
the elliptic side); the group permutes these components and acts on their
cohomology through the residual data stored in the configuration.  The
invariants of a component class are its character counts paired with
per-order weights, and its age shifts them diagonally: a curve has local
exponents (0, r, n - r) and age 1, a point of type (t1, t2) has exponents
(u*t1, u*t2, n - r) mod n, u = r/gcd(r, n), and age their sum over n.

The engine trusts its configuration: the named constructors and the
raw-document parser validate each one as they build it.  A configuration
built by hand is checked with :func:`bvhodge.fixed_locus.validate` first.
Past that, the engine only adds, multiplies and compares the numbers of
the data, with one checked exact division in the pair sum; it converts
none of them and uses no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Union

from .closed_forms import HodgePair, closed_form_pair, euler_formula
from .fixed_locus import (
    SUPPORTED_ORDERS,
    CurveOrbit,
    InvariantError,
    K3Config,
    PointOrbit,
    curve_character_dims,
    elliptic_fixture,
    euler_fixed_set,
    validate,
)
from .hodge import CharacterVector, HodgeDiamond, euler_characteristic

Table = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# per-order constants, computed once at import


def _delta(n: int, j: int) -> tuple[int, ...]:
    return CharacterVector.delta(n, j).c


#: (p, q, characters) of H^0, H^4, H^{2,0} and H^{0,2} of the K3 surface:
#: the period sits in character 1 and its conjugate in character n-1
_K3_FRAME = {n: ((0, 0, _delta(n, 0)), (2, 2, _delta(n, 0)),
                 (2, 0, _delta(n, 1)), (0, 2, _delta(n, n - 1)))
             for n in SUPPORTED_ORDERS}

#: (p, q, character) of the elliptic curve, one character per entry: its
#: 1-form sits in character n-1
_ELLIPTIC = {n: ((0, 0, 0), (1, 1, 0), (1, 0, n - 1), (0, 1, 1)) for n in SUPPORTED_ORDERS}


def _sector_weights(n: int) -> dict:
    """Invariant counts per character, for every subgroup order d and orbit size s.

    ``w[j]`` is the dimension of the invariants of (the permutation
    representation of an orbit of s members) x (character j) x (the fixed
    points of the subgroup of order d on E).  A class of s-member orbits
    whose members carry the characters ``chars`` then has
    ``sum_j chars[j] * w[j]`` invariants.  Permutation characters are real,
    so the conjugate characters give the same count.
    """
    fixture = elliptic_fixture(n)
    out = {}
    for d, _ in fixture.orbits:
        e_vec = fixture.char_vector(d).c
        for s in (s for s in range(1, n + 1) if n % s == 0):
            perm = CharacterVector.orbit(n, s).c
            # character i of the orbit times character j pairs with -(i + j) on E
            out[d, s] = tuple(sum(perm[i] * e_vec[(-i - j) % n] for i in range(n))
                              for j in range(n))
    return out


def _pair_classes(n: int) -> tuple[tuple[int, int], ...]:
    """(c, weight) pairs of the pair sum, c running over the nontrivial classes.

    The pair (j, k) contributes e(Fix g^c) times the number of fixed points
    of g^c on E, with c = gcd(j, k, n); the weight of c adds those point
    counts over its pairs.  e(E) = 0 kills the identity class.
    """
    fixture = elliptic_fixture(n)
    weights: dict[int, int] = {}
    for j in range(n):
        for k in range(n):
            c = gcd(j, k, n) % n
            if c:
                weights[c] = weights.get(c, 0) + fixture.point_count(n // c)
    return tuple(sorted(weights.items()))


_SECTOR_WEIGHTS = {n: _sector_weights(n) for n in SUPPORTED_ORDERS}
_PAIR_CLASSES = {n: _pair_classes(n) for n in SUPPORTED_ORDERS}


# ---------------------------------------------------------------------------
# the untwisted part and the twisted sectors


def untwisted_diamond(cfg: K3Config) -> HodgeDiamond:
    """Invariant part of the cohomology of the product, as a threefold diamond.

    The (1,1) part of the K3 surface carries the eigenspace dimensions less
    the period and its conjugate; eigenspaces too small to hold them raise
    :class:`InvariantError`.
    """
    n = cfg.n
    dims = list(cfg.eigenspace.dims)
    dims[1 % n] -= 1
    dims[(n - 1) % n] -= 1
    if min(dims) < 0:
        raise InvariantError(validate(cfg))
    table = [[0] * 4 for _ in range(4)]
    for p1, q1, chars in _K3_FRAME[n] + ((1, 1, dims),):
        for p2, q2, k in _ELLIPTIC[n]:
            # paired with the single character k, only character -k is invariant
            table[p1 + p2][q1 + q2] += chars[-k]
    return HodgeDiamond(3, table)


def _table(entries) -> Table:
    """4x4 table holding at each (p, q) the sum of the values of the (p, q, value) entries."""
    table = [[0] * 4 for _ in range(4)]
    for p, q, v in entries:
        table[p][q] += v
    return tuple(map(tuple, table))


@dataclass(frozen=True)
class SectorComponent:
    """One class of components of a twisted sector, with its local exponents and age.

    ``entries`` are the (p, q, value) triples the class adds to the diamond,
    ``count`` times over and shifted by the age; ``table`` is built on read.
    """

    kind: str  # "curve" or "point"
    source: Union[CurveOrbit, PointOrbit]
    exponents: tuple[int, ...]
    age: int
    entries: tuple[tuple[int, int, int], ...]

    @property
    def table(self) -> Table:
        return _table(self.entries)

    @property
    def increment(self) -> HodgeDiamond:
        return HodgeDiamond(3, self.table)


@dataclass(frozen=True)
class SectorContribution:
    """Everything the sector of one nontrivial power of the generator adds."""

    power: int
    components: tuple[SectorComponent, ...]
    table: Table

    @property
    def increment(self) -> HodgeDiamond:
        return HodgeDiamond(3, self.table)

    @property
    def h11(self) -> int:
        return self.table[1][1]

    @property
    def h21(self) -> int:
        return self.table[2][1]


def sector_contribution(cfg: K3Config, j: int) -> SectorContribution:
    """Twisted sector of the j-th power of the generator (j nonzero).

    Assumes a structurally valid configuration.  A point age other than 1
    or 2 means the local data cannot belong to a crepant-resolvable
    quotient and is a hard error.
    """
    n = cfg.n
    r = j % n
    if r == 0:
        raise ValueError("the untwisted part is not a sector; use untwisted_diamond")
    d = n // gcd(r, n)
    weights = _SECTOR_WEIGHTS[n]
    record = cfg.record(d)
    components = []
    for curve in record.curves:
        w = weights[d, curve.orbit_size]
        forms = curve.count * sum(m * x for m, x in zip(curve_character_dims(curve, n).c, w))
        h0 = curve.count * w[0]
        entries = ((1, 1, h0), (2, 1, forms), (1, 2, forms), (2, 2, h0))
        components.append(SectorComponent("curve", curve, (0, r, n - r), 1, entries))
    u = r // gcd(r, n)  # g^r is the u-th power of the generator the point types refer to
    for point in record.points:
        t1, t2 = point.type_exponents
        exponents = (u * t1 % n, u * t2 % n, n - r)
        a, rest = divmod(sum(exponents), n)
        if rest or a not in (1, 2):
            raise ValueError(f"non-crepant local data: point age {sum(exponents)}/{n}, not 1 or 2")
        entries = ((a, a, point.count * weights[d, point.orbit_size][0]),)
        components.append(SectorComponent("point", point, exponents, a, entries))
    total = _table(e for component in components for e in component.entries)
    return SectorContribution(r, tuple(components), total)


def orbifold_hodge_diamond(cfg: K3Config) -> HodgeDiamond:
    """Full orbifold Hodge diamond: untwisted part plus all twisted sectors.

    The result is checked against the Calabi-Yau frame (corner 1s, vanishing
    (1,0) and (2,0) rows) and both symmetries; a failure here indicates an
    internal inconsistency and is raised, not returned.
    """
    tables = [untwisted_diamond(cfg).table]
    tables += [sector_contribution(cfg, r).table for r in range(1, cfg.n)]
    diamond = HodgeDiamond(3, tuple(tuple(map(sum, zip(*rows))) for rows in zip(*tables)))
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
    only depends on gcd(j, k, n), so each class is evaluated once and
    weighted by its pairs.  The division is checked exact; a remainder would
    mean corrupted input and raises.
    """
    n = cfg.n
    total = sum(euler_fixed_set(cfg, c) * weight for c, weight in _PAIR_CLASSES[n])
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
    euler_closed: Optional[int]
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

    closed = e_closed = None
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
    return CrosscheckReport(diamond, h11, h21, e_diamond, e_pair, closed, e_closed,
                            tuple(checks))

