"""Twisted-sector cohomology engine for the (K3 x E)/C_n quotients.

Every number is a plain integer sum of invariant pairings of character
tuples, written straight into 4x4 tables; one :class:`HodgeDiamond` is
built for the untwisted part and one for the result, which is checked.

The untwisted part pairs the five eigenspace entries (p, q, characters)
of the K3 surface directly with the four of the elliptic curve, each of
which holds a single character k: the invariants of a product entry are
the multiplicity of character -k in the K3 entry.  Four of the five K3
entries are the same for every configuration of an order and are paired
once, at import.  This is the character-0
slice of the character-refined Kuenneth product, which the tests keep as
an independent oracle (:func:`bvhodge.hodge.kunneth_character_product`).

For each nontrivial power g^r of the generator, the fixed locus is a
disjoint union of products (curve or point on the K3 side) x (fixed point on
the elliptic side); the group permutes these components and acts on their
cohomology through the residual data stored in the configuration.  The
invariants of a component class are its character counts paired with
per-order weights w, read once at import from the orbit sizes of
:data:`bvhodge.fixed_locus.ELLIPTIC_ORBITS`; its age shifts them
diagonally.  A curve of genus g in the default split has g_quot*w[0] +
(g - g_quot)/(rho - 1)*W invariant forms, W the import-time sum of w over
the nonzero characters of its residual order rho.  A curve has local
exponents (0, r, n - r) and age 1, a point of type (t1, t2) has exponents
(u*t1, u*t2, n - r) mod n, u = r/gcd(r, n), and age their sum over n.

The engine trusts its configuration: the named constructors and the
raw-document parser validate each one as they build it.  A configuration
built by hand is checked with :func:`bvhodge.fixed_locus.validate` first,
which is also where the character split of each curve is checked.
Past that, the engine only adds, multiplies and compares the numbers of
the data, dividing only in the pair sum, checked exact, and in a default
split, which validation checked; it converts none of them and uses no floats.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Optional, Union

from .closed_forms import HodgePair, closed_form_pair, euler_formula
from .fixed_locus import (
    ELLIPTIC_ORBITS,
    SUPPORTED_ORDERS,
    CurveOrbit,
    InvariantError,
    K3Config,
    PointOrbit,
    curve_character_dims,
    euler_fixed_set,
    validate,
)
from .hodge import HodgeDiamond, euler_characteristic
from .record import Record, setfield

Table = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# per-order constants, computed once at import


def _delta(n: int, j: int) -> tuple[int, ...]:
    return tuple(int(i == j % n) for i in range(n))


#: (p, q, characters) of H^0, H^4, H^{2,0} and H^{0,2} of the K3 surface:
#: the period sits in character 1 and its conjugate in character n-1
_K3_FRAME = {n: ((0, 0, _delta(n, 0)), (2, 2, _delta(n, 0)),
                 (2, 0, _delta(n, 1)), (0, 2, _delta(n, n - 1)))
             for n in SUPPORTED_ORDERS}

#: (p, q, character) of the elliptic curve, one character per entry: its
#: 1-form sits in character n-1
_ELLIPTIC = {n: ((0, 0, 0), (1, 1, 0), (1, 0, n - 1), (0, 1, 1)) for n in SUPPORTED_ORDERS}


def _untwisted_frame(n: int) -> Table:
    """Invariant part of the K3 frame times the elliptic curve, for every configuration."""
    table = [[0] * 4 for _ in range(4)]
    for p1, q1, chars in _K3_FRAME[n]:
        for p2, q2, k in _ELLIPTIC[n]:
            # paired with the single character k, only character -k is invariant
            table[p1 + p2][q1 + q2] += chars[-k]
    return tuple(map(tuple, table))


def _sector_weights(n: int) -> dict:
    """Invariant counts per character, for every subgroup order d and orbit size s.

    ``w[j]`` is the dimension of the invariants of (the permutation
    representation of an orbit of s members) x (character j) x (the fixed
    points of the subgroup of order d on E).  A class of s-member orbits
    whose members carry the characters ``chars`` then has
    ``sum_j chars[j] * w[j]`` invariants.  Permutation characters are real,
    so the conjugate characters give the same count.
    """
    out = {}
    for d, sizes in ELLIPTIC_ORBITS[n].items():
        # an orbit of `size` points carries once each character that is a multiple of n/size
        e_vec = [sum(i % (n // size) == 0 for size in sizes) for i in range(n)]
        for s in (s for s in range(1, n + 1) if n % s == 0):
            # character i of the orbit times character j pairs with -(i + j) on E
            out[d, s] = tuple(sum(e_vec[(-i - j) % n] for i in range(0, n, n // s))
                              for j in range(n))
    return out


def _pair_classes(n: int) -> tuple[tuple[int, int], ...]:
    """(c, weight) pairs of the pair sum, c running over the nontrivial classes.

    The pair (j, k) contributes e(Fix g^c) times the number of fixed points
    of g^c on E, with c = gcd(j, k, n); the weight of c adds those point
    counts over its pairs.  e(E) = 0 kills the identity class.
    """
    classes = [gcd(j, k, n) for j in range(n) for k in range(n)]
    return tuple((c, classes.count(c) * sum(ELLIPTIC_ORBITS[n][n // c]))
                 for c in sorted(set(classes)) if c != n)


_SECTOR_WEIGHTS = {n: _sector_weights(n) for n in SUPPORTED_ORDERS}
#: (w, W, q) per (d, s, rho): W sums w over the nonzero multiples of n/rho, q = rho - 1 or 1
_SPLIT_WEIGHTS = {n: {(d, s, rho): (w, sum(w[n // rho::n // rho]), max(rho - 1, 1))
                      for (d, s), w in _SECTOR_WEIGHTS[n].items() for rho in (1, 2, 3)
                      if n % rho == 0} for n in SUPPORTED_ORDERS}
_PAIR_CLASSES = {n: _pair_classes(n) for n in SUPPORTED_ORDERS}
_UNTWISTED_FRAME = {n: _untwisted_frame(n) for n in SUPPORTED_ORDERS}


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
    table = list(map(list, _UNTWISTED_FRAME[n]))
    for p2, q2, k in _ELLIPTIC[n]:  # the frame plus the (1,1) entry: four cells
        table[1 + p2][1 + q2] += dims[-k]
    return HodgeDiamond(3, table)


def _table(entries) -> Table:
    """4x4 table holding at each (p, q) the sum of the values of the (p, q, value) entries."""
    table = [[0] * 4 for _ in range(4)]
    for p, q, v in entries:
        table[p][q] += v
    return tuple(map(tuple, table))


class SectorComponent(Record):
    """One class of components of a twisted sector, with its local exponents and age.

    ``kind`` is "curve" or "point".  ``entries`` are the (p, q, value) triples
    the class adds to the diamond, ``count`` times over and shifted by the age;
    ``table`` is built on read.
    """

    __slots__ = ("kind", "source", "exponents", "age", "entries")

    def __init__(self, kind: str, source: Union[CurveOrbit, PointOrbit],
                 exponents: tuple[int, ...], age: int, entries: tuple[tuple[int, int, int], ...]):
        setfield(self, "kind", kind)
        setfield(self, "source", source)
        setfield(self, "exponents", exponents)
        setfield(self, "age", age)
        setfield(self, "entries", entries)

    @property
    def table(self) -> Table:
        return _table(self.entries)

    @property
    def increment(self) -> HodgeDiamond:
        return HodgeDiamond(3, self.table)


def _point_local(point: PointOrbit, n: int, r: int) -> tuple[tuple[int, ...], int]:
    """Local exponents and age of a point in the sector of g^r; a non-crepant one raises."""
    u = r // gcd(r, n)  # g^r is the u-th power of the generator the point types refer to
    exponents = (u * point.type_exponents[0] % n, u * point.type_exponents[1] % n, n - r)
    a, rest = divmod(sum(exponents), n)
    if rest or a not in (1, 2):
        raise ValueError(f"non-crepant local data: point age {sum(exponents)}/{n}, not 1 or 2")
    return exponents, a


class SectorContribution(Record):
    """Everything the sector of one nontrivial power of the generator adds."""

    __slots__ = ("power", "config", "table")

    def __init__(self, power: int, config: K3Config, table: Table):
        setfield(self, "power", power)
        setfield(self, "config", config)
        setfield(self, "table", table)

    @property
    def components(self) -> tuple[SectorComponent, ...]:
        """The component classes, built on read; a curve pairs its character split with w."""
        n, r, weights, out = self.config.n, self.power, _SECTOR_WEIGHTS[self.config.n], []
        d = n // gcd(r, n)
        for curve in (record := self.config.record(d)).curves:
            w = weights[d, curve.orbit_size]
            forms = curve.count * sum(map(mul, curve_character_dims(curve, n), w))
            h0 = curve.count * w[0]
            out.append(SectorComponent("curve", curve, (0, r, n - r), 1,
                                       ((1, 1, h0), (2, 1, forms), (1, 2, forms), (2, 2, h0))))
        for point in record.points:
            exponents, a = _point_local(point, n, r)
            h0 = point.count * weights[d, point.orbit_size][0]
            out.append(SectorComponent("point", point, exponents, a, ((a, a, h0),)))
        return tuple(out)

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
    weights, split, record = _SECTOR_WEIGHTS[n], _SPLIT_WEIGHTS[n], cfg.record(d)
    # h0 of the curves, at index 0, goes to h11 and h22, that of the points at index age
    h0, h21 = [0, 0, 0], 0
    for curve in record.curves:
        w, rest, q = split[d, curve.orbit_size, curve.residual_order]
        if curve.char_dims is None:  # the default split, through its summed weights
            forms = curve.quotient_genus * w[0] + (curve.genus - curve.quotient_genus) // q * rest
        else:
            forms = sum(map(mul, curve.char_dims, w))
        h0[0] += curve.count * w[0]
        h21 += curve.count * forms
    for point in record.points:
        h0[_point_local(point, n, r)[1]] += point.count * weights[d, point.orbit_size][0]
    total = ((0, 0, 0, 0), (0, h0[0] + h0[1], h21, 0), (0, h21, h0[0] + h0[2], 0), (0, 0, 0, 0))
    return SectorContribution(r, cfg, total)


def orbifold_hodge_diamond(cfg: K3Config) -> HodgeDiamond:
    """Full orbifold Hodge diamond: untwisted part plus all twisted sectors.

    The result is checked against the Calabi-Yau frame (corner 1s, vanishing
    (1,0) and (2,0) rows) and both symmetries; a failure here indicates an
    internal inconsistency and is raised, not returned.
    """
    table = list(map(list, untwisted_diamond(cfg).table))
    for r in range(1, cfg.n):
        (_, (_, h11, h12, _), (_, h21, h22, _), _) = sector_contribution(cfg, r).table
        table[1][1] += h11
        table[1][2] += h12
        table[2][1] += h21
        table[2][2] += h22
    diamond = HodgeDiamond(3, table)
    t = diamond.table
    if not (t[0][0] == t[3][3] == t[3][0] == t[0][3] == 1
            and t[1][0] == t[0][1] == t[2][0] == t[0][2] == 0
            and diamond.is_pq_symmetric() and diamond.is_self_dual()):
        raise RuntimeError(f"internal consistency failure: malformed diamond {diamond.table}")
    return diamond


def orbifold_euler_pairsum(cfg: K3Config, _eulers: Optional[list[int]] = None) -> int:
    """Group-averaged Euler characteristic over commuting pairs.

    (1/n) * sum over all pairs (j, k) of e of the common fixed set, which
    only depends on gcd(j, k, n), so each class is evaluated once and
    weighted by its pairs.  The division is checked exact; a remainder would
    mean corrupted input and raises.  :func:`crosscheck` passes ``_eulers``,
    the fixed-set Euler numbers it also feeds to the closed form.
    """
    n = cfg.n
    if _eulers is None:
        _eulers = [euler_fixed_set(cfg, c) for c, _ in _PAIR_CLASSES[n]]
    total = sum(e * weight for e, (_, weight) in zip(_eulers, _PAIR_CLASSES[n]))
    if total % n:
        raise RuntimeError(f"pair sum {total} not divisible by {n}: corrupted input")
    return total // n


class Check(Record):
    """One cross-validation: status is 'pass', 'fail' or 'skipped'."""

    __slots__ = ("name", "status", "lhs", "rhs")

    def __init__(self, name: str, status: str, lhs: Optional[int] = None,
                 rhs: Optional[int] = None):
        setfield(self, "name", name)
        setfield(self, "status", status)
        setfield(self, "lhs", lhs)
        setfield(self, "rhs", rhs)

    @property
    def passed(self) -> bool:
        return self.status != "fail"


#: the closed-form checks of a configuration without named invariants
_SKIPPED_CLOSED_FORM = tuple(Check(name, "skipped") for name in
                             ("closed_form_h11", "closed_form_h21", "closed_form_euler"))


class CrosscheckReport(Record):
    __slots__ = ("diamond", "h11", "h21", "euler_diamond", "euler_pairsum", "closed",
                 "euler_closed", "checks")

    def __init__(self, diamond: HodgeDiamond, h11: int, h21: int, euler_diamond: int,
                 euler_pairsum: int, closed: Optional[HodgePair], euler_closed: Optional[int],
                 checks: tuple[Check, ...]):
        setfield(self, "diamond", diamond)
        setfield(self, "h11", h11)
        setfield(self, "h21", h21)
        setfield(self, "euler_diamond", euler_diamond)
        setfield(self, "euler_pairsum", euler_pairsum)
        setfield(self, "closed", closed)
        setfield(self, "euler_closed", euler_closed)
        setfield(self, "checks", checks)

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
    eulers = [euler_fixed_set(cfg, c) for c, _ in _PAIR_CLASSES[cfg.n]]
    e_pair = orbifold_euler_pairsum(cfg, eulers)
    checks = [_check("euler_pairsum", e_diamond, e_pair)]
    if e_pair % 2 == 0:
        checks.append(_check("cy_relation", h21, h11 - e_pair // 2))
    else:
        checks.append(Check("cy_relation", "fail", h21, None))

    closed = e_closed = None
    if cfg.invariants is not None:
        closed = closed_form_pair(cfg.n, cfg.invariants)
        e_closed = euler_formula(cfg.n, eulers)
        checks.append(_check("closed_form_h11", h11, closed.h11))
        checks.append(_check("closed_form_h21", h21, closed.h21))
        checks.append(_check("closed_form_euler", e_pair, e_closed))
    else:
        checks.extend(_SKIPPED_CLOSED_FORM)
    return CrosscheckReport(diamond, h11, h21, e_diamond, e_pair, closed, e_closed,
                            tuple(checks))

