"""Twisted-sector cohomology engine for the (K3 x E)/C_n quotients.

Every number is a plain integer sum of invariant pairings of character
tuples, written straight into 4x4 tables: the untwisted part and each
twisted sector are bare tables, and the only :class:`HodgeDiamond` of a
run is their sum, which is checked.

The untwisted part pairs the five eigenspace entries (p, q, characters)
of the K3 surface directly with the four of the elliptic curve, each of
which holds a single character k: the invariants of a product entry are
the multiplicity of character -k in the K3 entry.  Four of the five K3
entries are the same for every configuration of an order and are paired
once, at import.  This is the character-0 slice of the character-refined
Kuenneth product, which the tests keep as an independent oracle
(:func:`bvhodge.hodge.kunneth_character_product`).

For each nontrivial power g^r of the generator, the fixed locus is a
disjoint union of products (curve or point on the K3 side) x (fixed point on
the elliptic side); the group permutes these products and acts on their
cohomology through the residual data stored in the configuration.  The
invariants of a component class are its character counts paired with
per-order weights w, read once at import from the orbit sizes of
:data:`bvhodge.fixed_locus.ELLIPTIC_ORBITS`; its age shifts them
diagonally.  A curve of genus g has g_quot*w[0] + (g - g_quot)*w[n/rho]
invariant forms: its other characters are +-n/rho, where w agrees, as
permutation characters are real (rho <= 3).  A curve has local
exponents (0, r, n - r) and age 1, a point of type (t1, t2) has exponents
(u*t1, u*t2, n - r) mod n, u = r/gcd(r, n), and age their sum over n.
The sectors of the powers that generate one subgroup share one walk over its
record, which ages each point once per power and also gives the Euler number
of the fixed locus.  A sector keeps only the sum of its classes; the tests
build them one by one.

The engine trusts its configuration: the named constructors and the
raw-document parser validate each one as they build it.  A configuration
built by hand is checked with :func:`bvhodge.fixed_locus.validate` first,
which is also where the character split of each curve is checked.
Past that, the engine only adds, multiplies and compares the numbers of
the data, dividing only in the pair sum, checked exact; it converts none of
them and uses no floats.
"""

from __future__ import annotations

from math import gcd
from operator import sub
from typing import Optional

from .closed_forms import closed_form_pair
from .fixed_locus import (
    ELLIPTIC_ORBITS,
    SUPPORTED_ORDERS,
    InvariantError,
    K3Config,
    SubgroupFixedRecord,
    validate,
)
from .hodge import HodgeDiamond, euler_characteristic

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


def _powers(n: int) -> dict:
    """(u, n - r) of each power g^r, u = r/gcd(r, n), keyed by the order of <g^r>."""
    return {d: tuple((r * d // n, n - r) for r in range(1, n) if gcd(r, n) == n // d)
            for d in ELLIPTIC_ORBITS[n]}


_SECTOR_WEIGHTS = {n: _sector_weights(n) for n in SUPPORTED_ORDERS}
#: (w[0], w[n/rho]) per (d, s, rho): the weights of a curve's invariant and other forms
_SPLIT_WEIGHTS = {n: {(d, s, rho): (w[0], w[n // rho % n])
                      for (d, s), w in _SECTOR_WEIGHTS[n].items() for rho in (1, 2, 3)
                      if n % rho == 0} for n in SUPPORTED_ORDERS}
_PAIR_CLASSES = {n: _pair_classes(n) for n in SUPPORTED_ORDERS}
_UNTWISTED_FRAME = {n: _untwisted_frame(n) for n in SUPPORTED_ORDERS}
_POWERS = {n: _powers(n) for n in SUPPORTED_ORDERS}
#: the period and its conjugate, which the (1,1) part of the K3 surface leaves out
_PERIOD = {n: tuple(map(sum, zip(_delta(n, 1), _delta(n, n - 1)))) for n in SUPPORTED_ORDERS}


# ---------------------------------------------------------------------------
# the untwisted part and the twisted sectors


def untwisted_diamond(cfg: K3Config) -> Table:
    """Invariant part of the cohomology of the product, as a 4x4 threefold table.

    The (1,1) part of the K3 surface carries the eigenspace dimensions less
    the period and its conjugate; eigenspaces too small to hold them raise
    :class:`InvariantError`.
    """
    n, dims, period = cfg.n, cfg.eigenspace.dims, _PERIOD[cfg.n]
    if min(map(sub, dims, period)) < 0:
        raise InvariantError(validate(cfg))
    # the (1,1) entry of each elliptic character k adds d[-k] less the period to one cell
    row0, (h10, h11, h12, h13), (h20, h21, h22, h23), row3 = _UNTWISTED_FRAME[n]
    return (row0, (h10, h11 + dims[0], h12 + dims[-1] - period[-1], h13),
            (h20, h21 + dims[1] - period[1], h22 + dims[0], h23), row3)


def _walk(n: int, rec: SubgroupFixedRecord, powers) -> tuple[int, int, int, int]:
    """(h11, h21, h22) that the sectors of ``powers`` (as in :data:`_POWERS`) add, and the
    Euler number of the fixed locus ``rec``.  A point age other than 1 or 2 means the local
    data cannot belong to a crepant-resolvable quotient and is a hard error.
    """
    d, k = rec.subgroup_order, len(powers)
    weights, split = _SECTOR_WEIGHTS[n], _SPLIT_WEIGHTS[n]
    h0 = h21 = e = 0  # h0 of the curves goes to h11 and h22, that of a point to its age
    for curve in rec.curves:
        w0, w1 = split[d, curve.orbit_size, curve.residual_order]  # w[0] and w[n/rho]
        h0 += curve.count * w0
        h21 += curve.count * (curve.quotient_genus * w0 + (curve.genus - curve.quotient_genus) * w1)
        e += curve.count * curve.orbit_size * (2 - 2 * curve.genus)
    h11 = h22 = k * h0
    for point in rec.points:
        t1, t2 = point.type_exponents
        w = point.count * weights[d, point.orbit_size][0]
        e += point.count * point.orbit_size
        for u, top in powers:
            total = u * t1 % n + u * t2 % n + top
            if total == n:
                h11 += w
            elif total == 2 * n:
                h22 += w
            else:
                raise ValueError(f"non-crepant local data: point age {total}/{n}, not 1 or 2")
    return h11, k * h21, h22, e


def sector_contribution(cfg: K3Config, j: int) -> Table:
    """4x4 table the twisted sector of the j-th power of the generator adds (j nonzero).

    The one-power view of the walk :func:`orbifold_hodge_diamond` makes over
    each record.  Assumes a structurally valid configuration.
    """
    n = cfg.n
    r = j % n
    if r == 0:
        raise ValueError("the untwisted part is not a sector; use untwisted_diamond")
    g = gcd(r, n)
    h11, h21, h22, _ = _walk(n, cfg.record(n // g), ((r // g, n - r),))
    return ((0, 0, 0, 0), (0, h11, h21, 0), (0, h21, h22, 0), (0, 0, 0, 0))


def orbifold_hodge_diamond(cfg: K3Config, _eulers: Optional[dict] = None) -> HodgeDiamond:
    """Full orbifold Hodge diamond: untwisted part plus all twisted sectors.

    The sectors of one subgroup share one walk over its record.  The result
    is checked against the Calabi-Yau frame (corner 1s, vanishing (1,0) and
    (2,0) rows) and both symmetries; a failure here indicates an internal
    inconsistency and is raised, not returned.  :func:`crosscheck` passes
    ``_eulers``, which the walks fill with each record's Euler number.
    """
    n = cfg.n
    row0, (h10, h11, h12, h13), (h20, h21, h22, h23), row3 = untwisted_diamond(cfg)
    for rec in cfg.records:  # a sector adds only to the four middle cells
        s11, s21, s22, e = _walk(n, rec, _POWERS[n][rec.subgroup_order])
        h11 += s11
        h12 += s21
        h21 += s21
        h22 += s22
        if _eulers is not None:
            _eulers[rec.subgroup_order] = e
    diamond = HodgeDiamond(3, (row0, (h10, h11, h12, h13), (h20, h21, h22, h23), row3))
    t = diamond.table
    if not (t[0][0] == t[3][3] == t[3][0] == t[0][3] == 1
            and t[1][0] == t[0][1] == t[2][0] == t[0][2] == 0
            and diamond.is_pq_symmetric() and diamond.is_self_dual()):
        raise RuntimeError(f"internal consistency failure: malformed diamond {diamond.table}")
    return diamond


def orbifold_euler_pairsum(cfg: K3Config, _eulers: Optional[dict] = None) -> int:
    """Group-averaged Euler characteristic over commuting pairs.

    (1/n) * sum over all pairs (j, k) of e of the common fixed set, which
    only depends on gcd(j, k, n), so each class is evaluated once and
    weighted by its pairs.  Every weight is a multiple of n, so the division
    is exact.  :func:`crosscheck` passes ``_eulers``, the Euler numbers of
    its walks by subgroup order; without them each record is walked again.
    """
    n = cfg.n
    if _eulers is None:
        _eulers = {rec.subgroup_order: _walk(n, rec, ())[3] for rec in cfg.records}
    total = 0
    for c, weight in _PAIR_CLASSES[n]:  # g^c fixes what its subgroup, of order n/c, fixes
        total += _eulers.get(n // c, 0) * weight
    return total // n


def _check(name: str, lhs: int, rhs: int) -> dict:
    return {"name": name, "status": "pass" if lhs == rhs else "fail", "lhs": lhs, "rhs": rhs}


def crosscheck(cfg: K3Config) -> dict:
    """Run every cross-validation the configuration supports, and report them.

    Always: the alternating sum of the engine diamond against the pair-sum
    Euler characteristic, and h^{2,1} against h^{1,1} - e/2 (a valid
    configuration has an even pair sum).  When the configuration carries the
    named invariants its constructor built it from, also engine against closed
    forms, and the pair sum against the closed pair's 2(h11 - h21); otherwise
    those checks are skipped.  Mismatches are data, not exceptions.  The
    report, built afresh on every call, is the part of the
    ``--format json`` output the engine computes: ``diamond`` (lists),
    ``engine`` and ``closed_form`` (``{h11, h21, euler}``, the latter ``None``
    for a raw configuration) and ``checks`` (``{name, status, lhs, rhs}``).
    """
    eulers: dict = {}
    diamond = orbifold_hodge_diamond(cfg, eulers)
    h11, h21 = diamond.entry(1, 1), diamond.entry(2, 1)
    e_pair = orbifold_euler_pairsum(cfg, eulers)
    checks = [_check("euler_pairsum", euler_characteristic(diamond), e_pair),
              _check("cy_relation", h21, h11 - e_pair // 2)]
    if cfg.invariants is None:
        closed = None
        checks += [{"name": name, "status": "skipped", "lhs": None, "rhs": None}
                   for name in ("closed_form_h11", "closed_form_h21", "closed_form_euler")]
    else:
        pair = closed_form_pair(cfg.n, cfg.invariants)
        # the closed pair's own Euler number, by the Calabi-Yau relation
        closed = {"h11": pair.h11, "h21": pair.h21, "euler": 2 * (pair.h11 - pair.h21)}
        checks += [_check("closed_form_h11", h11, pair.h11),
                   _check("closed_form_h21", h21, pair.h21),
                   _check("closed_form_euler", e_pair, closed["euler"])]
    return {"diamond": list(map(list, diamond.table)),
            "engine": {"h11": h11, "h21": h21, "euler": e_pair},
            "closed_form": closed, "checks": checks}
