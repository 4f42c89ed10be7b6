"""Fixed-locus data model for K3 surfaces with a purely non-symplectic C_n action.

A configuration consists of the eigenspace dimensions of the action on
H^2(S) together with, for every subgroup of C_n of order d > 1, the fixed
locus of that subgroup described as orbits of curves and of isolated points
under the full cyclic group.  The elliptic-curve side of the quotient is
rigid per order and is the data table :data:`ELLIPTIC_ORBITS`.  Every
structural rule lives in :func:`validate`; the helpers that read a
configuration assume it passed.

Curve orbits carry the residual action of their stabilizer (the stabilizer
modulo the subgroup fixing the curve pointwise), which is what acts on the
members' cohomology; point orbits carry the cotangent exponents of the
generator of their pointwise stabilizer, scaled to modulus n.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from .record import Record, setfield

SUPPORTED_ORDERS = (2, 3, 4, 6)

K3_EULER = 24
K3_H2_DIM = 22


class Violation(Record):
    """One validation finding: where in the configuration, and what is wrong."""

    __slots__ = ("where", "message")

    def __init__(self, where: str, message: str):
        setfield(self, "where", where)
        setfield(self, "message", message)

    def __str__(self) -> str:
        return f"error: {self.where}: {self.message}"


class InvariantError(ValueError):
    """A configuration violates the structural rules of its order."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def __reduce__(self):  # pickle and copy rebuild the error from its violations
        return type(self), (self.violations,)


class EigenspaceDims(Record):
    """Dimensions d[j] of the eigenvalue exp(2*pi*i*j/n) on H^2(S)."""

    __slots__ = ("n", "dims")

    def __init__(self, n: int, dims: tuple[int, ...]):
        setfield(self, "n", n)
        setfield(self, "dims", tuple(dims))
        if len(self.dims) != self.n:
            raise ValueError(f"expected {self.n} eigenspace dimensions, got {len(self.dims)}")


class CurveOrbit(Record):
    """An orbit of pairwise disjoint fixed curves of one subgroup.

    ``orbit_size`` members, each of genus ``genus``, cyclically permuted by
    the group; ``count`` collapses repeated identical orbits.  The residual
    cyclic group of order ``residual_order`` is the stabilizer of a member
    modulo its pointwise-fixing subgroup; ``quotient_genus`` is the genus of
    a member divided by that residual group.  ``char_dims`` optionally
    states the character split of the (1,0)-cohomology of a member under the
    residual action (length-n vector of multiplicities); the engine never
    needs it, and :func:`validate` checks it when given.
    """

    __slots__ = ("genus", "orbit_size", "residual_order", "quotient_genus", "char_dims", "count")

    def __init__(self, genus: int, orbit_size: int = 1, residual_order: int = 1,
                 quotient_genus: Optional[int] = None,
                 char_dims: Optional[tuple[int, ...]] = None, count: int = 1):
        if residual_order == 1 and quotient_genus is None:
            quotient_genus = genus
        setfield(self, "genus", genus)
        setfield(self, "orbit_size", orbit_size)
        setfield(self, "residual_order", residual_order)
        setfield(self, "quotient_genus", quotient_genus)
        setfield(self, "char_dims", None if char_dims is None else tuple(char_dims))
        setfield(self, "count", count)


class PointOrbit(Record):
    """An orbit of isolated fixed points of one subgroup.

    ``type_exponents`` are the cotangent exponents of the generator of the
    pointwise-fixing subgroup at each member, scaled to modulus n.
    """

    __slots__ = ("type_exponents", "orbit_size", "count")

    def __init__(self, type_exponents: tuple[int, int], orbit_size: int = 1, count: int = 1):
        setfield(self, "type_exponents", tuple(type_exponents))
        setfield(self, "orbit_size", orbit_size)
        setfield(self, "count", count)


class SubgroupFixedRecord(Record):
    """Fixed locus of the subgroup of order ``subgroup_order``."""

    __slots__ = ("subgroup_order", "curves", "points")

    def __init__(self, subgroup_order: int, curves: tuple[CurveOrbit, ...] = (),
                 points: tuple[PointOrbit, ...] = ()):
        setfield(self, "subgroup_order", subgroup_order)
        setfield(self, "curves", tuple(curves))
        setfield(self, "points", tuple(points))


class K3Config(Record):
    """Order, eigenspace dimensions, and one fixed-locus record per subgroup.

    ``invariants`` optionally remembers the named counts the configuration
    was built from; it is what allows the closed forms to be evaluated next
    to the general engine.  It takes no part in equality or hashing.
    """

    __slots__ = ("n", "eigenspace", "records", "invariants")
    _compare = ("n", "eigenspace", "records")

    def __init__(self, n: int, eigenspace: EigenspaceDims,
                 records: tuple[SubgroupFixedRecord, ...], invariants: Optional[dict] = None):
        setfield(self, "n", n)
        setfield(self, "eigenspace", eigenspace)
        setfield(self, "records", tuple(records))
        setfield(self, "invariants", invariants)
        if not isinstance(self.n, int) or self.n not in SUPPORTED_ORDERS:
            raise ValueError(f"unsupported order {self.n}; supported: {SUPPORTED_ORDERS}")
        if self.eigenspace.n != self.n:
            raise ValueError("eigenspace modulus differs from the order")

    def record(self, subgroup_order: int) -> SubgroupFixedRecord:
        for rec in self.records:
            if rec.subgroup_order == subgroup_order:
                return rec
        return SubgroupFixedRecord(subgroup_order)


#: ``ELLIPTIC_ORBITS[n][d]``: the orbit sizes under C_n of the fixed points on E
#: of the subgroup of order d; the order-n automorphism of E is rigid
ELLIPTIC_ORBITS = {
    2: {2: (1, 1, 1, 1)},
    3: {3: (1, 1, 1)},
    4: {4: (1, 1), 2: (1, 1, 2)},
    6: {6: (1,), 3: (1, 2), 2: (1, 3)},
}


def euler_fixed_set(cfg: K3Config, j: int) -> int:
    """Euler characteristic of the fixed set of the j-th power on S.

    The identity gives the full K3 value 24; otherwise the fixed set is the
    one of the subgroup generated by the power, read off its record: each
    member of a curve orbit adds 2 - 2g, each isolated point 1.
    """
    r = j % cfg.n
    if r == 0:
        return K3_EULER
    rec = cfg.record(cfg.n // gcd(r, cfg.n))
    e = 0
    for c in rec.curves:
        e += c.count * c.orbit_size * (2 - 2 * c.genus)
    for p in rec.points:
        e += p.count * p.orbit_size
    return e


# ---------------------------------------------------------------------------
# validation


def _ints(out: list, where: str, fields: dict) -> bool:
    """Record each field (its path below ``where``: value) holding a bool or a non-int."""
    bad = [Violation(where + k, f"expected an integer, got {v!r}")
           for k, v in fields.items() if type(v) is not int]
    out.extend(bad)
    return not bad


def _validate_eigenspace(cfg: K3Config, out: list):
    n, dims = cfg.n, cfg.eigenspace.dims
    where = "eigenspace_dims"
    if {*map(type, dims)} != {int}:
        _ints(out, where, {f"[{j}]": v for j, v in enumerate(dims)})
        return
    if min(dims) < 0:
        out.append(Violation(where, "dimensions must be nonnegative"))
        return
    if sum(dims) != K3_H2_DIM:
        out.append(Violation(where, f"eigenspace dims must sum to {K3_H2_DIM}, got {sum(dims)}"))
    if dims[1:] != dims[:0:-1]:  # d[j] == d[n - j] for every j > 0
        jj = next(j for j in range(1, n) if dims[j] != dims[n - j])
        out.append(Violation(where, f"conjugate symmetry fails: d[{jj}] != d[{n - jj}]"))
    if dims[0] < 1:
        out.append(Violation(where, "invariant part d[0] must be at least 1"))
    need = 2 if n == 2 else 1
    if dims[1] < need:
        out.append(Violation(
            where, f"d[1] must be at least {need} (it contains the period classes)"))


def _where(d, items: str = "", i: int = 0) -> str:
    """``subgroup[d]``, or item ``i`` of its ``items``: only a finding builds the string."""
    return f"subgroup[{d}].{items}[{i}]" if items else f"subgroup[{d}]"


def _validate_records(cfg: K3Config, out: list):
    n = cfg.n
    seen = set()
    for rec in cfg.records:
        d = rec.subgroup_order
        if type(d) is not int:
            _ints(out, _where(d), {".order": d})
            continue
        if d <= 1 or n % d:
            out.append(Violation(_where(d), f"subgroup order must be a divisor of {n} "
                                            "greater than 1"))
            continue
        if d in seen:
            out.append(Violation(_where(d), "duplicate record for this subgroup"))
            continue
        seen.add(d)
        for i, c in enumerate(rec.curves):
            gq = c.quotient_genus  # may be unset: reported below when it is required
            # the quick test passes for most curves, which then build no field names
            quick = (type(c.genus) is type(c.orbit_size) is type(c.residual_order)
                     is type(c.count) is type(gq) is int
                     and (c.char_dims is None or {*map(type, c.char_dims)} <= {int}))
            if not quick and not _ints(out, _where(d, "curves", i), {
                    ".genus": c.genus, ".count": c.count, ".residual_order": c.residual_order,
                    ".orbit_size": c.orbit_size, ".quotient_genus": 0 if gq is None else gq,
                    **{f".char_dims[{j}]": v for j, v in enumerate(c.char_dims or ())}}):
                continue
            rho, dims = c.residual_order, c.char_dims
            if c.count < 1 or c.orbit_size < 1:
                faults = ["count and orbit_size must be at least 1"]
            elif c.genus < 0:
                faults = ["genus must be nonnegative"]
            elif rho not in (1, 2, 3):
                faults = [f"residual order {rho} not supported (1, 2 or 3)"]
            elif n % (c.orbit_size * rho * d):
                faults = [f"orbit size {c.orbit_size}, residual order {rho} and subgroup "
                          f"order {d} must multiply into a divisor of {n}"]
            elif gq is None:
                faults = ["quotient_genus is required when residual_order > 1"]
            else:
                faults = []
                if rho == 1 and gq != c.genus:
                    faults.append("a pointwise-fixed curve has quotient genus equal to its genus")
                if not 0 <= gq <= c.genus:
                    faults.append(f"quotient genus must lie in 0..{c.genus}")
                if dims is not None:  # optional, as the engine reads no split, but checked
                    if len(dims) != n:
                        faults.append(f"expected {n} multiplicities, got {len(dims)}")
                    elif min(dims) < 0:
                        faults.append(f"negative multiplicity in {dims}")
                    elif sum(dims) != c.genus:
                        faults.append(f"explicit char_dims must sum to the genus {c.genus}")
                    elif dims[0] != gq:
                        faults.append(f"explicit char_dims must have quotient genus {gq} at "
                                      "character 0")
                    elif any(m and j % (n // rho) for j, m in enumerate(dims)):
                        faults.append("explicit char_dims supported only on multiples of "
                                      f"{n // rho}")
            if faults:
                where = _where(d, "curves", i)
                out.extend(Violation(where, fault) for fault in faults)
        for i, p in enumerate(rec.points):
            if len(p.type_exponents) != 2:
                out.append(Violation(_where(d, "points", i) + ".type",
                                     f"expected a pair of exponents, got {p.type_exponents!r}"))
                continue
            t1, t2 = p.type_exponents
            if not type(t1) is type(t2) is type(p.orbit_size) is type(p.count) is int:
                _ints(out, _where(d, "points", i), {".type[0]": t1, ".type[1]": t2,
                                                    ".orbit_size": p.orbit_size,
                                                    ".count": p.count})
                continue
            if p.count < 1 or p.orbit_size < 1:
                out.append(Violation(_where(d, "points", i),
                                     "count and orbit_size must be at least 1"))
                continue
            step = n // d
            if step % p.orbit_size:
                out.append(Violation(_where(d, "points", i),
                                     f"point orbit size must divide {step}"))
            if t1 % n == 0 or t2 % n == 0:
                fault = "type exponents must be nonzero (zero means a fixed curve)"
            elif t1 % step or t2 % step:
                fault = f"type exponents must be multiples of {step}"
            elif (t1 + t2) % n != step % n:
                fault = (f"type exponents must sum to {step} mod {n} "
                         "(the subgroup generator scales the period by that character)")
            else:
                continue
            out.append(Violation(_where(d, "points", i), fault))


def validate(cfg: K3Config) -> list[Violation]:
    """Check the structural rules of a configuration; returns findings instead of raising.

    The named constructors and the raw-document parser call this once on
    every configuration they build, and everything downstream trusts the
    result.  Call it on a configuration built by hand before handing that
    to the engine.  An integer field holding a float or a bool is refused.
    """
    out: list[Violation] = []
    _validate_eigenspace(cfg, out)
    _validate_records(cfg, out)
    return out


def _raise_on(violations):
    if violations:
        raise InvariantError(violations)


# ---------------------------------------------------------------------------
# constructors from the named invariants of each order

_POINT_TYPE = {3: (2, 2), 4: (2, 3)}
_POINT_TYPE_6 = {"p25": (2, 5), "p34": (3, 4), "square": (4, 4)}


def _int_args(where, *genera, **kwargs):
    """Refuse any of ``kwargs`` and ``genera`` (named ``genus[i]``) that is not a
    nonnegative int; the names are built only for a failure."""
    values = (*kwargs.values(), *genera)
    if {*map(type, values)} == {int} and min(values) >= 0:
        return
    kwargs.update({f"genus[{i}]": g for i, g in enumerate(genera)})
    bad = [f"{k}={v}" for k, v in kwargs.items()
           if isinstance(v, bool) or not isinstance(v, int) or v < 0]
    if bad:
        raise InvariantError([Violation(where, f"counts and genera must be nonnegative "
                                               f"integers: {', '.join(bad)}")])


def _curves(*specs) -> tuple[CurveOrbit, ...]:
    """Curve orbits of the (count, genus, orbit_size, residual_order, quotient_genus,
    char_dims) specs, trailing defaults left out; zero-count specs are dropped."""
    return tuple([CurveOrbit(*s[1:], count=s[0]) for s in specs if s[0] > 0])


def _points(*specs) -> tuple[PointOrbit, ...]:
    """Point orbits of the (count, type_exponents, orbit_size) specs, as :func:`_curves`."""
    return tuple([PointOrbit(*s[1:], count=s[0]) for s in specs if s[0] > 0])


def from_invariants_order2(r: int, curve_genera) -> K3Config:
    """Order 2: invariant rank r and the genera of the fixed curves."""
    genera = tuple(curve_genera)
    _int_args("order2", *genera, r=r)
    dims = EigenspaceDims(2, (r, K3_H2_DIM - r))
    counts: dict[int, int] = {}
    for g in sorted(genera, reverse=True):  # the dict keeps the genera descending
        counts[g] = counts.get(g, 0) + 1
    curves = _curves(*zip(counts.values(), counts))
    cfg = K3Config(
        2, dims, (SubgroupFixedRecord(2, curves),),
        invariants={"r": r, "curve_genera": list(genera)},
    )
    _raise_on(validate(cfg))
    return cfg


def from_invariants_order3(r: int, m: int, k: int, n_points: int, g_C: int) -> K3Config:
    """Order 3: k fixed curves (top genus g_C) and n isolated fixed points."""
    _int_args("order3", r=r, m=m, k=k, n_points=n_points, g_C=g_C)
    v: list[Violation] = []
    if r + 2 * m != K3_H2_DIM:
        v.append(Violation("order3", f"need r + 2m = {K3_H2_DIM}, got {r} + 2*{m}"))
    if k == 0 and g_C > 0:
        v.append(Violation("order3", "a positive top genus needs at least one curve"))
    if k + n_points == 0:
        v.append(Violation("subgroup[3]", "an order-3 action always has a nonempty fixed locus"))
    _raise_on(v)
    curves = _curves((1 if k else 0, g_C), (max(k - 1, 0), 0))
    points = _points((n_points, _POINT_TYPE[3]))
    cfg = K3Config(
        3, EigenspaceDims(3, (r, m, m)), (SubgroupFixedRecord(3, curves, points),),
        invariants={"r": r, "m": m, "k": k, "n_points": n_points, "g_C": g_C},
    )
    _raise_on(validate(cfg))
    return cfg


def from_invariants_order4(r: int, m: int, k: int, a: int, b: int, n1: int, n2: int,
                           g_D: int, D_type: str) -> K3Config:
    """Order 4 from the standard invariants; D_type is 'first' or 'second'.

    First type: the top curve D of the square's fixed locus is pointwise
    fixed by the full action (so no isolated fixed points lie on it and
    n2 = 0).  Second type: D is invariant but not pointwise fixed; the
    isolated points on D are the fixed points of its residual involution,
    which pins the quotient genus of D to (2 + 2g(D) - n2)/4.
    """
    _int_args("order4", r=r, m=m, k=k, a=a, b=b, n1=n1, n2=n2, g_D=g_D)
    if D_type not in ("first", "second"):
        raise InvariantError([Violation("order4", "D_type must be 'first' or 'second', "
                                                  f"got {D_type!r}")])
    v: list[Violation] = []
    d2 = K3_H2_DIM - r - 2 * m
    if d2 < 0:
        v.append(Violation("order4", f"need r + 2m <= {K3_H2_DIM}"))
    # with h = k - g(D) (first type) or k (second), the isolated points number
    # n1 + n2 = 2h + 4, and b = n1/2 (first) or n1/2 + 1 (second)
    n_points = n1 + n2
    if D_type == "first":
        if k < 1:
            v.append(Violation("order4", "first type needs at least one pointwise-fixed curve"))
        if n2 != 0:
            v.append(Violation("order4", "first type forces n2 = 0"))
        h = k - g_D
        if n_points != 2 * h + 4:
            v.append(Violation("order4", f"first type needs n1 = 2h+4 ({n_points} != 2*{h}+4)"))
        if 2 * b != n_points:
            v.append(Violation("order4", f"first type needs b = n1/2 ({b} != {n_points}/2)"))
    else:
        if b < 1:
            v.append(Violation("order4", "second type needs at least one invariant curve"))
        if n2 % 2:
            v.append(Violation("order4", "n2 must be even"))
        if n2 > 2 + 2 * g_D or (2 + 2 * g_D - n2) % 4:
            v.append(Violation("order4", "the residual involution on D needs "
                                         "n2 <= 2 + 2g(D) and n2 = 2 + 2g(D) mod 4"))
        if n_points != 2 * k + 4:
            v.append(Violation("order4", "second type needs n1+n2 = 2h+4 "
                                         f"({n_points} != 2*{k}+4)"))
        if 2 * (b - 1) != n1:
            v.append(Violation("order4", "second type needs b = n1/2 + 1 "
                                         f"({b} != ({n_points} - {n2})/2 + 1)"))
    _raise_on(v)

    fixed_curves = (_curves((1, g_D), (k - 1, 0)) if D_type == "first"
                    else _curves((k, 0)))
    inv_curves = (_curves((b, 0, 1, 2, 0)) if D_type == "first"
                  else _curves((1, g_D, 1, 2, (2 + 2 * g_D - n2) // 4), (b - 1, 0, 1, 2, 0)))
    rec4 = SubgroupFixedRecord(4, fixed_curves, _points((n1 + n2, _POINT_TYPE[4])))
    rec2 = SubgroupFixedRecord(2, fixed_curves + inv_curves + _curves((a, 0, 2)))
    cfg = K3Config(
        4, EigenspaceDims(4, (r, m, d2, m)), (rec4, rec2),
        invariants={"r": r, "m": m, "k": k, "a": a, "b": b, "n1": n1, "n2": n2,
                    "g_D": g_D, "D_type": D_type},
    )
    _raise_on(validate(cfg))
    return cfg


def from_invariants_order6(r: int, m: int, l: int, k: int, N: int, a: int, b: int,
                           n_prime: int, p25: int, p34: int, g_D: int,
                           g_G: int, g_G_quot: int, g_F1: int, g_F1_quot: int,
                           g_F2: int, g_F2_quot: int) -> K3Config:
    """Order 6 from the standard invariants.

    l, k and N count the curves fixed by the action, by its square and by
    its cube; a and b count the permuted triples and pairs among them; D, G
    and F1, F2 are the top-genus curves of the three fixed loci, with their
    quotient genera under the residual actions.  g(D) = 1 forces D = G = F1
    pointwise fixed.
    """
    _int_args("order6", r=r, m=m, l=l, k=k, N=N, a=a, b=b, n_prime=n_prime,
              p25=p25, p34=p34, g_D=g_D, g_G=g_G, g_G_quot=g_G_quot,
              g_F1=g_F1, g_F1_quot=g_F1_quot, g_F2=g_F2, g_F2_quot=g_F2_quot)
    v: list[Violation] = []
    where = "order6"
    if r + 5 * m != K3_H2_DIM:
        v.append(Violation(where, f"need r + 5m = {K3_H2_DIM}, got {r} + 5*{m}"))
    if g_D not in (0, 1):
        v.append(Violation(where, f"g(D) must be 0 or 1, got {g_D}"))
    c2 = k - l - 2 * b
    c3 = N - l - 3 * a
    if c2 < 0:
        v.append(Violation(where, f"need k >= l + 2b ({k} < {l} + 2*{b})"))
    if c3 < 0:
        v.append(Violation(where, f"need N >= l + 3a ({N} < {l} + 3*{a})"))
    if g_D == 1:
        if l < 1:
            v.append(Violation(where, "g(D) = 1 needs a curve fixed by the full action"))
        if (g_G, g_G_quot, g_F1, g_F1_quot) != (1, 1, 1, 1):
            v.append(Violation(where, "g(D) = 1 forces D = G = F1, all of genus 1 with "
                                      "trivial residual action"))
    else:
        if g_F1 < g_F2:
            v.append(Violation(where, "F1 carries the higher genus"))
    if g_F2 > 0 and (g_F1 != 1 or g_F2 != 1):
        v.append(Violation(where, "two positive-genus curves fixed by an involution "
                                  "are both elliptic"))
    if g_G_quot > g_G or g_F1_quot > g_F1 or g_F2_quot > g_F2:
        v.append(Violation(where, "quotient genera cannot exceed the genera"))
    if g_D == 0 and g_G > 0:
        if c2 < 1:
            v.append(Violation(
                where, "a positive g(G) needs an invariant curve fixed by the square"))
        if 2 + 2 * g_G - 4 * g_G_quot < 0:
            v.append(Violation(where, "no involution realizes this (g(G), g(G/.)) pair"))
    placed_f = []
    if g_D == 0 and g_F1 > 0:
        placed_f.append((g_F1, g_F1_quot))
    if g_F2 > 0:
        placed_f.append((g_F2, g_F2_quot))
    for g, gq in placed_f:
        if 2 + g - 3 * gq < 0:
            v.append(Violation(where, "no residual order-3 action realizes this genus pair"))
    if len(placed_f) > c3:
        v.append(Violation(
            where, "not enough invariant cube-fixed curves to carry the genera"))
    _raise_on(v)

    fixed = _curves((1 if l else 0, g_D), (l - 1 if l else 0, 0))
    ro2 = (_curves((1, g_G, 1, 2, g_G_quot), (c2 - 1, 0, 1, 2, 0)) if g_D == 0 and g_G > 0
           else _curves((c2, 0, 1, 2, 0)))
    ro3 = _curves(*((1, g, 1, 3, gq) for g, gq in placed_f),
                  (c3 - len(placed_f), 0, 1, 3, 0))
    rec6 = SubgroupFixedRecord(6, fixed, _points((p25, _POINT_TYPE_6["p25"]),
                                                 (p34, _POINT_TYPE_6["p34"])))
    rec3 = SubgroupFixedRecord(
        3, fixed + ro2 + _curves((b, 0, 2)),
        _points((p25, _POINT_TYPE_6["square"]), (n_prime, _POINT_TYPE_6["square"], 2)),
    )
    rec2 = SubgroupFixedRecord(2, fixed + ro3 + _curves((a, 0, 3)))
    cfg = K3Config(
        6, EigenspaceDims(6, (r, m, m, m, m, m)), (rec6, rec3, rec2),
        invariants={"r": r, "m": m, "l": l, "k": k, "N": N, "a": a, "b": b,
                    "n_prime": n_prime, "p25": p25, "p34": p34, "g_D": g_D,
                    "g_G": g_G, "g_G_quot": g_G_quot, "g_F1": g_F1,
                    "g_F1_quot": g_F1_quot, "g_F2": g_F2, "g_F2_quot": g_F2_quot},
    )
    _raise_on(validate(cfg))
    return cfg
