"""Closed forms, relations and builders that only the tests use.

They are independent routes to numbers the package computes: the
curve-count form of the order-2 Hodge numbers, the order-4 rank relations
the samplers solve for (r, m), the Calabi-Yau Euler relation, the
order-6 consistency functional, the character-0 slice of the Kuenneth
product, the character split of a curve, the Euler number of the fixed set
of a power, the paper's reduced pair-sum formulas in those Euler numbers,
the eigenspace dimensions they imply by the topological Lefschetz formula,
and the sector components one by one, whose entries the engine sums
straight into each sector's table.
They also build the Kuenneth oracle's inputs (single characters, orbit
characters and grids of character vectors) and the local actions whose
ages :func:`bvhodge.cyclic.age` computes, and read a raw document field by
field, the reference for the parser's one-pass read.
"""

from math import gcd
from operator import mul

from bvhodge import cli, engine
from bvhodge.closed_forms import HodgePair
from bvhodge.fixed_locus import (
    CurveOrbit,
    EigenspaceDims,
    K3Config,
    PointOrbit,
    SubgroupFixedRecord,
)
from bvhodge.hodge import CharacterVector, Grid, HodgeDiamond
from bvhodge.record import Record, setfield


def classic_bv(n_curves: int, genus_sum: int) -> HodgePair:
    """Involution quotient in terms of the fixed-curve data alone.

    Implemented as h11 = 11 + 5N - N', h21 = 11 + 5N' - N, the orientation
    that matches :func:`bvhodge.hodge_order2` under the rank relation
    r = 10 + N - N'.  The transposed orientation also circulates; the form
    used here is the one consistent with the eigenspace computation, and
    the agreement is pinned by tests.
    """
    return HodgePair(
        11 + 5 * n_curves - genus_sum,
        11 + 5 * genus_sum - n_curves,
    )


def aas_relations_order4(k: int, a: int, b: int, g_D: int, h: int) -> tuple[int, int]:
    """Rank relations pinning (r, m) to the order-4 fixed-locus counts.

    r = (12 + k + 2a + b - g(D) + 4h)/2 and m = (12 - k - 2a - b + g(D))/2,
    with h the total rational defect of the pointwise-fixed curves.  Both
    numerators must be even and the results nonnegative.
    """
    r_num = 12 + k + 2 * a + b - g_D + 4 * h
    m_num = 12 - k - 2 * a - b + g_D
    if r_num % 2 or m_num % 2:
        raise ValueError(f"parity failure: ({r_num}, {m_num}) must both be even")
    r, m = r_num // 2, m_num // 2
    if r < 0 or m < 0:
        raise ValueError(f"negative rank from the relations: ({r}, {m})")
    return r, m


def cy_euler_relation(h11: int, e: int) -> int:
    """Solve e = 2(h11 - h21) for h21; e must be even."""
    if e % 2:
        raise ValueError(f"Euler characteristic of a Calabi-Yau threefold is even, got {e}")
    return h11 - e // 2


def corollary_order6(r: int, m: int, l: int, b: int, a: int, n_prime: int,
                     p25: int, p34: int, n: int, g_D: int) -> int:
    """Consistency functional of the order-6 invariants.

    Evaluates -m + r + 2 - 2l - 2b - 2a + 3n' + p25 - p34 - 2n + 4g(D).
    It vanishes on invariant tuples for which the cohomological and the
    Euler-characteristic computations of h^{2,1} coincide term by term
    (in particular with g(D) = 0 and residual-action-free top curves);
    a nonzero value flags an inconsistent tuple.
    """
    return (-m + r + 2 - 2 * l - 2 * b - 2 * a + 3 * n_prime
            + p25 - p34 - 2 * n + 4 * g_D)


def pictogram(table) -> str:
    """Diamond-shaped rendering of a square table, row by row as first written.

    The reference for :func:`bvhodge.hodge.pictogram`, which walks each row's
    cells directly and converts each entry once.
    """
    d = len(table) - 1
    width = max(len(str(v)) for row in table for v in row) + 2
    lines = []
    for k in range(2 * d + 1):
        ps = [p for p in range(d, -1, -1) if 0 <= k - p <= d]
        cells = "".join(str(table[p][k - p]).center(width) for p in ps)
        lines.append(cells.center((2 * d + 1) * width).rstrip())
    return "\n".join(lines)


class GroupElement(Record):
    """A residue j mod n, i.e. the j-th power of the fixed generator."""

    __slots__ = ("n", "j")

    def __init__(self, n: int, j: int):
        if n < 1:
            raise ValueError(f"modulus must be at least 1, got {n}")
        setfield(self, "n", n)
        setfield(self, "j", j % n)


class LocalAction(Record):
    """Cotangent exponents of a linearized finite-order action at a point.

    The exponents are reduced mod n; :func:`bvhodge.cyclic.age` reads both fields.
    """

    __slots__ = ("n", "exponents")

    def __init__(self, n: int, exponents: tuple[int, ...]):
        if n < 1:
            raise ValueError(f"modulus must be at least 1, got {n}")
        setfield(self, "n", n)
        setfield(self, "exponents", tuple(int(e) % n for e in exponents))


def power_transport(action: LocalAction, u: int) -> LocalAction:
    """Local action of the u-th power: every exponent is multiplied by u."""
    if u < 1:
        raise ValueError(f"power must be at least 1, got {u}")
    return LocalAction(action.n, tuple((u * e) % action.n for e in action.exponents))


def delta(n: int, j: int) -> CharacterVector:
    """One copy of the single character of index ``j`` of C_n."""
    c = [0] * n
    c[j % n] = 1
    return CharacterVector(n, tuple(c))


def orbit(n: int, size: int) -> CharacterVector:
    """Permutation character of C_n acting on an orbit of ``size`` points.

    The characters that occur are exactly those trivial on the orbit
    stabilizer, i.e. the multiples of n/size, each with multiplicity one.
    """
    if size < 1 or n % size != 0:
        raise ValueError(f"orbit size {size} does not divide {n}")
    step = n // size
    return CharacterVector(n, tuple(int(j % step == 0) for j in range(n)))


def character_grid(n: int, d: int, entries) -> Grid:
    """(d+1) x (d+1) grid of C_n character vectors: ``entries[(p, q)]``, zero elsewhere."""
    grid = [[CharacterVector.zero(n)] * (d + 1) for _ in range(d + 1)]
    for (p, q), vec in entries.items():
        if not (0 <= p <= d and 0 <= q <= d):
            raise ValueError(f"entry ({p},{q}) outside 0..{d}")
        grid[p][q] = vec
    return tuple(map(tuple, grid))


def total_diamond(grid: Grid) -> HodgeDiamond:
    """Forget the characters: per-(p,q) total dimensions."""
    return HodgeDiamond(len(grid) - 1, tuple(tuple(vec.total() for vec in row) for row in grid))


def invariant_diamond(grid: Grid) -> HodgeDiamond:
    """Extract the character-0 multiplicity at every bidegree."""
    return HodgeDiamond(len(grid) - 1, tuple(tuple(vec.c[0] for vec in row) for row in grid))


def curve_character_dims(curve: CurveOrbit, n: int) -> tuple[int, ...]:
    """Character split of H^{1,0} of one member of a validated curve orbit.

    The residual group of order rho embeds into C_n as the subgroup generated
    by the character index n/rho, so the split is reported directly in C_n
    characters: ``char_dims`` when given, else the quotient genus at
    character 0 and the rest spread evenly over the other multiples of n/rho.
    An odd rest under rho = 3 has no even spread; it gets the near-balanced
    one, its extra form at n/3, which the invariant pairing cannot tell from
    any other split of the rest.
    """
    if curve.char_dims is not None:
        return curve.char_dims
    rho, gq = curve.residual_order, curve.quotient_genus
    c = [gq] + [0] * (n - 1)
    if rho > 1:
        even, extra = divmod(curve.genus - gq, rho - 1)
        for t in range(1, rho):
            c[t * n // rho] = even + (t <= extra)
    return tuple(c)


def euler_fixed_set(cfg: K3Config, j: int) -> int:
    """Euler characteristic of the fixed set of the j-th power on S.

    The identity gives the full K3 value 24; otherwise the fixed set is the
    one of the subgroup generated by the power, read off its record: each
    member of a curve orbit adds 2 - 2g, each isolated point 1.  The engine
    reads the same numbers off its walk over each record.
    """
    r = j % cfg.n
    if r == 0:
        return 24
    rec = cfg.record(cfg.n // gcd(r, cfg.n))
    e = 0
    for c in rec.curves:
        e += c.count * c.orbit_size * (2 - 2 * c.genus)
    for p in rec.points:
        e += p.count * p.orbit_size
    return e


#: the paper's reduced pair-sum formulas: order -> weights of e(Fix g^c) for the
#: power classes c = 1, 2, 3 in ascending order
EULER_WEIGHTS = {2: (6,), 3: (8,), 4: (6, 3), 6: (4, 4, 2)}


def euler_formula(order: int, e_values) -> int:
    """Reduced pair-sum Euler characteristic of the resolved quotient.

    ``e_values`` are the Euler characteristics of the fixed sets of the
    power classes of the K3 action, ascending (class 1, then 2, then 3 as
    applicable): 6e1 for order 2, 8e1 for order 3, 6e1 + 3e2 for order 4,
    4e1 + 4e2 + 2e3 for order 6.  The engine's pair sum weighs the same
    classes by weights it derives from the pairs of each.
    """
    return sum(w * e for w, e in zip(EULER_WEIGHTS[order], e_values, strict=True))


#: 2cos(2 pi x / n) for x = 0..n-1, an integer for every supported order
TWO_COS = {2: (2, -2), 3: (2, -1, -1), 4: (2, 0, -2, 0), 6: (2, 1, -1, -2, -1, 1)}


def implied_dims(cfg: K3Config) -> tuple[int, ...]:
    """The eigenspace dimensions of H^2(S) that the fixed loci imply (topological Lefschetz).

    g^j acts on H^2 with trace t_j = e(Fix g^j) - 2, so t_0 = 22, and the characters
    k and -k have equal multiplicity, as H^2 is real: dims[k] is the sum over j of
    t_j * 2cos(2 pi jk/n), divided by 2n.  A sum the division leaves a remainder in
    means no representation has these traces, and raises ``ValueError``.
    """
    n, cos = cfg.n, TWO_COS[cfg.n]
    traces = [euler_fixed_set(cfg, j) - 2 for j in range(n)]
    dims = []
    for k in range(n):
        total = sum(t * cos[j * k % n] for j, t in enumerate(traces))
        if total % (2 * n):
            raise ValueError(f"character {k}: traces {traces} give {total}/{2 * n}")
        dims.append(total // (2 * n))
    return tuple(dims)


def table_of(entries) -> tuple[tuple[int, ...], ...]:
    """4x4 table holding at each (p, q) the sum of the values of the (p, q, value) entries."""
    table = [[0] * 4 for _ in range(4)]
    for p, q, v in entries:
        table[p][q] += v
    return tuple(map(tuple, table))


class SectorComponent(Record):
    """One class of components of a twisted sector, with its local exponents and age.

    ``kind`` is "curve" or "point".  ``entries`` are the (p, q, value) triples
    the class adds to the diamond, ``count`` times over and shifted by the age.
    """

    __slots__ = ("kind", "source", "exponents", "age", "entries")

    def __init__(self, kind, source, exponents, age, entries):
        setfield(self, "kind", kind)
        setfield(self, "source", source)
        setfield(self, "exponents", exponents)
        setfield(self, "age", age)
        setfield(self, "entries", entries)

    @property
    def table(self):
        return table_of(self.entries)


def eager_sector_components(cfg, j):
    """The component classes of the sector of g^j, built as the engine once built every sector.

    Each curve pairs its character split with the weights, each point gets
    its local exponents and age; :func:`bvhodge.engine.sector_contribution`
    sums the same entries straight into its table.
    """
    n = cfg.n
    r = j % n
    d = n // gcd(r, n)
    weights = engine._SECTOR_WEIGHTS[n]
    record = cfg.record(d)
    components = []
    curve_exponents = (0, r, n - r)
    for curve in record.curves:
        w = weights[d, curve.orbit_size]
        forms = curve.count * sum(map(mul, curve_character_dims(curve, n), w))
        h0 = curve.count * w[0]
        entries = ((1, 1, h0), (2, 1, forms), (1, 2, forms), (2, 2, h0))
        components.append(SectorComponent("curve", curve, curve_exponents, 1, entries))
    u = r // gcd(r, n)  # g^r is the u-th power of the generator the point types refer to
    for point in record.points:
        t1, t2 = point.type_exponents
        exponents = (u * t1 % n, u * t2 % n, n - r)
        a, rest = divmod(sum(exponents), n)
        if rest or a not in (1, 2):
            raise ValueError(f"non-crepant local data: point age {sum(exponents)}/{n}, not 1 or 2")
        h0 = point.count * weights[d, point.orbit_size][0]
        components.append(SectorComponent("point", point, exponents, a, ((a, a, h0),)))
    return tuple(components)


def _given_ints(doc: dict, names: tuple, here: str) -> dict:
    """The integer fields ``names`` in ``doc``, in order: the record defaults the rest."""
    return {name: cli._as_int(doc[name], here, "." + name) for name in names
            if name in doc and (doc[name] is not None or name != "quotient_genus")}


def _read_curve(doc, here: str) -> CurveOrbit:
    cli._as_object(doc, cli._CURVE_FIELDS, here)
    char_dims = doc.get("char_dims")
    if char_dims is not None:
        char_dims = tuple(cli._as_int(v, here + ".char_dims", i)
                          for i, v in enumerate(cli._as_list(char_dims, here + ".char_dims")))
    genus = cli._as_int(cli._need(doc, "genus", here), here, ".genus")
    return CurveOrbit(genus, char_dims=char_dims, **_given_ints(
        doc, ("orbit_size", "residual_order", "quotient_genus", "count"), here))


def _read_point(doc, here: str) -> PointOrbit:
    cli._as_object(doc, cli._POINT_FIELDS, here)
    ty = cli._need(doc, "type", here)
    if not isinstance(ty, list) or len(ty) != 2:
        raise cli.SchemaError(f"{here}.type: expected a pair of exponents")
    return PointOrbit((cli._as_int(ty[0], here, ".type[0]"),
                       cli._as_int(ty[1], here, ".type[1]")),
                      **_given_ints(doc, ("orbit_size", "count"), here))


def read_raw_fieldwise(order: int, doc) -> K3Config:
    """The configuration of the ``raw`` object of a document of order ``order``, read
    field by field in document order: each record is built as soon as its fields are
    read, and the first fault raises :class:`bvhodge.cli.SchemaError` naming its field.

    The reference for :func:`bvhodge.cli.parse_config`, which reads a raw document in
    one pass through the shared record factories and walks the fields only to name a
    fault: for every raw document both give equal configurations or the same message.
    """
    cli._as_object(doc, cli._RAW_FIELDS, "raw")
    dims = cli._as_list(cli._need(doc, "eigenspace_dims", "raw"), "raw.eigenspace_dims")
    dims = tuple(cli._as_int(v, "raw.eigenspace_dims", i) for i, v in enumerate(dims))
    if len(dims) != order:
        raise cli.SchemaError(f"raw.eigenspace_dims: expected {order} entries, got {len(dims)}")
    records = []
    for i, sub in enumerate(cli._as_list(doc.get("subgroups", []), "raw.subgroups")):
        here = f"raw.subgroups[{i}]"
        cli._as_object(sub, cli._SUBGROUP_FIELDS, here)
        d = cli._as_int(cli._need(sub, "order", here), here, ".order")
        curves = tuple(_read_curve(c, f"{here}.curves[{j}]") for j, c in
                       enumerate(cli._as_list(sub.get("curves", []), here + ".curves")))
        points = tuple(_read_point(p, f"{here}.points[{j}]") for j, p in
                       enumerate(cli._as_list(sub.get("points", []), here + ".points")))
        records.append(SubgroupFixedRecord(d, curves, points))
    return K3Config(order, EigenspaceDims(order, dims), records)
