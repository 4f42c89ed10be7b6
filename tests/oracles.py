"""Closed forms, relations and builders that only the tests use.

They are independent routes to numbers the package computes: the
curve-count form of the order-2 Hodge numbers, the order-4 rank relations
the samplers solve for (r, m), the Calabi-Yau Euler relation, the
order-6 consistency functional, the character-0 slice of the Kuenneth
product, the character split of a curve, and the sector components one
by one, whose entries the engine sums straight into each sector's table.
They also build the Kuenneth oracle's inputs (single characters, orbit
characters and grids of character vectors) and the local actions whose
ages :func:`bvhodge.cyclic.age` computes.
"""

from math import gcd
from operator import mul

from bvhodge import engine
from bvhodge.closed_forms import HodgePair
from bvhodge.fixed_locus import CurveOrbit
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
