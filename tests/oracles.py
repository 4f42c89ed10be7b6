"""Closed forms and relations that only the tests use.

They are independent routes to numbers the package computes: the
curve-count form of the order-2 Hodge numbers, the order-4 rank relations
the samplers solve for (r, m), the Calabi-Yau Euler relation, the
order-6 consistency functional, and the eagerly built sector components.
"""

from math import gcd
from operator import mul

from bvhodge import engine
from bvhodge.closed_forms import HodgePair
from bvhodge.fixed_locus import curve_character_dims


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


def eager_sector_components(cfg, j):
    """The component classes of the sector of g^j, built as the engine once built every sector.

    The reference for :attr:`bvhodge.engine.SectorContribution.components`, which
    builds them only when read: each curve pairs its character split with the weights.
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
        components.append(engine.SectorComponent("curve", curve, curve_exponents, 1, entries))
    u = r // gcd(r, n)  # g^r is the u-th power of the generator the point types refer to
    for point in record.points:
        t1, t2 = point.type_exponents
        exponents = (u * t1 % n, u * t2 % n, n - r)
        a, rest = divmod(sum(exponents), n)
        if rest or a not in (1, 2):
            raise ValueError(f"non-crepant local data: point age {sum(exponents)}/{n}, not 1 or 2")
        h0 = point.count * weights[d, point.orbit_size][0]
        components.append(engine.SectorComponent("point", point, exponents, a, ((a, a, h0),)))
    return tuple(components)
