"""Closed forms and relations that only the tests use.

They are independent routes to numbers the package computes: the
curve-count form of the order-2 Hodge numbers, the order-4 rank relations
the samplers solve for (r, m), the Calabi-Yau Euler relation, and the
order-6 consistency functional.
"""

from bvhodge.closed_forms import HodgePair


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
