"""Closed formulas for the Hodge numbers of the resolved quotients.

One function per order, written directly in the named fixed-locus
invariants, and the reduced pair-sum Euler formulas.  The general engine
must agree with every formula here; that equality is the backbone of the
test suite.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .fixed_locus import K3_H2_DIM
from .record import Record, setfield


class HodgePair(Record):
    """The two interesting Hodge numbers of a Calabi-Yau threefold."""

    __slots__ = ("h11", "h21")

    def __init__(self, h11: int, h21: int):
        setfield(self, "h11", h11)
        setfield(self, "h21", h21)
        if h11 < 0 or h21 < 0:
            raise ValueError("Hodge numbers are nonnegative")


def hodge_order2(r: int, m: int, n_curves: int, genus_sum: int) -> HodgePair:
    """Order 2: N fixed curves with total genus N' give (r+1+4N, m-1+4N')."""
    return HodgePair(r + 1 + 4 * n_curves, m - 1 + 4 * genus_sum)


def hodge_order3(r: int, m: int, k: int, n_points: int, g_C: int) -> HodgePair:
    """Order 3: k fixed curves (top genus g_C) and n isolated points."""
    return HodgePair(r + 1 + 3 * n_points + 6 * k, m - 1 + 6 * g_C)


def hodge_order4(r: int, m: int, k: int, a: int, b: int, n1: int, n2: int,
                 g_D: int, D_type: str) -> HodgePair:
    """Order 4, by the type of the top curve D of the square's fixed locus.

    h11 is the same in both cases; h21 is m - 1 + 7g(D) when D is pointwise
    fixed (first type) and m + 2g(D) - n2/2 when D is merely invariant
    (second type, n2 even).  The counts must satisfy the rules that
    :func:`~bvhodge.fixed_locus.from_invariants_order4` enforces.
    """
    h11 = 1 + r + 7 * k + 3 * b + 2 * (n1 + n2) + 4 * a
    h21 = (m - 1 + 7 * g_D) if D_type == "first" else (m + 2 * g_D - n2 // 2)
    return HodgePair(h11, h21)


def hodge_order6(r: int, m: int, l: int, k: int, N: int, a: int, b: int,
                 n_prime: int, p25: int, p34: int, g_D: int,
                 g_G: int, g_G_quot: int, g_F1: int, g_F1_quot: int,
                 g_F2: int, g_F2_quot: int) -> HodgePair:
    """Order 6, split on whether the top fully-fixed curve D has genus 1 or 0.

    The invariants must satisfy the rules that
    :func:`~bvhodge.fixed_locus.from_invariants_order6` enforces.
    """
    h11 = (r + 1 + 2 * l + 2 * N - 2 * b + 4 * k - 2 * a
           + 3 * n_prime + 3 * p25 + p34)
    if g_D == 1:
        h21 = m - 1 + 8 * g_D + g_F2 + g_F2_quot
    else:
        h21 = (m - 1 + 2 * g_G + 2 * g_G_quot
               + g_F1 + g_F1_quot + g_F2 + g_F2_quot)
    return HodgePair(h11, h21)


#: pair-sum reduction coefficients: order -> weights of e(S^sigma_c) for the
#: power classes c = 1, 2, 3 in ascending order
EULER_WEIGHTS = {
    2: (6,),
    3: (8,),
    4: (6, 3),
    6: (4, 4, 2),
}


def euler_formula(order: int, e_values: Sequence[int]) -> int:
    """Reduced pair-sum Euler characteristic of the resolved quotient.

    ``e_values`` are the Euler characteristics of the fixed sets of the
    power classes of the K3 action, ascending (class 1, then 2, then 3 as
    applicable): 6e1 for order 2, 8e1 for order 3, 6e1 + 3e2 for order 4,
    4e1 + 4e2 + 2e3 for order 6.
    """
    return sum(w * e for w, e in zip(EULER_WEIGHTS[order], e_values, strict=True))


#: the closed forms whose parameters are the named invariants of their order
_FORMS = {3: hodge_order3, 4: hodge_order4, 6: hodge_order6}


def closed_form_pair(order: int, invariants: Mapping) -> HodgePair:
    """Evaluate the closed formula of an order on invariants its named constructor accepted."""
    if order == 2:
        r, genera = invariants["r"], invariants["curve_genera"]
        return hodge_order2(r, K3_H2_DIM - r, len(genera), sum(genera))
    return _FORMS[order](**invariants)
