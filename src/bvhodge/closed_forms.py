"""Closed formulas for the Hodge numbers of the resolved quotients.

One function per order, written directly in the named fixed-locus
invariants, and the reduced pair-sum Euler formulas.  The general engine
must agree with every formula here; that equality is the backbone of the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .fixed_locus import K3_H2_DIM, InvariantError, order4_relations


@dataclass(frozen=True)
class HodgePair:
    """The two interesting Hodge numbers of a Calabi-Yau threefold."""

    h11: int
    h21: int

    def __post_init__(self):
        if self.h11 < 0 or self.h21 < 0:
            raise ValueError("Hodge numbers are nonnegative")


def hodge_order2(r: int, m: int, n_curves: int, genus_sum: int) -> HodgePair:
    """Order 2: N fixed curves with total genus N' give (r+1+4N, m-1+4N')."""
    if r + m != K3_H2_DIM or r < 1 or m < 1:
        raise ValueError(f"need r + m = {K3_H2_DIM} with both positive, got ({r}, {m})")
    return HodgePair(r + 1 + 4 * n_curves, m - 1 + 4 * genus_sum)


def hodge_order3(r: int, m: int, k: int, n_points: int, g_C: int) -> HodgePair:
    """Order 3: k fixed curves (top genus g_C) and n isolated points."""
    if r + 2 * m != K3_H2_DIM:
        raise ValueError(f"need r + 2m = {K3_H2_DIM}, got {r} + 2*{m}")
    return HodgePair(r + 1 + 3 * n_points + 6 * k, m - 1 + 6 * g_C)


def hodge_order4(r: int, m: int, k: int, a: int, b: int, n1: int, n2: int,
                 g_D: int, D_type: str) -> HodgePair:
    """Order 4, by the type of the top curve D of the square's fixed locus.

    h11 is the same in both cases; h21 is m - 1 + 7g(D) when D is pointwise
    fixed (first type) and m + 2g(D) - n2/2 when D is merely invariant
    (second type, n2 even).  The counts must satisfy
    :func:`~bvhodge.fixed_locus.order4_relations`.
    """
    if D_type not in ("first", "second"):
        raise ValueError(f"D_type must be 'first' or 'second', got {D_type!r}")
    violations = order4_relations(k, b, n1, n2, g_D, D_type)
    if violations:
        raise InvariantError(violations)
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
    if order not in EULER_WEIGHTS:
        raise ValueError(f"unsupported order {order}")
    weights = EULER_WEIGHTS[order]
    if len(e_values) != len(weights):
        raise ValueError(f"order {order} needs {len(weights)} Euler values")
    return sum(w * e for w, e in zip(weights, e_values))


def closed_form_pair(order: int, invariants: Mapping) -> HodgePair:
    """Evaluate the closed formula of the given order on named invariants."""
    inv = dict(invariants)
    if order == 2:
        genera = inv["curve_genera"]
        return hodge_order2(inv["r"], K3_H2_DIM - inv["r"], len(genera), sum(genera))
    if order == 3:
        return hodge_order3(inv["r"], inv["m"], inv["k"], inv["n_points"], inv["g_C"])
    if order == 4:
        return hodge_order4(inv["r"], inv["m"], inv["k"], inv["a"], inv["b"],
                            inv["n1"], inv["n2"], inv["g_D"], inv["D_type"])
    if order == 6:
        return hodge_order6(inv["r"], inv["m"], inv["l"], inv["k"], inv["N"],
                            inv["a"], inv["b"], inv["n_prime"], inv["p25"],
                            inv["p34"], inv["g_D"], inv["g_G"], inv["g_G_quot"],
                            inv["g_F1"], inv["g_F1_quot"], inv["g_F2"],
                            inv["g_F2_quot"])
    raise ValueError(f"unsupported order {order}")
