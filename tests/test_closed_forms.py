"""Closed formulas: direct values and coefficient checks.

The formulas trust the named constructors; the ``*_rejects_*`` tests check
that the constructor (or the parser) refuses what a formula would not.
"""

import json
from math import gcd

import pytest

from bvhodge import cli, engine
from bvhodge.closed_forms import (
    HodgePair,
    hodge_order2,
    hodge_order3,
    hodge_order4,
    hodge_order6,
)
from bvhodge.fixed_locus import (
    ELLIPTIC_ORBITS,
    InvariantError,
    from_invariants_order2,
    from_invariants_order3,
    from_invariants_order4,
)
from oracles import (
    EULER_WEIGHTS,
    aas_relations_order4,
    classic_bv,
    corollary_order6,
    cy_euler_relation,
    euler_formula,
)


# --- order 2 -----------------------------------------------------------------

def test_order2_worked_instance():
    assert hodge_order2(9, 13, 2, 3) == HodgePair(18, 24)


def test_order2_empty_fixed_locus():
    assert hodge_order2(10, 12, 0, 0) == HodgePair(11, 11)


def test_order2_self_mirror_instance():
    assert hodge_order2(10, 12, 1, 1) == HodgePair(15, 15)


def test_order2_rejects_bad_ranks():
    with pytest.raises(InvariantError):
        from_invariants_order2(0, [])
    with pytest.raises(InvariantError):
        from_invariants_order2(22, [])


def test_classic_bv_examples():
    assert classic_bv(2, 3) == HodgePair(18, 24)
    assert classic_bv(0, 0) == HodgePair(11, 11)
    assert classic_bv(10, 0) == HodgePair(61, 1)


def test_classic_bv_matches_rank_form():
    # under r = 10 + N - N' the two order-2 formulas are the same function
    for n_curves in range(0, 8):
        for genus_sum in range(0, 10):
            r = 10 + n_curves - genus_sum
            if not 1 <= r <= 21:
                continue
            assert classic_bv(n_curves, genus_sum) == hodge_order2(
                r, 22 - r, n_curves, genus_sum)


# --- order 3 -----------------------------------------------------------------

def test_order3_worked_instance():
    assert hodge_order3(4, 9, 2, 3, 2) == HodgePair(26, 20)


def test_order3_empty_contributions():
    assert hodge_order3(4, 9, 0, 0, 0) == HodgePair(5, 8)


def test_order3_point_coefficient():
    base = hodge_order3(4, 9, 2, 3, 2)
    bumped = hodge_order3(4, 9, 2, 4, 2)
    assert (bumped.h11 - base.h11, bumped.h21 - base.h21) == (3, 0)


def test_order3_rejects_bad_ranks():
    with pytest.raises(InvariantError, match="eigenspace dims must sum to 22"):
        from_invariants_order3(4, 8, 1, 1, 0)


# --- order 4 -----------------------------------------------------------------

def test_order4_worked_first_type():
    pair = hodge_order4(11, 3, 2, 1, 3, 6, 0, 1, "first")
    assert pair == HodgePair(51, 9)


def test_order4_degenerate_first_type():
    # g(D) = 0, k = 1: h = 1, n1 = 6, b = 3, and the rank relations give
    # (r, m) = (10, 4); substituting gives h11 = 1+10+7+9+12 = 39, h21 = 3
    r, m = aas_relations_order4(1, 0, 3, 0, 1)
    assert (r, m) == (10, 4)
    assert hodge_order4(r, m, 1, 0, 3, 6, 0, 0, "first") == HodgePair(39, 3)


def test_order4_second_type_n2_coefficient():
    base = hodge_order4(7, 5, 0, 0, 3, 4, 0, 1, "second")
    moved = hodge_order4(7, 5, 1, 0, 4, 6, 0, 1, "second")
    assert base.h21 == 5 + 2 * 1 - 0
    # raising n2 by 2 (shifting a point onto D) lowers h21 by 1
    other = hodge_order4(7, 5, 0, 0, 2, 2, 2, 1, "second")
    assert other.h21 == base.h21 - 1
    assert moved.h11 - base.h11 == 7 + 3 + 2 * 2  # one more curve everywhere


def test_order4_rejects_odd_n2():
    with pytest.raises(InvariantError, match="n2 must be even"):
        from_invariants_order4(7, 5, 0, 0, 2, 1, 3, 1, "second")


def test_order4_rejects_broken_shape():
    with pytest.raises(InvariantError):
        from_invariants_order4(11, 3, 2, 1, 3, 8, 0, 1, "first")
    with pytest.raises(InvariantError, match="D_type must be"):
        from_invariants_order4(11, 3, 2, 1, 3, 8, 0, 1, "third")


def test_aas_relations_worked():
    assert aas_relations_order4(2, 1, 3, 1, 1) == (11, 3)


def test_aas_relations_degenerate():
    r, m = aas_relations_order4(0, 0, 0, 0, 0)
    assert (r, m) == (6, 6)
    assert r + 2 * m + 4 == 22  # the leftover eigenspace has dimension 4


def test_aas_relations_parity_failure():
    with pytest.raises(ValueError):
        aas_relations_order4(1, 0, 0, 0, 0)


# --- order 6 -----------------------------------------------------------------

def test_order6_elliptic_top_curve():
    pair = hodge_order6(2, 4, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0)
    assert pair == HodgePair(11, 11)
    assert pair.h21 == 4 - 1 + 8


def test_order6_degenerate_all_zero():
    assert hodge_order6(2, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) == HodgePair(3, 3)


def test_order6_point_coefficients():
    base = hodge_order6(2, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    p25 = hodge_order6(2, 4, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    p34 = hodge_order6(2, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
    assert p25.h11 - base.h11 == 3
    assert p34.h11 - base.h11 == 1


# --- Euler utilities -----------------------------------------------------------

def test_euler_formula_order4():
    assert euler_formula(4, (8, 12)) == 84


def test_euler_formula_order2():
    assert euler_formula(2, (-2,)) == -12


def test_euler_formula_order6_coefficients():
    assert euler_formula(6, (1, 0, 0)) == 4
    assert euler_formula(6, (0, 1, 0)) == 4
    assert euler_formula(6, (0, 0, 1)) == 2


def test_euler_weights_are_the_pair_sum_over_every_pair():
    # e = (1/n) * sum over all pairs (j, k) in (Z/n)^2 of e(Fix g^c on S) times the
    # fixed points of g^c on E, c = gcd(j, k, n); e(E) = 0 drops the identity class
    for n, weights in EULER_WEIGHTS.items():
        totals = {}
        for j in range(n):
            for k in range(n):
                c = gcd(j, k, n)
                if c != n:  # g^c generates the subgroup of order n/c
                    totals[c] = totals.get(c, 0) + sum(ELLIPTIC_ORBITS[n][n // c])
        assert all(total % n == 0 for total in totals.values())
        assert tuple(totals[c] // n for c in sorted(totals)) == weights, n
        # the engine's pair sum runs the same weights, derived at import
        assert tuple((c, w // n) for c, w in engine._PAIR_CLASSES[n]) == tuple(
            zip(sorted(totals), weights)), n
    assert EULER_WEIGHTS.keys() == engine._PAIR_CLASSES.keys()


def test_euler_formula_rejects_bad_order_or_arity():
    # the parser refuses an unsupported order before any formula runs
    with pytest.raises(cli.SchemaError, match="unsupported order 5"):
        cli.run_text(json.dumps({"order": 5, "invariants": {}}))
    with pytest.raises(KeyError):
        euler_formula(5, (1,))
    with pytest.raises(ValueError):
        euler_formula(4, (1,))


def test_cy_euler_relation():
    assert cy_euler_relation(51, 84) == 9
    assert cy_euler_relation(7, 0) == 7
    assert cy_euler_relation(18, -12) == 24
    with pytest.raises(ValueError):
        cy_euler_relation(10, 3)


# --- order-6 consistency functional ---------------------------------------------

def test_corollary_all_zero_with_equal_ranks():
    assert corollary_order6(5, 5, 0, 0, 0, 0, 0, 0, 0, 0) == 2


def test_corollary_flags_inconsistent_tuple():
    assert corollary_order6(2, 4, 0, 0, 0, 1, 1, 2, 3, 0) == -4


def test_corollary_consistent_instance():
    # rationals only: l = 3 fixed curves reappearing everywhere, rank 7
    assert corollary_order6(7, 3, 3, 0, 0, 0, 0, 0, 0, 0) == 0
