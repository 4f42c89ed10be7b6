"""Ages, power transport and intersection classes of cyclic actions."""

from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bvhodge.cyclic import age
from oracles import GroupElement, LocalAction, power_transport


def age_is_integral_iff_unimodular(action: LocalAction) -> tuple[bool, bool]:
    """Return (age is an integer, determinant equals 1).

    The two predicates agree for every action; returning both makes the
    equivalence directly testable.
    """
    a = age(action)
    det_is_one = sum(action.exponents) % action.n == 0
    return (a.denominator == 1, det_is_one)


def intersection_class(a: GroupElement, b: GroupElement) -> GroupElement:
    """Class of the subgroup generated by two elements.

    For g = alpha^j and h = alpha^k the fixed sets satisfy
    Fix(g) intersect Fix(h) = Fix(alpha^gcd(j, k, n)), so the pair reduces
    to the single residue gcd(j, k, n) mod n (0 for the identity pair).
    """
    if a.n != b.n:
        raise ValueError(f"modulus mismatch: {a.n} != {b.n}")
    return GroupElement(a.n, gcd(a.j, b.j, a.n) % a.n)


def actions():
    return st.integers(2, 8).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=1, max_size=4).map(
            lambda exps: LocalAction(n, tuple(exps))
        )
    )


# --- age ---------------------------------------------------------------

def test_age_order3_sectors():
    assert age(LocalAction(3, (0, 1, 2))) == 1
    assert age(LocalAction(3, (2, 2, 2))) == 2


def test_age_identity_is_zero():
    assert age(LocalAction(5, (0, 0, 0))) == 0


def test_age_order4_point_sector():
    assert age(LocalAction(4, (2, 3, 3))) == 2


def test_age_can_be_fractional():
    assert age(LocalAction(4, (1, 1))) == Fraction(1, 2)


# --- integrality vs determinant -----------------------------------------

def test_integrality_examples():
    assert age_is_integral_iff_unimodular(LocalAction(6, (1, 4, 1))) == (True, True)
    assert age_is_integral_iff_unimodular(LocalAction(2, (1,))) == (False, False)
    assert age_is_integral_iff_unimodular(LocalAction(4, (1, 1))) == (False, False)


@given(actions())
def test_integrality_iff_unimodular(action):
    integral, unimodular = age_is_integral_iff_unimodular(action)
    assert integral == unimodular
    assert integral == (sum(action.exponents) % action.n == 0)


# --- power transport -----------------------------------------------------

def test_transport_order6_point_matrices():
    # the square-fixed points: squaring the sector exponents halves the age
    assert power_transport(LocalAction(6, (4, 4, 4)), 2) == LocalAction(6, (2, 2, 2))
    assert age(LocalAction(6, (4, 4, 4))) == 2
    assert age(LocalAction(6, (2, 2, 2))) == 1


def test_transport_by_one_is_identity():
    action = LocalAction(6, (1, 2, 3))
    assert power_transport(action, 1) == action


def test_transport_order4_cube_sector():
    moved = power_transport(LocalAction(4, (2, 3)), 3)
    assert moved == LocalAction(4, (2, 1))
    assert age(LocalAction(4, moved.exponents + (1,))) == 1


def test_transport_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        power_transport(LocalAction(4, (1,)), 0)


@given(actions())
def test_sector_and_inverse_ages_add_to_nonzero_count(action):
    inverse = power_transport(action, action.n - 1) if action.n > 1 else action
    nonzero = sum(1 for e in action.exponents if e)
    assert age(action) + age(inverse) == nonzero


# --- intersection classes -------------------------------------------------

def test_intersection_order4_table_entry():
    got = intersection_class(GroupElement(4, 2), GroupElement(4, 1))
    assert got == GroupElement(4, 1)


def test_intersection_identity_pair():
    assert intersection_class(GroupElement(4, 0), GroupElement(4, 0)) == GroupElement(4, 0)


def test_intersection_order6_pair_multiset():
    counts = Counter(
        intersection_class(GroupElement(6, j), GroupElement(6, k)).j
        for j in range(6)
        for k in range(6)
    )
    assert counts == {0: 1, 1: 24, 2: 8, 3: 3}


@given(st.integers(2, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))))
def test_intersection_properties(data):
    n, j, k = data
    a, b = GroupElement(n, j), GroupElement(n, k)
    assert intersection_class(a, b) == intersection_class(b, a)
    assert intersection_class(a, a).j == gcd(j, n) % n
    assert intersection_class(a, GroupElement(n, 0)).j == gcd(j, n) % n
