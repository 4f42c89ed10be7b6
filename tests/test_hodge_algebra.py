"""Character vectors, diamonds, invariant pairings and the Kuenneth product."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bvhodge.hodge import (
    BigradedCharacterTable,
    CharacterVector,
    HodgeDiamond,
    ModulusMismatch,
    euler_characteristic,
    invariant_diamond,
    kunneth_character_product,
)

MODULI = (2, 3, 4, 6)


def brute_force_pairing(a, b):
    """Independent oracle: enumerate tensor basis pairs, count character 0."""
    assert a.n == b.n
    total = 0
    for j1 in range(a.n):
        for j2 in range(b.n):
            if (j1 + j2) % a.n == 0:
                total += a.c[j1] * b.c[j2]
    return total


def vectors(n):
    return st.tuples(*[st.integers(0, 6)] * n).map(lambda c: CharacterVector(n, c))


def invariants_of_product(a, b):
    """Invariants of the tensor product: character 0 of the convolution."""
    return a.convolve(b).c[0]


# --- invariant pairing -----------------------------------------------------

def test_pairing_order4_square_sector():
    # elliptic side of the square sector paired with 7 curves, one swapped pair
    a = CharacterVector(4, (3, 0, 1, 0))
    b = CharacterVector(4, (6, 0, 1, 0))
    assert invariants_of_product(a, b) == 3 * 6 + 1 * 1 == 19


def test_pairing_zero_representation():
    for n in MODULI:
        z = CharacterVector.zero(n)
        assert invariants_of_product(z, CharacterVector(n, tuple(range(n)))) == 0


def test_pairing_order6_cube_sector():
    # genus-3 curve with residual order 3, quotient genus 1, paired with the
    # four fixed points (orbits 1 + 3): the invariants are g + g_quot
    a = CharacterVector(6, (2, 0, 1, 0, 1, 0))
    b = CharacterVector(6, (1, 0, 1, 0, 1, 0))
    assert invariants_of_product(a, b) == 4


def test_pairing_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        invariants_of_product(CharacterVector.zero(4), CharacterVector.zero(6))


@given(st.sampled_from(MODULI).flatmap(lambda n: st.tuples(vectors(n), vectors(n))))
def test_pairing_symmetric_and_matches_oracle(pair):
    a, b = pair
    assert invariants_of_product(a, b) == invariants_of_product(b, a)
    assert invariants_of_product(a, b) == brute_force_pairing(a, b)


# --- CharacterVector helpers ----------------------------------------------

def test_orbit_vector_characters_trivial_on_stabilizer():
    v = CharacterVector.orbit(6, 3)
    assert v.c == (1, 0, 1, 0, 1, 0)
    assert v.total() == 3
    with pytest.raises(ValueError):
        CharacterVector.orbit(6, 4)


@given(st.sampled_from(MODULI).flatmap(lambda n: st.tuples(vectors(n), vectors(n))))
def test_convolution_commutes_and_preserves_mass(pair):
    a, b = pair
    assert a.convolve(b) == b.convolve(a)
    assert a.convolve(b).total() == a.total() * b.total()


# --- Kuenneth product ------------------------------------------------------

def k3_table(n, dims):
    """Eigenspace table of a K3 surface with the period in character 1."""
    h11 = list(dims)
    h11[1 % n] -= 1
    h11[(n - 1) % n] -= 1
    return BigradedCharacterTable.from_entries(n, 2, {
        (0, 0): CharacterVector.delta(n, 0),
        (2, 2): CharacterVector.delta(n, 0),
        (2, 0): CharacterVector.delta(n, 1),
        (0, 2): CharacterVector.delta(n, n - 1),
        (1, 1): CharacterVector(n, tuple(h11)),
    })


def e_table(n):
    return BigradedCharacterTable.from_entries(n, 1, {
        (0, 0): CharacterVector.delta(n, 0),
        (1, 1): CharacterVector.delta(n, 0),
        (1, 0): CharacterVector.delta(n, n - 1),
        (0, 1): CharacterVector.delta(n, 1),
    })


def test_kunneth_product_k3_times_e_invariant_11():
    # full K3 x E tables at order 2 with invariant rank 10: the invariant
    # (1,1) part collects the rank plus the elliptic (1,1) class
    product = kunneth_character_product(k3_table(2, (10, 12)), e_table(2))
    assert product.vector(1, 1).c[0] == 11


def test_kunneth_unit_is_one_point_table():
    table = k3_table(4, (10, 4, 4, 4))
    unit = BigradedCharacterTable.one_point(4)
    assert kunneth_character_product(table, unit) == table
    assert kunneth_character_product(unit, table) == table


def test_kunneth_period_times_one_form_is_invariant():
    # (2,0) in character 1 times (1,0) in character n-1 lands in (3,0),
    # character 0: the holomorphic 3-form of the quotient survives
    for n in MODULI:
        dims = (22 - (n - 1) * 2, *([2] * (n - 1)))
        product = kunneth_character_product(k3_table(n, dims), e_table(n))
        vec = product.vector(3, 0)
        assert vec.c[0] == 1
        assert vec.total() == 1


@given(st.sampled_from((2, 3)).flatmap(
    lambda n: st.tuples(st.just(n), *[st.tuples(*[st.integers(0, 2)] * n)] * 3)))
def test_kunneth_associative_on_small_tables(data):
    n, c1, c2, c3 = data
    tables = [
        BigradedCharacterTable.from_entries(n, 1, {
            (0, 0): CharacterVector(n, c),
            (1, 0): CharacterVector.delta(n, i),
        })
        for i, c in enumerate((c1, c2, c3))
    ]
    left = kunneth_character_product(kunneth_character_product(tables[0], tables[1]), tables[2])
    right = kunneth_character_product(tables[0], kunneth_character_product(tables[1], tables[2]))
    assert left == right


def test_kunneth_euler_is_multiplicative():
    s = k3_table(2, (10, 12))
    e = e_table(2)
    product = kunneth_character_product(s, e)
    assert euler_characteristic(s.total_diamond()) == 24
    assert euler_characteristic(e.total_diamond()) == 0
    assert euler_characteristic(product.total_diamond()) == 24 * 0


# --- invariant_diamond -----------------------------------------------------

def test_invariant_diamond_order3_product():
    r, m = 4, 9
    product = kunneth_character_product(k3_table(3, (r, m, m)), e_table(3))
    diamond = invariant_diamond(product)
    assert diamond.entry(1, 1) == r + 1
    assert diamond.entry(2, 1) == m - 1


def test_invariant_diamond_order2_counts_period_term():
    # at order 2 the (2,0) x (0,1) product is invariant and feeds h^{2,1}
    r, m = 9, 13
    product = kunneth_character_product(k3_table(2, (r, m)), e_table(2))
    assert invariant_diamond(product).entry(2, 1) == (m - 2) + 1 == 12


def test_invariant_diamond_of_zero_table_is_zero():
    zero = BigradedCharacterTable.from_entries(4, 2, {})
    assert invariant_diamond(zero) == HodgeDiamond(2, ((0, 0, 0),) * 3)


def test_invariant_diamond_bounded_by_total():
    product = kunneth_character_product(k3_table(6, (2, 4, 4, 4, 4, 4)), e_table(6))
    inv, tot = invariant_diamond(product), product.total_diamond()
    assert all(inv.entry(p, q) <= tot.entry(p, q) for p in range(4) for q in range(4))


# --- euler_characteristic --------------------------------------------------

def test_euler_characteristic_k3():
    k3 = HodgeDiamond(2, ((1, 0, 1), (0, 20, 0), (1, 0, 1)))
    assert euler_characteristic(k3) == 24


def test_euler_characteristic_elliptic_curve():
    e = HodgeDiamond(1, ((1, 1), (1, 1)))
    assert euler_characteristic(e) == 0


def test_euler_characteristic_cy3():
    cy = HodgeDiamond(3, ((1, 0, 0, 1), (0, 51, 9, 0), (0, 9, 51, 0), (1, 0, 0, 1)))
    assert euler_characteristic(cy) == 2 * (51 - 9) == 84


@given(st.integers(0, 4).flatmap(lambda d: st.lists(
    st.lists(st.integers(0, 10 ** 6), min_size=d + 1, max_size=d + 1),
    min_size=d + 1, max_size=d + 1)))
def test_euler_characteristic_is_the_alternating_double_sum(rows):
    d = len(rows) - 1
    assert euler_characteristic(HodgeDiamond(d, rows)) == sum(
        (-1) ** (p + q) * rows[p][q] for p in range(d + 1) for q in range(d + 1))


# --- symmetries -----------------------------------------------------------------

CY = ((1, 0, 0, 1), (0, 51, 9, 0), (0, 9, 51, 0), (1, 0, 0, 1))


def _with(table, cells):
    """``table`` with 1 added at each (p, q) of ``cells``."""
    rows = [list(row) for row in table]
    for p, q in cells:
        rows[p][q] += 1
    return HodgeDiamond(len(rows) - 1, rows)


def test_diamond_symmetries_hold_for_a_calabi_yau_diamond():
    assert HodgeDiamond(3, CY).is_pq_symmetric() and HodgeDiamond(3, CY).is_self_dual()
    both = _with(CY, [(1, 0), (0, 1), (2, 3), (3, 2)])  # symmetric, not a Calabi-Yau frame
    assert both.is_pq_symmetric() and both.is_self_dual()


@pytest.mark.parametrize("cells", [[(2, 1)], [(1, 2)], [(3, 0)], [(1, 0), (3, 2)]])
def test_pq_symmetry_fails_when_one_side_moves(cells):
    assert not _with(CY, cells).is_pq_symmetric()


@pytest.mark.parametrize("cells", [[(1, 1)], [(2, 2)], [(0, 0)], [(1, 0), (0, 1)]])
def test_self_duality_fails_on_a_pq_symmetric_diamond(cells):
    diamond = _with(CY, cells)
    assert diamond.is_pq_symmetric() and not diamond.is_self_dual()


def test_diamond_rejects_negative_entries():
    with pytest.raises(ValueError):
        HodgeDiamond(1, ((0, -1), (0, 0)))


def test_value_types_keep_exact_entries_as_given():
    half = Fraction(1, 2)
    diamond = HodgeDiamond(1, ((half, 0), (0, Fraction(3))))
    assert diamond.entry(0, 0) is half
    assert type(diamond.entry(1, 1)) is Fraction
    vec = CharacterVector(2, (half, 1))
    assert vec.c[0] is half and vec.total() == Fraction(3, 2)


@pytest.mark.parametrize("build", [
    lambda: HodgeDiamond(1, ((0, Fraction(-1, 2)), (0, 0))),
    lambda: HodgeDiamond(1, ((0, 0),)),
    lambda: HodgeDiamond(1, ((0, 0), (0,))),
    lambda: CharacterVector(2, (Fraction(-1, 3), 0)),
    lambda: CharacterVector(3, (1, 2)),
    lambda: CharacterVector(0, ()),
])
def test_value_types_reject_negative_entries_and_wrong_shapes(build):
    with pytest.raises(ValueError):
        build()
