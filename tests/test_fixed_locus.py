"""Elliptic orbits, validation, Euler characteristics and the named constructors."""

import json
import re
import sys
import threading
from enum import IntEnum
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bvhodge import (
    CurveOrbit,
    EigenspaceDims,
    InvariantError,
    K3Config,
    PointOrbit,
    SubgroupFixedRecord,
    from_invariants_order2,
    from_invariants_order3,
    from_invariants_order4,
    from_invariants_order6,
    validate,
)
from bvhodge import cli, fixed_locus
from bvhodge.cli import EXIT_INVALID, run_text
from bvhodge.engine import _SECTOR_WEIGHTS
from bvhodge.fixed_locus import ELLIPTIC_ORBITS, SUPPORTED_ORDERS
from bvhodge.hodge import CharacterVector
from generators import raw_form, samples
from oracles import curve_character_dims, delta, euler_fixed_set, implied_dims, orbit


def curves_in(record):
    """Fixed curves of a subgroup record, every member of every orbit counted."""
    return sum(c.count * c.orbit_size for c in record.curves)


WORKED_ORDER4 = dict(r=11, m=3, k=2, a=1, b=3, n1=6, n2=0, g_D=1, D_type="first")
CONSTRUCTORS = {2: from_invariants_order2, 3: from_invariants_order3,
                4: from_invariants_order4, 6: from_invariants_order6}


# --- elliptic orbits ---------------------------------------------------------

def test_fixture_point_counts():
    counts = {(n, d): sum(sizes) for n in ELLIPTIC_ORBITS
              for d, sizes in ELLIPTIC_ORBITS[n].items()}
    assert counts == {(2, 2): 4, (3, 3): 3, (4, 4): 2, (4, 2): 4,
                      (6, 6): 1, (6, 3): 3, (6, 2): 4}


def test_fixture_orbit_structures():
    assert ELLIPTIC_ORBITS[4][2] == (1, 1, 2)
    assert ELLIPTIC_ORBITS[6][3] == (1, 2)
    assert ELLIPTIC_ORBITS[6][2] == (1, 3)


def elliptic_characters(n, d):
    """Oracle: permutation character of C_n on the fixed points of the order-d subgroup."""
    vec = CharacterVector.zero(n)
    for size in ELLIPTIC_ORBITS[n][d]:
        vec = vec + orbit(n, size)
    return vec


def test_fixture_character_vectors():
    assert elliptic_characters(2, 2) == CharacterVector(2, (4, 0))
    assert elliptic_characters(4, 2) == CharacterVector(4, (3, 0, 1, 0))
    assert elliptic_characters(6, 2) == CharacterVector(6, (2, 0, 1, 0, 1, 0))
    assert elliptic_characters(6, 3) == CharacterVector(6, (2, 0, 0, 1, 0, 0))


def test_fixture_character_totals_match_point_counts():
    for n in SUPPORTED_ORDERS:
        for d, sizes in ELLIPTIC_ORBITS[n].items():
            vec = elliptic_characters(n, d)
            assert vec.total() == sum(sizes)
            # one character per orbit at each multiple of n/size
            for size in sizes:
                assert all(vec.c[t * (n // size)] >= 1 for t in range(size))


def test_sector_weights_match_the_character_oracle():
    # w[j] is character 0 of (orbit of s members) x (character j) x (E's fixed points)
    for n in SUPPORTED_ORDERS:
        assert {d for d, _ in _SECTOR_WEIGHTS[n]} == set(ELLIPTIC_ORBITS[n])
        for (d, s), w in _SECTOR_WEIGHTS[n].items():
            for j in range(n):
                product = orbit(n, s).convolve(delta(n, j)).convolve(elliptic_characters(n, d))
                assert w[j] == product.c[0], (n, d, s, j)


def test_elliptic_orbits_cover_the_supported_orders():
    assert set(ELLIPTIC_ORBITS) == set(SUPPORTED_ORDERS)
    for n, table in ELLIPTIC_ORBITS.items():
        # one entry per subgroup of order d > 1, orbit sizes dividing n
        assert set(table) == {d for d in range(2, n + 1) if n % d == 0}
        assert all(n % size == 0 for sizes in table.values() for size in sizes)


# --- validation --------------------------------------------------------------

def test_validate_eigenspace_sum():
    cfg = K3Config(2, EigenspaceDims(2, (9, 12)), (SubgroupFixedRecord(2),))
    messages = [str(v) for v in validate(cfg)]
    assert any("sum to 22" in m for m in messages)


def test_validate_conjugate_symmetry():
    cfg = K3Config(4, EigenspaceDims(4, (10, 5, 4, 3)), ())
    assert any("conjugate symmetry" in str(v) for v in validate(cfg))


def test_validate_point_type_congruence():
    rec = SubgroupFixedRecord(4, points=(PointOrbit((1, 3)),))
    cfg = K3Config(4, EigenspaceDims(4, (12, 3, 4, 3)), (rec,))
    assert any("sum to" in str(v) for v in validate(cfg))


def _odd_order3_curve_config(char_dims):
    """Order 6 with one genus-2 curve of residual order 3 and quotient genus 1."""
    curve = CurveOrbit(genus=2, residual_order=3, quotient_genus=1, char_dims=char_dims)
    return K3Config(6, EigenspaceDims(6, (2, 4, 4, 4, 4, 4)),
                    (SubgroupFixedRecord(2, (curve,)),))


@pytest.mark.parametrize("char_dims, message", [
    ((1, 0, 1, 0, 0), "expected 6 multiplicities, got 5"),
    ((1, 0, 2, 0, -1, 0), "negative multiplicity in (1, 0, 2, 0, -1, 0)"),
    ((1, 0, 2, 0, 0, 0), "explicit char_dims must sum to the genus 2"),
    ((0, 0, 1, 0, 1, 0), "explicit char_dims must have quotient genus 1 at character 0"),
    ((1, 1, 0, 0, 0, 0), "explicit char_dims supported only on multiples of 2"),
])
def test_validate_explicit_char_dims_rules(char_dims, message):
    assert [str(v) for v in validate(_odd_order3_curve_config(char_dims))] == [
        f"error: subgroup[2].curves[0]: {message}"]
    # the same rule refuses the same record as a raw document
    curve = {"genus": 2, "residual_order": 3, "quotient_genus": 1, "char_dims": list(char_dims)}
    doc = {"order": 6, "raw": {"eigenspace_dims": [2, 4, 4, 4, 4, 4],
                               "subgroups": [{"order": 2, "curves": [curve]}]}}
    for fmt in ("text", "json"):
        rendered, code = run_text(json.dumps(doc), fmt=fmt)
        assert code == EXIT_INVALID
        assert message in rendered


@pytest.mark.parametrize("bad", [1.0, True])
@pytest.mark.parametrize("j", [0, 2])
def test_validate_names_a_char_dim_that_is_not_an_int(bad, j):
    # all-int char_dims take the quick test; any other entry still gets its own path
    dims = [1, 0, 1, 0, 0, 0]
    dims[j] = bad
    (violation,) = validate(_odd_order3_curve_config(tuple(dims)))
    assert violation.where == f"subgroup[2].curves[0].char_dims[{j}]"
    assert violation.message == f"expected an integer, got {bad!r}"


def test_validate_refuses_point_type_of_wrong_arity():
    # a hand-built point orbit may hold any number of exponents; validate names
    # the field instead of failing to unpack it
    for exponents in ((2, 2, 2), ()):
        rec = SubgroupFixedRecord(3, points=(PointOrbit(exponents),))
        cfg = K3Config(3, EigenspaceDims(3, (4, 9, 9)), (rec,))
        assert [str(v) for v in validate(cfg)] == [
            "error: subgroup[3].points[0].type: expected a pair of exponents, "
            f"got {exponents!r}"]


def test_validate_is_structural_only():
    # shape relations of the named invariants bind the constructors, not raw
    # records: an empty order-3 locus and a genus-2 curve fixed by an order-6
    # action are structurally valid and go to the engine
    empty3 = K3Config(3, EigenspaceDims(3, (4, 9, 9)), (SubgroupFixedRecord(3),))
    assert validate(empty3) == []
    cfg = from_invariants_order6(r=2, m=4, l=1, k=1, N=1, a=0, b=0, n_prime=0,
                                 p25=0, p34=0, g_D=1, g_G=1, g_G_quot=1,
                                 g_F1=1, g_F1_quot=1, g_F2=0, g_F2_quot=0)
    genus2 = K3Config(6, cfg.eigenspace, (
        SubgroupFixedRecord(6, (CurveOrbit(genus=2),)),
        cfg.records[1], cfg.records[2],
    ))
    assert validate(genus2) == []


def test_validate_refuses_non_integer_fields():
    # a hand-built configuration keeps what it is given, and validate names each
    # field that is not an int instead of rounding it or letting a float through
    dims2, dims3 = EigenspaceDims(2, (10, 12)), EigenspaceDims(3, (4, 9, 9))
    cases = [
        (K3Config(2, dims2, (SubgroupFixedRecord(2, (CurveOrbit(genus=1.5),)),)),
         ["subgroup[2].curves[0].genus", "subgroup[2].curves[0].quotient_genus"]),
        (K3Config(3, dims3, (SubgroupFixedRecord(3, points=(PointOrbit((2.9, 2)),)),)),
         ["subgroup[3].points[0].type[0]"]),
        (K3Config(2, EigenspaceDims(2, (10.7, 11.9)), ()),
         ["eigenspace_dims[0]", "eigenspace_dims[1]"]),
        (K3Config(2, dims2, (SubgroupFixedRecord(2, (CurveOrbit(genus=1, count=True),)),)),
         ["subgroup[2].curves[0].count"]),
        (K3Config(2, dims2, (SubgroupFixedRecord(2, (CurveOrbit(1, char_dims=(1.0, 0)),)),)),
         ["subgroup[2].curves[0].char_dims[0]"]),
        (K3Config(4, EigenspaceDims(4, (12, 3, 4, 3)), (SubgroupFixedRecord(2, (
            CurveOrbit(genus=1, residual_order=2, quotient_genus=0.0),)),)),
         ["subgroup[2].curves[0].quotient_genus"]),
        (K3Config(2, dims2, (SubgroupFixedRecord(2.0),)), ["subgroup[2.0].order"]),
    ]
    for cfg, fields in cases:
        assert [v.where for v in validate(cfg)] == fields
        assert all("expected an integer" in v.message for v in validate(cfg))
    assert cases[1][0].records[0].points[0].type_exponents == (2.9, 2)
    assert cases[2][0].eigenspace.dims == (10.7, 11.9)
    with pytest.raises(ValueError, match="unsupported order 2.0"):
        K3Config(2.0, dims2, ())


def test_validate_names_each_finding_at_its_own_index():
    # one configuration failing in several records, at nonzero indices: every
    # finding names its own item, in the order validate meets them
    eigenspace = EigenspaceDims(6, (2, 4, 3, 4, 5, 4))
    rec6 = SubgroupFixedRecord(6, (CurveOrbit(genus=1),),
                               (PointOrbit((2, 5)), PointOrbit((2, 5, 1))))
    rec3 = SubgroupFixedRecord(3, (CurveOrbit(genus=0),
                                   CurveOrbit(genus=0, residual_order=2, quotient_genus=0),
                                   CurveOrbit(genus=0, residual_order=4, quotient_genus=0)),
                               (PointOrbit((4, 4)), PointOrbit((4, 4), orbit_size=3)))
    rec2 = SubgroupFixedRecord(2, (CurveOrbit(genus=0), CurveOrbit(genus=2, quotient_genus=3),
                                   CurveOrbit(genus=1.5)))
    cfg = K3Config(6, eigenspace, (rec6, rec3, rec2))
    assert [(v.where, v.message) for v in validate(cfg)] == [
        ("eigenspace_dims", "conjugate symmetry fails: d[2] != d[4]"),
        ("subgroup[6].points[1].type", "expected a pair of exponents, got (2, 5, 1)"),
        ("subgroup[3].curves[2]", "residual order 4 not supported (1, 2 or 3)"),
        ("subgroup[3].points[1]", "point orbit size must divide 2"),
        ("subgroup[2].curves[1]", "a pointwise-fixed curve has quotient genus equal to its genus"),
        ("subgroup[2].curves[1]", "quotient genus must lie in 0..2"),
        ("subgroup[2].curves[2].genus", "expected an integer, got 1.5"),
        ("subgroup[2].curves[2].quotient_genus", "expected an integer, got 1.5"),
    ]


def test_validate_orbit_size_divisibility():
    rec = SubgroupFixedRecord(2, curves=(CurveOrbit(genus=0, orbit_size=3),))
    cfg = K3Config(4, EigenspaceDims(4, (12, 3, 4, 3)), (rec,))
    assert any("divisor" in str(v) for v in validate(cfg))


# --- euler_fixed_set ---------------------------------------------------------

def test_euler_fixed_set_worked_order4():
    cfg = from_invariants_order4(**WORKED_ORDER4)
    assert euler_fixed_set(cfg, 1) == 8    # genus-1 curve + rational + 6 points
    assert euler_fixed_set(cfg, 2) == 12   # 2 - 2g(D) + 2(N - 1) with N = 7
    assert euler_fixed_set(cfg, 0) == 24


def test_euler_fixed_set_empty_record():
    cfg = from_invariants_order2(10, [])
    assert euler_fixed_set(cfg, 1) == 0


def test_euler_fixed_set_depends_only_on_gcd():
    cfg = from_invariants_order6(r=2, m=4, l=1, k=1, N=1, a=0, b=0, n_prime=0,
                                 p25=0, p34=0, g_D=1, g_G=1, g_G_quot=1,
                                 g_F1=1, g_F1_quot=1, g_F2=0, g_F2_quot=0)
    for j in range(6):
        assert euler_fixed_set(cfg, j) == euler_fixed_set(cfg, gcd(j, 6))


# --- implied_dims (topological Lefschetz) -------------------------------------

def test_implied_dims_pins_two_tuples_whose_fixed_loci_imply_other_dims():
    # every sample implies its own dims (tests/generators.py asserts it); the bundled
    # inconsistent fixture exits 3, and the order-4 tuple exits 0 with every check passing
    fixture = cli.parse_config(json.loads(cli.load_fixture_text("order3_inconsistent")))
    assert (fixture.eigenspace.dims, implied_dims(fixture)) == ((4, 9, 9), (8, 7, 7))
    cfg = from_invariants_order4(r=1, m=1, k=1, a=1, b=1, n1=2, n2=0, g_D=2, D_type="first")
    assert (cfg.eigenspace.dims, implied_dims(cfg)) == ((1, 1, 19, 1), (5, 5, 7, 5))
    assert implied_dims(from_invariants_order4(**WORKED_ORDER4)) == (11, 3, 5, 3)


def test_implied_dims_refuses_traces_no_representation_has():
    # one isolated point of an involution: the traces 22 and -1 give dims[0] = 21/2
    cfg = K3Config(2, EigenspaceDims(2, (10, 12)),
                   (SubgroupFixedRecord(2, points=(PointOrbit((1, 1)),)),))
    with pytest.raises(ValueError, match=r"character 0: traces \[22, -1\] give 42/4"):
        implied_dims(cfg)


# --- curve_character_dims -----------------------------------------------------

def test_curve_dims_pointwise_fixed():
    assert curve_character_dims(CurveOrbit(genus=1), 4) == (1, 0, 0, 0)


def test_curve_dims_rational_is_zero():
    curve = CurveOrbit(genus=0, residual_order=2, quotient_genus=0)
    assert curve_character_dims(curve, 4) == (0, 0, 0, 0)


def test_curve_dims_balanced_order3_split():
    curve = CurveOrbit(genus=3, residual_order=3, quotient_genus=1)
    assert curve_character_dims(curve, 6) == (1, 0, 1, 0, 1, 0)


def test_curve_dims_odd_order3_split():
    # an odd rest gets the near-balanced split, its extra form at n/3; an explicit
    # split is used as given
    odd = CurveOrbit(genus=2, residual_order=3, quotient_genus=1)
    assert curve_character_dims(odd, 6) == (1, 0, 1, 0, 0, 0)
    explicit = CurveOrbit(genus=2, residual_order=3, quotient_genus=1,
                          char_dims=(1, 0, 0, 0, 1, 0))
    assert curve_character_dims(explicit, 6) == (1, 0, 0, 0, 1, 0)


def test_curve_dims_unsupported_residual_order():
    curve = CurveOrbit(genus=1, residual_order=4, quotient_genus=0)
    cfg = K3Config(4, EigenspaceDims(4, (12, 3, 4, 3)), (SubgroupFixedRecord(2, (curve,)),))
    assert [str(v) for v in validate(cfg)] == [
        "error: subgroup[2].curves[0]: residual order 4 not supported (1, 2 or 3)"]


@given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from((1, 2, 3))))
def test_curve_dims_total_and_invariant_part(data):
    g_extra, gq, rho = data
    if rho == 1:
        g, gq = gq, gq  # a pointwise-fixed curve keeps its full genus
    else:
        g = gq + g_extra  # an odd rest under rho = 3 included
    curve = CurveOrbit(genus=g, residual_order=rho, quotient_genus=gq)
    dims = curve_character_dims(curve, 6)
    assert len(dims) == 6
    assert sum(dims) == g
    assert dims[0] == gq


# --- constructors --------------------------------------------------------------

def test_order2_constructor_shapes():
    cfg = from_invariants_order2(9, [3, 0])
    assert cfg.eigenspace.dims == (9, 13)
    record = cfg.record(2)
    assert curves_in(record) == 2
    assert sum(c.genus * c.count for c in record.curves) == 3


def test_order2_constructor_rejects_bad_rank():
    with pytest.raises(InvariantError):
        from_invariants_order2(0, [1])
    with pytest.raises(InvariantError):
        from_invariants_order2(21, [])  # d[1] would drop below 2


@pytest.mark.parametrize("genera", [[2.7], [True], [2.7, True]])
def test_order2_constructor_rejects_non_integer_genera(genera):
    # neither a float nor a bool is coerced to an integer genus
    with pytest.raises(InvariantError, match="genus"):
        from_invariants_order2(r=10, curve_genera=genera)


def test_order3_constructor_rejects_empty_fixed_locus():
    with pytest.raises(InvariantError):
        from_invariants_order3(4, 9, 0, 0, 0)


@pytest.mark.parametrize("order, invariants, fix, relations", [
    (3, dict(r=0, m=11, k=0, n_points=0, g_C=0), {"n_points": 1},
     ["subgroup[3]: an order-3 action always has a nonempty fixed locus"]),
    (4, dict(WORKED_ORDER4, r=0, n1=8), {"n1": 6},
     ["order4: first type needs n1 = 2h+4 (8 != 2*1+4)",
      "order4: first type needs b = n1/2 (3 != 8/2)"]),
])
def test_constructors_name_a_broken_relation_before_a_structural_rule(
        order, invariants, fix, relations):
    # r = 0 leaves d[0] = 0, which validate refuses once the relation holds; a
    # constructor raises its relations before it builds anything for validate
    assert _violations(order, invariants) == relations
    assert _violations(order, dict(invariants, **fix)) == [
        "eigenspace_dims: invariant part d[0] must be at least 1"]


def _violations(order, invariants) -> list[str]:
    """The violations ``run_text`` lists for a named document that must exit 2."""
    rendered, code = run_text(json.dumps({"order": order, "invariants": invariants}))
    assert code == EXIT_INVALID
    return [line[len("  error: "):] for line in rendered.splitlines()
            if line.startswith("  error: ")]


def _fixture_invariants(name):
    return json.loads(cli.load_fixture_text(name))["invariants"]


ORDER4_SECOND = dict(r=7, m=5, k=0, a=0, b=3, n1=4, n2=0, g_D=1, D_type="second")
ORDER6_F1 = dict(r=2, m=4, l=0, k=1, N=1, a=0, b=0, n_prime=0, p25=0, p34=0, g_D=0,
                 g_G=1, g_G_quot=1, g_F1=1, g_F1_quot=1, g_F2=0, g_F2_quot=0)
ORDER6_ELLIPTIC = _fixture_invariants("order6_elliptic_top_curve")


@pytest.mark.parametrize("order, base, change, relations", [
    (3, _fixture_invariants("order3_curve_and_point"), {"k": 0},
     ["order3: a positive top genus needs at least one curve"]),
    (4, _fixture_invariants("order4_first_type"), {"n1": 4, "n2": 2},
     ["order4: first type forces n2 = 0"]),
    (4, ORDER4_SECOND, {"b": 0},
     ["order4: second type needs b = n1/2 + 1 (0 != (4 - 0)/2 + 1)"]),
    (4, ORDER4_SECOND, {"n1": 2, "n2": 2, "b": 2},
     ["order4: the residual involution on D needs n2 <= 2 + 2g(D) and n2 = 2 + 2g(D) mod 4"]),
    (6, ORDER6_F1, {"g_F1": 0, "g_F1_quot": 0, "g_F2": 1, "g_F2_quot": 1},
     ["order6: two positive-genus curves fixed by an involution are both elliptic"]),
    (6, ORDER6_ELLIPTIC, {"g_F2": 2, "N": 2},
     ["order6: two positive-genus curves fixed by an involution are both elliptic"]),
    (6, ORDER6_ELLIPTIC, {"g_F2_quot": 1},
     ["order6: quotient genera cannot exceed the genera"]),
    (6, ORDER6_ELLIPTIC, {"g_F2": 1, "g_F2_quot": 1},
     ["order6: not enough invariant cube-fixed curves to carry the genera"]),
], ids=["positive-top-genus", "first-type-n2", "second-type-b", "residual-involution",
        "lower-genus-F1", "both-elliptic", "quotient-genera", "cube-fixed-curves"])
def test_each_constructor_relation_has_a_tuple_that_breaks_it(order, base, change, relations):
    # the base tuple is consistent and the change breaks the relation alone; b = 0 and an
    # F1 of lower genus than F2 are refused by one relation each, b = n1/2 + 1 with n1 >= 0
    # and "both elliptic"
    assert run_text(json.dumps({"order": order, "invariants": base}))[1] == 0
    assert _violations(order, dict(base, **change)) == relations


def test_order4_constructor_nesting():
    cfg = from_invariants_order4(**WORKED_ORDER4)
    rec4, rec2 = cfg.record(4), cfg.record(2)
    assert curves_in(rec4) == 2
    assert sum(p.count * p.orbit_size for p in rec4.points) == 6
    assert curves_in(rec2) == 2 + 3 + 2  # k + b + 2a
    assert sum(p.count * p.orbit_size for p in rec2.points) == 0


def test_order4_constructor_rejects_broken_relations():
    for field, value in (("n1", 8), ("b", 2), ("k", 3), ("n2", 2)):
        bad = dict(WORKED_ORDER4, **{field: value})
        with pytest.raises(InvariantError):
            from_invariants_order4(**bad)


def test_order4_second_type_pins_quotient_genus():
    cfg = from_invariants_order4(r=7, m=5, k=0, a=0, b=3, n1=4, n2=0,
                                 g_D=1, D_type="second")
    invariant = [c for c in cfg.record(2).curves if c.residual_order == 2 and c.genus == 1]
    assert invariant and invariant[0].quotient_genus == 1


def test_order6_constructor_shapes():
    cfg = from_invariants_order6(r=7, m=3, l=1, k=2, N=3, a=0, b=0, n_prime=0,
                                 p25=4, p34=0, g_D=0, g_G=1, g_G_quot=1,
                                 g_F1=0, g_F1_quot=0, g_F2=0, g_F2_quot=0)
    assert curves_in(cfg.record(6)) == 1
    assert curves_in(cfg.record(3)) == 2
    assert curves_in(cfg.record(2)) == 3
    assert sum(p.count * p.orbit_size for p in cfg.record(3).points) == 4


def test_order6_constructor_rejects_top_genus_two():
    with pytest.raises(InvariantError):
        from_invariants_order6(r=2, m=4, l=1, k=1, N=1, a=0, b=0, n_prime=0,
                               p25=0, p34=0, g_D=2, g_G=1, g_G_quot=1,
                               g_F1=1, g_F1_quot=1, g_F2=0, g_F2_quot=0)


def _bad_invariants():
    """(order, invariants with one integer replaced, the key=value the error names)."""
    for n in SUPPORTED_ORDERS:
        base = samples(n, 1, seed=31)[0].invariants
        for key, value in base.items():
            if key == "curve_genera":
                for i in range(len(value)):
                    for bad in (-1, True):
                        genera = value[:i] + [bad] + value[i + 1:]
                        yield n, dict(base, curve_genera=genera), f"genus[{i}]={bad}"
            elif key != "D_type":
                for bad in (-1, True):
                    yield n, dict(base, **{key: bad}), f"{key}={bad}"


BAD_INVARIANTS = list(_bad_invariants())


def test_constructors_name_every_negative_or_bool_invariant(tmp_path, capsys):
    # the early argument check is the only one that sees them: _curves and _points drop
    # a spec whose count is not positive, so a count of -1 would vanish from the records
    assert len(BAD_INVARIANTS) == 2 * (4 + 5 + 8 + 17)  # every integer; D_type is a string
    doc = tmp_path / "doc.json"
    for n, invariants, named in BAD_INVARIANTS:
        with pytest.raises(InvariantError, match=re.escape(named)):
            CONSTRUCTORS[n](**invariants)
        if "True" in named:  # a JSON boolean is a schema error, exit 1, before any constructor
            continue
        doc.write_text(json.dumps({"order": n, "invariants": invariants}), encoding="utf-8")
        assert cli.main(["--input", str(doc)]) == EXIT_INVALID, named
        assert named in capsys.readouterr().out


# --- the constructors share equal frozen records ------------------------------------

RECORD_CACHES = (fixed_locus._curve, fixed_locus._point, fixed_locus._dims)


def _assert_each_record_built_once(monkeypatch, build, inputs):
    """Clear the record caches, call ``build`` on each input, and check that no two
    curve orbits, point orbits or eigenspace splits it built are equal."""
    built = {cls: [] for cls in (CurveOrbit, PointOrbit, EigenspaceDims)}
    for cls, records in built.items():
        def counting(self, *args, _init=cls.__init__, _records=records, **kwargs):
            _init(self, *args, **kwargs)
            _records.append(self)

        monkeypatch.setattr(cls, "__init__", counting)
    for cache in RECORD_CACHES:
        cache.cache_clear()
    for args in inputs:
        build(*args)
    for cls, records in built.items():
        assert 10 < len(records) == len(set(records)), cls.__name__


def _terse(raw: dict) -> dict:
    """``raw`` with every curve and point field that holds its default left out."""
    defaults = {"orbit_size": 1, "residual_order": 1, "count": 1, "char_dims": None}
    for sub in raw["subgroups"]:
        for item in sub["curves"] + sub["points"]:
            if item.get("residual_order") == 1:
                del item["quotient_genus"]
            for key, value in defaults.items():
                if key in item and item[key] == value:
                    del item[key]
    return raw


#: raw documents of sampled configurations, every other one with its defaults left out
RAW_DOCS = [{"order": n, "raw": _terse(raw_form(s.config)) if i % 2 else raw_form(s.config)}
            for n in SUPPORTED_ORDERS for i, s in enumerate(samples(n, 100, seed=34))]


def test_constructors_build_each_distinct_record_once(monkeypatch):
    invariants = [(n, s.invariants) for n in SUPPORTED_ORDERS for s in samples(n, 100)]
    _assert_each_record_built_once(
        monkeypatch, lambda n, inv: CONSTRUCTORS[n](**inv), invariants)


def test_the_raw_reader_builds_each_distinct_record_once(monkeypatch):
    # a terse and a full document of one record share its cache key
    assert len(RAW_DOCS) == 400
    assert any("quotient_genus" not in c for doc in RAW_DOCS
               for sub in doc["raw"]["subgroups"] for c in sub["curves"])
    _assert_each_record_built_once(monkeypatch, cli.parse_config, [(d,) for d in RAW_DOCS])


def _build_in_six_threads(build, inputs, expected):
    """Clear the record caches and let six threads ``build`` every input, five times over
    with a 1 µs switch interval; each thread must build the ``expected`` results."""
    results = {}

    def run(worker):
        results[worker] = [build(*args) for args in inputs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            for cache in RECORD_CACHES:
                cache.cache_clear()
            threads = [threading.Thread(target=run, args=(w,)) for w in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(results.pop(w) == expected for w in range(6))
    finally:
        sys.setswitchinterval(interval)


def test_threads_sharing_the_record_caches_build_equal_configurations():
    invariants = [(n, s.invariants) for n in SUPPORTED_ORDERS for s in samples(n, 25, seed=33)]
    _build_in_six_threads(lambda n, inv: CONSTRUCTORS[n](**inv), invariants,
                          [CONSTRUCTORS[n](**inv) for n, inv in invariants])


def test_threads_sharing_the_record_caches_read_equal_raw_configurations():
    docs = RAW_DOCS[::4]
    _build_in_six_threads(cli.parse_config, [(d,) for d in docs],
                          [cli.parse_config(d) for d in docs])


def test_record_caches_are_bounded():
    for cache in RECORD_CACHES:
        assert type(cache.cache_parameters()["maxsize"]) is int


def _enum_invariants():
    """(order, invariants with one integer made an equal IntEnum member, the plain ones)."""
    for n in SUPPORTED_ORDERS:
        base = samples(n, 1, seed=32)[0].invariants
        for key, value in base.items():
            if key == "curve_genera":
                for i, g in enumerate(value):
                    genera = value[:i] + [IntEnum("Invariant", [("V", g)]).V] + value[i + 1:]
                    yield n, dict(base, curve_genera=genera), base
            elif key != "D_type":
                yield n, dict(base, **{key: IntEnum("Invariant", [("V", value)]).V}), base


@pytest.mark.parametrize("order, invariants, plain", list(_enum_invariants()))
def test_constructors_refuse_an_int_subclass_whatever_the_caches_hold(order, invariants, plain):
    # equal keys share one cached record, so an IntEnum must be refused before any cache
    # can hand it the plain-int record an earlier call built
    def refusal():
        with pytest.raises(InvariantError) as refused:
            CONSTRUCTORS[order](**invariants)
        return refused.value.violations

    for cache in RECORD_CACHES:
        cache.cache_clear()
    cold = refusal()
    assert CONSTRUCTORS[order](**plain).invariants == plain
    assert refusal() == cold
    assert "counts and genera must be nonnegative integers" in cold[0].message


# --- the records each constructor builds recount to its invariants ----------------

RECOUNT_SAMPLES = 200


def test_order3_records_recount_to_invariants():
    for sample in samples(3, RECOUNT_SAMPLES):
        rec3 = sample.config.record(3)
        assert sum(c.count for c in rec3.curves if c.genus > 0) <= 1, sample.invariants


def test_order4_records_recount_to_invariants():
    configs = [(s.invariants, s.config) for s in samples(4, RECOUNT_SAMPLES)]
    configs.append((WORKED_ORDER4, from_invariants_order4(**WORKED_ORDER4)))
    for inv, cfg in configs:
        rec4, rec2 = cfg.record(4), cfg.record(2)
        k, g_d = inv["k"], inv["g_D"]
        assert curves_in(rec2) == k + inv["b"] + 2 * inv["a"], inv
        h = sum(c.count * (1 - c.genus) for c in rec4.curves)
        assert h == (k - g_d if inv["D_type"] == "first" else k), inv


def test_order6_records_recount_to_invariants():
    for sample in samples(6, RECOUNT_SAMPLES):
        cfg, inv = sample.config, sample.invariants
        singles = sum(p.count for p in cfg.record(3).points if p.orbit_size == 1)
        assert singles == inv["p25"], inv
        assert all(c.genus <= 1 for c in cfg.record(6).curves), inv
