"""The twisted-sector engine against hand-computed and closed-form values."""

import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvhodge import (
    CurveOrbit,
    EigenspaceDims,
    InvariantError,
    K3Config,
    PointOrbit,
    SubgroupFixedRecord,
    cli,
    crosscheck,
    from_invariants_order2,
    from_invariants_order3,
    from_invariants_order4,
    from_invariants_order6,
    orbifold_euler_pairsum,
    orbifold_hodge_diamond,
    validate,
)
from bvhodge import engine, hodge
from bvhodge.closed_forms import euler_formula
from bvhodge.cyclic import age
from bvhodge.engine import sector_contribution, untwisted_diamond
from bvhodge.fixed_locus import euler_fixed_set
from bvhodge.hodge import euler_characteristic, kunneth_character_product
from generators import samples
from oracles import (
    LocalAction,
    curve_character_dims,
    eager_sector_components,
    invariant_diamond,
    power_transport,
    table_of,
)
from test_fuzz import raw_form
from test_hodge_algebra import e_table, k3_table

WORKED_ORDER4 = dict(r=11, m=3, k=2, a=1, b=3, n1=6, n2=0, g_D=1, D_type="first")
ORDER6_GD1 = dict(r=2, m=4, l=1, k=1, N=1, a=0, b=0, n_prime=0, p25=0, p34=0,
                  g_D=1, g_G=1, g_G_quot=1, g_F1=1, g_F1_quot=1, g_F2=0, g_F2_quot=0)
#: F1 and F2 are elliptic curves of quotient genus 0 under a residual order-3 action,
#: so each has an odd rest of 1 and no even split
ODD_REST_ORDER6 = dict(r=12, m=2, l=3, k=8, N=8, a=1, b=1, n_prime=2, p25=0, p34=6,
                       g_D=0, g_G=4, g_G_quot=2, g_F1=1, g_F1_quot=0, g_F2=1, g_F2_quot=0)
AT2, AT4 = [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0]  # the splits of a rest of 1 under n = 6


# --- untwisted part -----------------------------------------------------------

def test_untwisted_general_shape():
    cases = [
        (from_invariants_order2(9, [3, 0]), 9, 13),
        (from_invariants_order3(4, 9, 2, 3, 2), 4, 9),
        (from_invariants_order4(**WORKED_ORDER4), 11, 3),
        (from_invariants_order6(**ORDER6_GD1), 2, 4),
    ]
    for cfg, r, m in cases:
        table = untwisted_diamond(cfg)
        assert table[1][1] == r + 1
        assert table[2][1] == m - 1
        assert table[0][0] == table[3][0] == 1
        assert table[1][0] == table[2][0] == 0


def test_untwisted_order2_includes_period_term():
    # h^{2,1} = (m - 2) + 1: the (1,1) eigenpart plus the (2,0) x (0,1) class
    assert untwisted_diamond(from_invariants_order2(9, [3, 0]))[2][1] == 12


def _exit0_fixture_configs():
    for name in cli.fixture_names():
        text = cli.load_fixture_text(name)
        try:
            if cli.run_text(text)[1] != cli.EXIT_OK:
                continue
        except (json.JSONDecodeError, cli.SchemaError):
            continue
        yield cli.parse_config(json.loads(text))


def test_untwisted_matches_kunneth_oracle():
    # the character-refined Kuenneth product of the two eigenspace tables,
    # sliced at character 0, is an independent route to the untwisted part
    configs = [s.config for order in (2, 3, 4, 6) for s in samples(order, 500)]
    fixtures = list(_exit0_fixture_configs())
    assert len(fixtures) == 5
    for cfg in configs + fixtures:
        n = cfg.n
        oracle = invariant_diamond(kunneth_character_product(
            k3_table(n, cfg.eigenspace.dims), e_table(n)))
        assert untwisted_diamond(cfg) == oracle.table, (n, cfg.eigenspace.dims)


def test_untwisted_matches_kunneth_oracle_without_conjugate_symmetry():
    # the frame is a constant per order; the (1,1) entry still pairs each character with -k
    rng = Random(5)
    for n in (3, 4, 6):
        for _ in range(50):
            dims = [rng.randint(0, 5) for _ in range(n)]
            dims[1] += 1
            dims[n - 1] += 1
            cfg = K3Config(n, EigenspaceDims(n, tuple(dims)), ())
            oracle = invariant_diamond(kunneth_character_product(k3_table(n, dims), e_table(n)))
            assert untwisted_diamond(cfg) == oracle.table, (n, dims)


def test_untwisted_rejects_degenerate_eigenspaces():
    cfg = K3Config(2, EigenspaceDims(2, (22, 0)), (SubgroupFixedRecord(2),))
    with pytest.raises(InvariantError):
        untwisted_diamond(cfg)


# --- sectors ------------------------------------------------------------------

def test_sectors_order4_worked_instance():
    cfg = from_invariants_order4(**WORKED_ORDER4)
    s1, s2, s3 = (sector_contribution(cfg, j) for j in (1, 2, 3))
    assert s1[1][1] == 2 * 2                      # curves only, points have age 2
    assert s1[2][2] == 2 * 2 + 2 * 6              # curves + the age-2 points
    assert s3[1][1] == 2 * 2 + 2 * 6              # all ages drop to 1
    assert s2[1][1] == 3 * 2 + 3 * 3 + 4 * 1
    assert all(c.age in (1, 2) for j in (1, 2, 3) for c in eager_sector_components(cfg, j))


def test_sector_order6_cube_with_genus_data():
    inv = dict(ORDER6_GD1, N=2, g_F2=1, g_F2_quot=0)
    cfg = from_invariants_order6(**inv)
    sector = sector_contribution(cfg, 3)
    assert sector[1][1] == 2 * 2 - 2 * 0         # 2N - 2a
    assert sector[2][1] == 2 * 1 + 1 + 0         # 2g(D) + g(F2) + g(F2/.)


def test_sector_empty_fixed_locus_is_zero():
    cfg = from_invariants_order2(10, [])
    assert sector_contribution(cfg, 1) == ((0,) * 4,) * 4


def test_sector_rejects_untwisted_index():
    cfg = from_invariants_order2(10, [])
    with pytest.raises(ValueError):
        sector_contribution(cfg, 0)


def test_sector_non_crepant_point_type_raises():
    # bypass validation: a point type breaking the determinant congruence
    rec = SubgroupFixedRecord(4, points=(PointOrbit((1, 1)),))
    cfg = K3Config(4, EigenspaceDims(4, (12, 3, 4, 3)), (rec,))
    with pytest.raises(ValueError, match="non-crepant"):
        sector_contribution(cfg, 1)


def test_sector_errors_are_not_memoised():
    rec = SubgroupFixedRecord(4, points=(PointOrbit((1, 1)),))
    cfg = K3Config(4, EigenspaceDims(4, (12, 3, 4, 3)), (rec,))
    for _ in range(2):
        with pytest.raises(ValueError, match="non-crepant"):
            sector_contribution(cfg, 1)


#: valid eigenspace dimensions per order, for configurations built around one orbit
VALID_DIMS = {2: (10, 12), 3: (4, 9, 9), 4: (11, 3, 5, 3), 6: (2, 4, 4, 4, 4, 4)}


def _one_orbit_config(n, r, curves=(), points=()):
    """A configuration whose only record is the subgroup generated by the r-th power."""
    rec = SubgroupFixedRecord(n // gcd(r, n), curves, points)
    return K3Config(n, EigenspaceDims(n, VALID_DIMS[n]), (rec,))


def test_point_ages_match_the_cyclic_oracle():
    # every (order, power, both type exponents mod the order): the oracle component's
    # integer age, and the cell the engine serves it in, against the Fraction age of
    # the local action in bvhodge.cyclic
    keys = [(n, r, t1, t2) for n in (2, 3, 4, 6) for r in range(1, n)
            for t1 in range(n) for t2 in range(n)]
    assert len(keys) == 250
    accepted = 0
    for n, r, t1, t2 in keys:
        cfg = _one_orbit_config(n, r, points=(PointOrbit((t1, t2)),))
        u = r // gcd(r, n)
        local = LocalAction(n, power_transport(LocalAction(n, (t1, t2)), u).exponents + (n - r,))
        valid = validate(cfg) == []
        accepted += valid
        if age(local) in (1, 2):
            (component,) = eager_sector_components(cfg, r)
            assert (component.exponents, component.age) == (local.exponents, age(local))
            assert sector_contribution(cfg, r) == component.table  # the served age
        else:
            assert not valid, (n, r, t1, t2)
            with pytest.raises(ValueError, match="non-crepant"):
                sector_contribution(cfg, r)
    assert accepted == 16


def test_curve_exponents_have_age_one():
    for n in (2, 3, 4, 6):
        for r in range(1, n):
            cfg = _one_orbit_config(n, r, curves=(CurveOrbit(genus=2),))
            (component,) = eager_sector_components(cfg, r)
            assert component.exponents == (0, r, n - r)
            assert component.age == age(LocalAction(n, component.exponents)) == 1
            assert sector_contribution(cfg, r) == component.table


def test_cli_import_loads_no_rational_arithmetic():
    # ages are integer sums; bvhodge.cyclic and its Fraction stay a test oracle
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, bvhodge.cli; "
            "print(sorted({'bvhodge.cyclic', 'fractions', 'decimal'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout == "[]\n"


def test_cli_import_loads_the_whole_engine_and_no_startup_machinery():
    # records are plain slotted classes; argparse and the fixture loader wait for main()
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, bvhodge.cli; print(sorted(m for m in sys.modules if m in "
            "{'dataclasses', 'inspect', 'ast', 'argparse'} or m.startswith('bvhodge')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout == str(["bvhodge", "bvhodge.cli", "bvhodge.closed_forms",
                               "bvhodge.engine", "bvhodge.fixed_locus", "bvhodge.hodge",
                               "bvhodge.record"]) + "\n"


EXIT0_FIXTURES = ("order2_empty_fixed_locus", "order2_two_curves", "order3_curve_and_point",
                  "order4_first_type", "order6_elliptic_top_curve")


def test_serving_path_builds_no_character_vector(monkeypatch):
    # the engine computes on plain tuples; CharacterVector is left to the oracles
    def refuse(self, *args, **kwargs):
        raise AssertionError("CharacterVector built on the serving path")

    monkeypatch.setattr(hodge.CharacterVector, "__init__", refuse)
    texts = [cli.load_fixture_text(name) for name in EXIT0_FIXTURES]
    odd_rest = from_invariants_order6(**ODD_REST_ORDER6)
    texts += [json.dumps({"order": 6, "raw": raw}) for raw in
              (raw_form(odd_rest), _explicit_split_raw(odd_rest, AT2, AT4))]
    for text in texts:
        for fmt in ("text", "json"):
            assert cli.run_text(text, fmt=fmt)[1] == cli.EXIT_OK
    for n in (2, 3, 4, 6):  # and the per-order tables the engine builds at import
        assert engine._sector_weights(n) == engine._SECTOR_WEIGHTS[n]
        assert engine._pair_classes(n) == engine._PAIR_CLASSES[n]


def test_serving_path_builds_one_diamond(monkeypatch):
    # the untwisted part and the sectors are bare tables; only the result is a diamond, so
    # the bench's HodgeDiamond.built reads 1 per engine document
    built = []
    init = hodge.HodgeDiamond.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(hodge.HodgeDiamond, "__init__", counting)
    for name in cli.fixture_names():
        text = cli.load_fixture_text(name)
        for fmt in ("text", "json"):
            built.clear()
            try:
                code = cli.run_text(text, fmt=fmt)[1]
            except json.JSONDecodeError:
                continue
            assert len(built) == (0 if code == cli.EXIT_INVALID else 1), name


@pytest.mark.parametrize("order, classes", [(2, 1), (3, 1), (4, 2), (6, 3)])
def test_serving_path_reads_each_fixed_set_euler_number_once(monkeypatch, order, classes):
    # the pair sum and the closed-form Euler number share one read per class
    read = []
    honest = engine.euler_fixed_set
    monkeypatch.setattr(engine, "euler_fixed_set", lambda cfg, c: read.append(c) or honest(cfg, c))
    for sample in samples(order, 10, seed=77):
        for doc in ({"order": order, "invariants": sample.invariants},
                    {"order": order, "raw": raw_form(sample.config)}):
            read.clear()
            text, code = cli.run_text(json.dumps(doc), fmt="json")
            assert code == cli.EXIT_OK, text
            assert sorted(read) == [c for c, _ in engine._PAIR_CLASSES[order]]
            assert len(read) == classes
    cfg = samples(order, 1, seed=78)[0].config
    read.clear()  # the public one-argument form reads them itself
    assert orbifold_euler_pairsum(cfg) == crosscheck(cfg).euler_pairsum
    assert len(read) == 2 * classes


def _sector_configs():
    """Every bundled fixture that parses, and sampled tuples of each order."""
    configs = []
    for name in cli.fixture_names():
        try:
            configs.append(cli.parse_config(json.loads(cli.load_fixture_text(name))))
        except (ValueError, InvariantError):  # malformed JSON, schema or invariant errors
            pass
    for n in (2, 3, 4, 6):
        configs += [s.config for s in samples(n, 40, seed=4242)]
    return configs


def test_sector_table_sums_its_components_entries():
    # the sector sums its cells in place; the oracle's components hold the entries behind them
    configs = _sector_configs() + [_explicit_split_config()]
    configs += [s.config for order in (2, 3, 4, 6) for s in samples(order, 500)]
    built = 0
    for cfg in configs:
        for j in range(1, cfg.n):
            components = eager_sector_components(cfg, j)
            entries = [e for component in components for e in component.entries]
            assert sector_contribution(cfg, j) == table_of(entries), (cfg, j)
            built += len(components)
    assert built > 2000 * 3


@pytest.mark.parametrize("where, cells", [
    ("sector_contribution", [(1, 2)]),                    # h12 without its h21
    ("sector_contribution", [(2, 2)]),                    # h22 without its h11
    ("untwisted_diamond", [(1, 0), (0, 1), (2, 3), (3, 2)]),  # symmetric, frame broken
    ("untwisted_diamond", [(0, 0), (3, 3)]),                  # corners of 2
])
def test_orbifold_diamond_refuses_a_broken_frame(monkeypatch, where, cells):
    cfg = from_invariants_order4(**WORKED_ORDER4)
    honest = getattr(engine, where)

    def broken(cfg, *args):
        rows = [list(row) for row in honest(cfg, *args)]
        for p, q in cells:
            rows[p][q] += 1
        return tuple(map(tuple, rows))

    monkeypatch.setattr(engine, where, broken)
    with pytest.raises(RuntimeError, match="malformed diamond"):
        orbifold_hodge_diamond(cfg)


def _explicit_split_raw(cfg, f1_dims, f2_dims):
    """The raw form of the ODD_REST_ORDER6 configuration, F1 and F2 stating their splits."""
    raw = raw_form(cfg)
    odd = [c for c in raw["subgroups"][2]["curves"]
           if c["residual_order"] == 3 and c["genus"] == 1]
    assert len(odd) == 2 and all(c["char_dims"] is None for c in odd)
    odd[0]["char_dims"], odd[1]["char_dims"] = f1_dims, f2_dims
    return raw


def _explicit_split_config():
    """The configuration of a raw order-6 document whose F1 and F2 state their split."""
    raw = _explicit_split_raw(from_invariants_order6(**ODD_REST_ORDER6), AT2, AT2)
    cfg = cli.parse_config({"order": 6, "raw": raw})
    assert any(c.char_dims for c in cfg.record(2).curves) and cfg.invariants is None
    return cfg


def test_an_odd_order3_rest_needs_no_char_dims():
    # an elliptic curve with an order-3 automorphism and three fixed points has quotient
    # genus 0 and a rest of 1: the engine reads no split, so a raw document may leave it
    # out, and each split validate accepts for the rest (at character 2 or 4) gives the
    # same diamond
    cfg = from_invariants_order6(**ODD_REST_ORDER6)
    raw = raw_form(cfg)
    for curve in raw["subgroups"][2]["curves"]:
        del curve["char_dims"]
    text, code = cli.run_text(json.dumps({"order": 6, "raw": raw}), fmt="json")
    assert code == cli.EXIT_OK
    diamond = json.loads(text)["diamond"]
    assert diamond == list(map(list, crosscheck(cfg).diamond.table))
    for splits in ((AT2, AT2), (AT2, AT4), (AT4, AT2), (AT4, AT4)):
        raw = _explicit_split_raw(cfg, *splits)
        text, code = cli.run_text(json.dumps({"order": 6, "raw": raw}), fmt="json")
        assert code == cli.EXIT_OK and json.loads(text)["diamond"] == diamond, splits


def test_serving_path_runs_every_exit0_document():
    # the sectors sum their cells from the records, explicit char_dims included
    texts = [cli.load_fixture_text(name) for name in EXIT0_FIXTURES]
    texts.append(json.dumps({"order": 6, "raw": raw_form(_explicit_split_config())}))
    for n in (2, 3, 4, 6):
        for sample in samples(n, 10, seed=5):
            texts.append(json.dumps({"order": n, "invariants": sample.invariants}))
            texts.append(json.dumps({"order": n, "raw": raw_form(sample.config)}))
    for text in texts:
        for fmt in ("text", "json"):
            assert cli.run_text(text, fmt=fmt)[1] == cli.EXIT_OK


def test_orbifold_diamond_raises_on_a_non_crepant_point():
    # the serving path checks every point's age as it sums the sector
    rec = SubgroupFixedRecord(4, points=(PointOrbit((1, 1)),))
    cfg = K3Config(4, EigenspaceDims(4, (12, 3, 4, 3)), (rec,))
    with pytest.raises(ValueError, match="non-crepant local data: point age 5/4"):
        orbifold_hodge_diamond(cfg)
    with pytest.raises(ValueError, match="non-crepant"):
        crosscheck(cfg)


def _valid_quotient_genera(genus, rho):
    """Every quotient genus validate accepts for a curve of this genus with no char_dims."""
    return [genus] if rho == 1 else list(range(genus + 1))


def _explicit_splits(n, rho, genus, quotient_genus):
    """Every char_dims validate accepts: g_quot at character 0, the rest on +-n/rho."""
    rest = genus - quotient_genus
    if rho == 1:
        return [(genus,) + (0,) * (n - 1)] if rest == 0 else []
    splits = []
    for a in range(rest + 1) if rho == 3 else (0,):
        dims = [0] * n
        dims[0] = quotient_genus
        dims[n // rho] += rest - a
        dims[-(n // rho) % n] += a
        splits.append(tuple(dims))
    return splits


def _split_kernel(n, key, genus, quotient_genus, count=3, char_dims=None):
    """(h0, forms) of one curve orbit through the sector, and through the character split."""
    d, size, rho = key
    curve = CurveOrbit(genus, size, rho, quotient_genus, char_dims, count)
    cfg = K3Config(n, EigenspaceDims(n, VALID_DIMS[n]), (SubgroupFixedRecord(d, (curve,)),))
    if char_dims is not None:
        assert not [v for v in validate(cfg) if "char_dims" in v.message], char_dims
    table = sector_contribution(cfg, n // d)
    assert table[1][1] == table[2][2] and table[2][1] == table[1][2]
    w = engine._SECTOR_WEIGHTS[n][d, size]
    return ((table[1][1], table[2][1]),
            (count * w[0], count * sum(c * x for c, x in zip(curve_character_dims(curve, n), w))))


def test_split_weights_match_the_character_pairing():
    # the one curve formula rests on w[j] == w[-j]: a curve's non-invariant
    # forms weigh the same on each nonzero multiple of n/rho
    for n in (2, 3, 4, 6):
        for w in engine._SECTOR_WEIGHTS[n].values():
            assert all(w[j] == w[-j % n] for j in range(n)), (n, w)
    keys = [(n, key) for n in (2, 3, 4, 6) for key in engine._SPLIT_WEIGHTS[n]]
    assert {(n, rho) for n, (_, _, rho) in keys} == {
        (2, 1), (2, 2), (3, 1), (3, 3), (4, 1), (4, 2), (6, 1), (6, 2), (6, 3)}
    checked = explicit = 0
    for n, key in keys:
        for genus in range(13):
            for gq in _valid_quotient_genera(genus, key[2]):
                kernel, pairing = _split_kernel(n, key, genus, gq)
                assert kernel == pairing, (n, key, genus, gq)
                checked += 1
            # explicit splits, odd rho=3 rests included, take the same formula
            for gq in range(genus + 1):
                for dims in _explicit_splits(n, key[2], genus, gq):
                    kernel, pairing = _split_kernel(n, key, genus, gq, char_dims=dims)
                    assert kernel == pairing, (n, key, genus, gq, dims)
                    explicit += 1
    assert checked > 2000 and explicit > 2000


@st.composite
def _large_split_curves(draw):
    n = draw(st.sampled_from((2, 3, 4, 6)))
    key = draw(st.sampled_from(sorted(engine._SPLIT_WEIGHTS[n])))
    genus = draw(st.integers(0, 10 ** 40))
    gq = genus if key[2] == 1 else draw(st.integers(0, genus))
    return n, key, genus, gq, draw(st.integers(1, 10 ** 6))


@settings(deadline=None)
@given(_large_split_curves())
def test_split_weights_match_the_character_pairing_at_large_genera(drawn):
    n, key, genus, gq, count = drawn
    assert 0 <= gq <= genus
    kernel, pairing = _split_kernel(n, key, genus, gq, count)
    assert kernel == pairing


def test_sector_curve_ages_always_one():
    cfg = from_invariants_order6(**ORDER6_GD1)
    for j in range(1, 6):
        for comp in eager_sector_components(cfg, j):
            if comp.kind == "curve":
                assert comp.age == 1


# --- full diamonds ---------------------------------------------------------------

def test_diamond_order2_worked_instance():
    diamond = orbifold_hodge_diamond(from_invariants_order2(9, [3, 0]))
    assert (diamond.entry(1, 1), diamond.entry(2, 1)) == (18, 24)


def test_diamond_order3_closed_form_instance():
    diamond = orbifold_hodge_diamond(from_invariants_order3(4, 9, 2, 3, 2))
    assert (diamond.entry(1, 1), diamond.entry(2, 1)) == (26, 20)


def test_diamond_order4_worked_instance():
    diamond = orbifold_hodge_diamond(from_invariants_order4(**WORKED_ORDER4))
    assert (diamond.entry(1, 1), diamond.entry(2, 1)) == (51, 9)
    assert euler_characteristic(diamond) == 84


def test_diamond_order6_worked_instance():
    diamond = orbifold_hodge_diamond(from_invariants_order6(**ORDER6_GD1))
    assert (diamond.entry(1, 1), diamond.entry(2, 1)) == (11, 11)


def test_diamond_enriques_type_quotient():
    diamond = orbifold_hodge_diamond(from_invariants_order2(10, []))
    assert (diamond.entry(1, 1), diamond.entry(2, 1)) == (11, 11)
    assert euler_characteristic(diamond) == 0


def test_diamond_symmetries():
    diamond = orbifold_hodge_diamond(from_invariants_order4(**WORKED_ORDER4))
    assert diamond.is_pq_symmetric()
    assert diamond.is_self_dual()


# --- pair-sum Euler characteristic ------------------------------------------------

def test_pairsum_order2_worked_instance():
    cfg = from_invariants_order2(9, [3, 0])
    assert orbifold_euler_pairsum(cfg) == -12
    assert euler_formula(2, [euler_fixed_set(cfg, 1)]) == -12


def test_pairsum_order4_worked_instance():
    cfg = from_invariants_order4(**WORKED_ORDER4)
    assert orbifold_euler_pairsum(cfg) == 6 * 8 + 3 * 12 == 84


def test_pairsum_order6_coefficients():
    # three rational fixed curves reappearing in every record: each of the
    # three fixed-set Euler numbers is 6, and the weights are 4, 4, 2
    cfg = from_invariants_order6(r=7, m=3, l=3, k=3, N=3, a=0, b=0, n_prime=0,
                                 p25=0, p34=0, g_D=0, g_G=0, g_G_quot=0,
                                 g_F1=0, g_F1_quot=0, g_F2=0, g_F2_quot=0)
    es = [euler_fixed_set(cfg, c) for c in (1, 2, 3)]
    assert es == [6, 6, 6]
    assert orbifold_euler_pairsum(cfg) == euler_formula(6, es) == 60
    diamond = orbifold_hodge_diamond(cfg)
    assert euler_characteristic(diamond) == 60


# --- crosscheck --------------------------------------------------------------------

def test_crosscheck_worked_order4_all_pass():
    report = crosscheck(from_invariants_order4(**WORKED_ORDER4))
    assert report.passed
    assert (report.h11, report.h21, report.euler_pairsum) == (51, 9, 84)
    assert {c.name for c in report.checks} == {
        "euler_pairsum", "cy_relation", "closed_form_h11",
        "closed_form_h21", "closed_form_euler",
    }


def test_crosscheck_flags_inconsistent_invariants():
    # closed form and engine agree on (26, 20), but the eigenspace ranks do
    # not match this fixed locus, and the Euler routes expose it: 12 vs 24
    report = crosscheck(from_invariants_order3(4, 9, 2, 3, 2))
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["closed_form_h11"].status == "pass"
    assert by_name["closed_form_h21"].status == "pass"
    assert by_name["euler_pairsum"].status == "fail"
    assert (by_name["euler_pairsum"].lhs, by_name["euler_pairsum"].rhs) == (12, 24)


def test_crosscheck_raw_config_skips_closed_forms():
    cfg = K3Config(2, EigenspaceDims(2, (10, 12)), (SubgroupFixedRecord(2),))
    report = crosscheck(cfg)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["closed_form_h11"] == "skipped"
    assert statuses["euler_pairsum"] == "pass"
    assert (report.h11, report.h21) == (11, 11)


def test_crosscheck_order6_raw_violating_point_relation():
    # square-fixed points that are not matched by full-action fixed points:
    # the closed forms do not apply, the engine checks still run
    rec3 = SubgroupFixedRecord(3, points=(PointOrbit((4, 4), count=2),))
    cfg = K3Config(
        6, EigenspaceDims(6, (2, 4, 4, 4, 4, 4)),
        (SubgroupFixedRecord(6), rec3, SubgroupFixedRecord(2)),
    )
    report = crosscheck(cfg)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["closed_form_h11"] == "skipped"
    assert statuses["euler_pairsum"] in ("pass", "fail")


# --- override neutrality -------------------------------------------------------------

def _override_split(cfg, d1):
    """Replace the balanced split of the genus-3 cube-fixed curve by (d1, 2-d1)."""
    records = []
    for rec in cfg.records:
        if rec.subgroup_order != 2:
            records.append(rec)
            continue
        curves = tuple(
            CurveOrbit(c.genus, c.orbit_size, c.residual_order, c.quotient_genus,
                       (1, 0, d1, 0, 2 - d1, 0), c.count)
            if c.genus == 3 else c
            for c in rec.curves
        )
        records.append(SubgroupFixedRecord(rec.subgroup_order, curves, rec.points))
    return K3Config(cfg.n, cfg.eigenspace, tuple(records), cfg.invariants)


def test_balanced_split_override_is_output_neutral():
    base = from_invariants_order6(r=2, m=4, l=0, k=0, N=1, a=0, b=0, n_prime=0,
                                  p25=3, p34=0, g_D=0, g_G=0, g_G_quot=0,
                                  g_F1=3, g_F1_quot=1, g_F2=0, g_F2_quot=0)
    reference = orbifold_hodge_diamond(base)
    for d1 in (0, 1, 2):
        assert orbifold_hodge_diamond(_override_split(base, d1)) == reference
