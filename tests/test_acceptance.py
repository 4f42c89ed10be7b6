"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail line
of every criterion as it completes.
"""

import json
import time
from math import gcd

import pytest

from bvhodge import (
    CurveOrbit,
    K3Config,
    SubgroupFixedRecord,
    cli,
    crosscheck,
    from_invariants_order2,
    from_invariants_order4,
    from_invariants_order6,
    orbifold_euler_pairsum,
    orbifold_hodge_diamond,
)
from bvhodge.engine import sector_contribution
from bvhodge.hodge import euler_characteristic
from generators import samples
from oracles import (
    classic_bv,
    corollary_order6,
    eager_sector_components,
    euler_fixed_set,
    euler_formula,
)

SUITE_SIZE = 500
ORDERS = (2, 3, 4, 6)

WORKED_ORDER4 = dict(r=11, m=3, k=2, a=1, b=3, n1=6, n2=0, g_D=1, D_type="first")


@pytest.fixture(scope="module")
def suites():
    start = time.monotonic()
    built = {order: samples(order, SUITE_SIZE) for order in ORDERS}
    built["elapsed_build"] = time.monotonic() - start
    return built


def _report(number, label):
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_engine_matches_closed_forms(suites):
    start = time.monotonic()
    for order in ORDERS:
        for sample in suites[order]:
            diamond = orbifold_hodge_diamond(sample.config)
            got = (diamond.entry(1, 1), diamond.entry(2, 1))
            expected = (sample.closed.h11, sample.closed.h21)
            assert got == expected, (order, sample.invariants, got, expected)
    elapsed = time.monotonic() - start + suites["elapsed_build"]
    assert elapsed < 10.0, f"suite took {elapsed:.1f}s, budget is 10s"
    _report(1, f"engine == closed forms on {SUITE_SIZE} tuples per order, {elapsed:.1f}s")


def test_criterion_2_euler_consistency(suites):
    for order in ORDERS:
        classes = sorted({gcd(j, order) for j in range(1, order)})
        for sample in suites[order]:
            diamond = orbifold_hodge_diamond(sample.config)
            e_diamond = euler_characteristic(diamond)
            e_pair = orbifold_euler_pairsum(sample.config)
            e_closed = euler_formula(
                order, [euler_fixed_set(sample.config, c) for c in classes])
            assert e_diamond == e_pair == e_closed, (order, sample.invariants)
            assert e_pair % 2 == 0
            assert diamond.entry(2, 1) == diamond.entry(1, 1) - e_pair // 2
    _report(2, "diamond euler == pair-sum == reduced formula, and h21 = h11 - e/2")


def test_criterion_3_worked_order4_instance():
    cfg = from_invariants_order4(**WORKED_ORDER4)
    report = crosscheck(cfg)
    assert {c["status"] for c in report["checks"]} == {"pass"}
    assert report["engine"] == report["closed_form"] == {"h11": 51, "h21": 9, "euler": 84}
    _report(3, "order-4 worked instance gives (51, 9, 84) both ways")


def test_criterion_4_worked_order2_instance():
    cfg = from_invariants_order2(9, [3, 0])
    report = crosscheck(cfg)
    assert {c["status"] for c in report["checks"]} == {"pass"}
    assert report["engine"] == {"h11": 18, "h21": 24, "euler": -12}
    bv_pair = classic_bv(2, 3)
    assert (bv_pair.h11, bv_pair.h21) == (18, 24)
    _report(4, "order-2 instance gives (18, 24, -12) and matches the curve-count form")


def _corollary_args(inv):
    return dict(r=inv["r"], m=inv["m"], l=inv["l"], b=inv["b"], a=inv["a"],
                n_prime=inv["n_prime"], p25=inv["p25"], p34=inv["p34"],
                n=inv["p25"] + 2 * inv["n_prime"], g_D=inv["g_D"])


def test_criterion_5_order6_corollary():
    consistent = samples(6, 200, corollary_safe=True)
    for sample in consistent:
        # consistency means the cohomological and the Euler routes agree
        diamond = orbifold_hodge_diamond(sample.config)
        e_pair = orbifold_euler_pairsum(sample.config)
        assert diamond.entry(2, 1) == diamond.entry(1, 1) - e_pair // 2
        args = _corollary_args(sample.invariants)
        assert corollary_order6(**args) == 0, sample.invariants
    # every single-field perturbation must be visible
    args = _corollary_args(consistent[0].invariants)
    for field in args:
        bumped = dict(args, **{field: args[field] + 1})
        assert corollary_order6(**bumped) != 0, field
    _report(5, "order-6 identity vanishes on 200 consistent tuples, "
               "every unit perturbation is nonzero")


def test_criterion_6_sector_tables(suites):
    for sample in suites[4]:
        inv = sample.invariants
        k, b, a = inv["k"], inv["b"], inv["a"]
        n_pts = inv["n1"] + inv["n2"]
        assert sector_contribution(sample.config, 1)[1][1] == 2 * k
        assert sector_contribution(sample.config, 3)[1][1] == 2 * k + 2 * n_pts
        assert sector_contribution(sample.config, 2)[1][1] == 3 * k + 3 * b + 4 * a
    for sample in suites[6]:
        inv = sample.invariants
        h11 = {j: sector_contribution(sample.config, j)[1][1] for j in range(1, 6)}
        assert h11[1] == inv["l"]
        assert h11[5] == inv["l"] + inv["p25"] + inv["p34"]
        assert h11[2] + h11[4] == (4 * inv["k"] - 2 * inv["b"]
                                   + 2 * inv["p25"] + 3 * inv["n_prime"])
        assert h11[3] == 2 * inv["N"] - 2 * inv["a"]
    _report(6, "per-sector summands reproduce the order-4 and order-6 tables")


def _with_split(cfg, genus, quot, d1):
    rest = genus - quot
    records = []
    for rec in cfg.records:
        if rec.subgroup_order != 2:
            records.append(rec)
            continue
        curves = tuple(
            CurveOrbit(c.genus, c.orbit_size, c.residual_order, c.quotient_genus,
                       tuple({0: quot, 2: d1, 4: rest - d1}.get(i, 0) for i in range(6)),
                       c.count)
            if c.residual_order == 3 and c.genus == genus and c.genus > c.quotient_genus
            else c
            for c in rec.curves
        )
        records.append(SubgroupFixedRecord(rec.subgroup_order, curves, rec.points))
    return K3Config(cfg.n, cfg.eigenspace, tuple(records), cfg.invariants)


def test_criterion_7_structural_invariants(suites):
    checked_override = 0
    for order in ORDERS:
        for sample in suites[order]:
            diamond = orbifold_hodge_diamond(sample.config)
            assert diamond.is_pq_symmetric() and diamond.is_self_dual()
            assert diamond.entry(0, 0) == diamond.entry(3, 0) == 1
            assert diamond.entry(1, 0) == diamond.entry(2, 0) == 0
            for j in range(1, order):
                for comp in eager_sector_components(sample.config, j):
                    assert comp.age in (1, 2)
                    if comp.kind == "curve":
                        assert comp.age == 1
    # independently crafted unbalanced-split comparison
    base = from_invariants_order6(r=2, m=4, l=0, k=0, N=1, a=0, b=0, n_prime=0,
                                  p25=3, p34=0, g_D=0, g_G=0, g_G_quot=0,
                                  g_F1=3, g_F1_quot=1, g_F2=0, g_F2_quot=0)
    reference = orbifold_hodge_diamond(base)
    for d1 in (0, 1, 2):
        assert orbifold_hodge_diamond(_with_split(base, 3, 1, d1)) == reference
    # plus every sampled configuration with a splittable curve
    for sample in suites[6]:
        for curve in sample.config.record(2).curves:
            rest = curve.genus - (curve.quotient_genus or 0)
            if curve.residual_order == 3 and rest >= 2:
                skew = orbifold_hodge_diamond(
                    _with_split(sample.config, curve.genus, curve.quotient_genus, rest))
                assert skew == orbifold_hodge_diamond(sample.config)
                checked_override += 1
    assert checked_override > 0, "sampler produced no splittable curves"
    _report(7, "ages integral, curve ages 1, diamond symmetric and self-dual, "
               f"split override neutral ({checked_override} sampled cases)")


GREEN_FIXTURES = (
    "order2_empty_fixed_locus",
    "order2_two_curves",
    "order3_curve_and_point",
    "order4_first_type",
    "order6_elliptic_top_curve",
)


def test_criterion_8_cli_contract(capsys):
    def run(*args):
        code = cli.main(list(args))
        captured = capsys.readouterr()
        return code, captured.out.encode(), captured.err

    for name in GREEN_FIXTURES:
        for fmt in ("text", "json"):
            code1, out1, _ = run("--fixture", name, "--format", fmt)
            code2, out2, _ = run("--fixture", name, "--format", fmt)
            assert code1 == code2 == 0, (name, fmt)
            assert out1 == out2, f"non-deterministic output for {name}"
    code, _, err = run("--fixture", "malformed")
    assert code == 1 and "parse error" in err
    code, out, _ = run("--fixture", "invalid_eigenspace", "--format", "json")
    assert code == 2 and json.loads(out)["engine"] is None
    code, out, _ = run("--fixture", "order3_inconsistent", "--format", "json")
    assert code == 3
    payload = json.loads(out)
    failing = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
    assert "euler_pairsum" in failing
    _report(8, "bundled fixtures deterministic at exit 0; exits 1, 2, 3 exercised")
