"""Randomized generators of internally consistent configurations.

Closed-form agreement holds for any configuration satisfying the per-order
shape relations, but the Euler cross-checks additionally need the eigenspace
dimensions to match the fixed-locus data (fixed-point counts are traces) and
the records of nested subgroups to cohere (residual fixed points on a curve
are isolated points of the finer locus).  The samplers below build
configurations that satisfy all of it by construction, so every emitted
sample must pass every cross-check; a sampler bug shows up as a test failure.

Bounds follow the acceptance suite: genera at most 5, counts at most 10.
"""

from dataclasses import dataclass
from random import Random

from bvhodge import (
    K3Config,
    from_invariants_order2,
    from_invariants_order3,
    from_invariants_order4,
    from_invariants_order6,
)
from bvhodge.closed_forms import HodgePair, closed_form_pair
from oracles import aas_relations_order4, implied_dims

MAX_TRIES = 500


@dataclass(frozen=True)
class Sample:
    order: int
    invariants: dict
    config: K3Config
    closed: HodgePair


def _sample_order2(rng: Random) -> Sample:
    for _ in range(MAX_TRIES):
        n_curves = rng.randint(0, 6)
        genera = sorted((rng.randint(0, 5) for _ in range(n_curves)), reverse=True)
        r = 10 + n_curves - sum(genera)  # rank of the invariant lattice
        if not 1 <= r <= 20:
            continue
        inv = {"r": r, "curve_genera": list(genera)}
        return Sample(2, inv, from_invariants_order2(**inv), closed_form_pair(2, inv))
    raise RuntimeError("order-2 sampler failed to produce a consistent tuple")


def _sample_order3(rng: Random) -> Sample:
    for _ in range(MAX_TRIES):
        k = rng.randint(0, 4)
        g_c = rng.randint(0, 5) if k else 0
        n_points = rng.randint(0, 10)
        if k + n_points == 0:
            continue
        e_fix = 2 * k - 2 * g_c + n_points
        if e_fix % 3:
            continue
        r = (2 * e_fix + 18) // 3  # fixed-point count is the trace on cohomology
        if not 1 <= r <= 20:
            continue
        inv = {"r": r, "m": (22 - r) // 2, "k": k, "n_points": n_points, "g_C": g_c}
        return Sample(3, inv, from_invariants_order3(**inv), closed_form_pair(3, inv))
    raise RuntimeError("order-3 sampler failed to produce a consistent tuple")


def _sample_order4(rng: Random) -> Sample:
    for _ in range(MAX_TRIES):
        d_type = rng.choice(("first", "second"))
        if d_type == "first":
            g_d = rng.randint(0, 5)
            k = max(1, g_d) + rng.randint(0, 2)
            h = k - g_d
            n1, n2 = 2 * h + 4, 0
            b = h + 2
        else:
            k = rng.randint(0, 3)
            h = k
            g_d = rng.randint(0, 5)
            gq_min = max(0, -((2 * h + 2 - 2 * g_d) // 4))
            gq_max = min(g_d, (2 + 2 * g_d) // 4)
            if gq_min > gq_max:
                continue
            gq = rng.randint(gq_min, gq_max)
            n2 = 2 + 2 * g_d - 4 * gq
            n1 = 2 * h + 4 - n2
            b = n1 // 2 + 1
        a = rng.randint(0, 2)
        try:
            r, m = aas_relations_order4(k, a, b, g_d, h)
        except ValueError:
            continue
        if r < 1 or m < 1 or 22 - r - 2 * m < 0:
            continue
        if max(k, a, b, n1, n2, k + b + 2 * a) > 10:
            continue
        inv = {"r": r, "m": m, "k": k, "a": a, "b": b, "n1": n1, "n2": n2,
               "g_D": g_d, "D_type": d_type}
        return Sample(4, inv, from_invariants_order4(**inv), closed_form_pair(4, inv))
    raise RuntimeError("order-4 sampler failed to produce a consistent tuple")


def _f_curve_menu(rng: Random, corollary_safe: bool):
    """Genus shapes of the invariant curves fixed by the cube, g(D) = 0 case.

    A triple of permuted curves unbalances the Euler bookkeeping by 6, and
    a genus drop g - g_quot on an invariant curve rebalances by 3, so the
    number of triples is half the total genus drop.  With quotient genera
    pinned to the genera (free residual actions) only elliptic curves and
    no triples are possible.
    """
    if corollary_safe:
        shapes = rng.choice(((), ((1, 1),), ((1, 1), (1, 1))))
        return shapes, 0
    pick = rng.randint(0, 2)
    if pick == 0:
        return (), 0
    if pick == 1:
        g = rng.randint(1, 5)
        drops = [q for q in range(0, min(g, (2 + g) // 3) + 1) if (g - q) % 2 == 0]
        if not drops:
            return (), 0
        gq = rng.choice(drops)
        return ((g, gq),), (g - gq) // 2
    both = rng.choice((((1, 1), (1, 1)), ((1, 0), (1, 0))))
    return both, sum(g - gq for g, gq in both) // 2


def _sample_order6(rng: Random, corollary_safe: bool = False) -> Sample:
    for _ in range(MAX_TRIES):
        g_d = 0 if corollary_safe else rng.choice((0, 1))
        if g_d == 1:
            # D = G = F1 is pointwise fixed and elliptic; pairs, swapped
            # points and triples cannot rebalance and are forced to zero
            l = rng.randint(1, 4)
            g_g = g_gq = g_f1 = g_f1q = 1
            g_f2 = rng.choice((0, 1))
            g_f2q = g_f2
            a = b = n_prime = 0
            c2 = rng.randint(0, 3)
            c3 = rng.randint(1 if g_f2 else 0, 3)
            p34 = 2 * c2
            total_p = 2 * (c3 - (1 if g_f2 else 0)) + ((2 + g_f2 - 3 * g_f2q) if g_f2 else 0)
        else:
            l = rng.randint(0, 4)
            has_g = rng.random() < 0.6
            if has_g:
                g_g = rng.randint(1, 5)
                if corollary_safe:
                    if g_g > 1:
                        continue  # a free involution needs an elliptic curve
                    g_gq = g_g
                else:
                    g_gq = rng.randint(0, min(g_g, (2 + 2 * g_g) // 4))
            else:
                g_g = g_gq = 0
            rebalance = 2 * (g_g - g_gq)
            b = rng.randint(0, rebalance // 2)
            n_prime = rebalance - 2 * b
            f_shapes, a = _f_curve_menu(rng, corollary_safe)
            g_f1, g_f1q = f_shapes[0] if f_shapes else (0, 0)
            g_f2, g_f2q = f_shapes[1] if len(f_shapes) > 1 else (0, 0)
            c2 = (1 if has_g else 0) + rng.randint(0, 3)
            c3 = len(f_shapes) + rng.randint(0, 3)
            p34 = 2 * (c2 - (1 if has_g else 0)) + ((2 + 2 * g_g - 4 * g_gq) if has_g else 0)
            total_p = (2 * (c3 - len(f_shapes))
                       + sum(2 + g - 3 * gq for g, gq in f_shapes))
        p25 = total_p - p34
        if p25 < 0:
            continue
        k = l + c2 + 2 * b
        n_curves_cube = l + c3 + 3 * a
        n_points_sq = p25 + 2 * n_prime
        e1 = 2 * l - 2 * g_d + p25 + p34
        if e1 % 6 or not 0 <= e1 <= 18:
            continue
        m = (24 - e1) // 6
        r = 22 - 5 * m
        if max(l, k, n_curves_cube, a, b, n_prime, p25, p34, n_points_sq) > 10:
            continue
        e2 = 2 * k - 2 * (g_d if g_d else g_g) + n_points_sq
        e3 = 2 * n_curves_cube - 2 * (g_d if g_d else g_f1) - 2 * g_f2
        assert e1 == e2 == e3, f"sampler imbalance: {e1}, {e2}, {e3}"
        inv = {"r": r, "m": m, "l": l, "k": k, "N": n_curves_cube, "a": a, "b": b,
               "n_prime": n_prime, "p25": p25, "p34": p34, "g_D": g_d,
               "g_G": g_g, "g_G_quot": g_gq, "g_F1": g_f1, "g_F1_quot": g_f1q,
               "g_F2": g_f2, "g_F2_quot": g_f2q}
        return Sample(6, inv, from_invariants_order6(**inv), closed_form_pair(6, inv))
    raise RuntimeError("order-6 sampler failed to produce a consistent tuple")


def raw_form(cfg: K3Config) -> dict:
    """The raw document of a configuration, every optional field written out."""
    return {"eigenspace_dims": list(cfg.eigenspace.dims), "subgroups": [
        {"order": rec.subgroup_order,
         "curves": [{"genus": c.genus, "orbit_size": c.orbit_size,
                     "residual_order": c.residual_order, "quotient_genus": c.quotient_genus,
                     "char_dims": None if c.char_dims is None else list(c.char_dims),
                     "count": c.count} for c in rec.curves],
         "points": [{"type": list(p.type_exponents), "orbit_size": p.orbit_size,
                     "count": p.count} for p in rec.points]}
        for rec in cfg.records]}


_SAMPLERS = {2: _sample_order2, 3: _sample_order3, 4: _sample_order4, 6: _sample_order6}


def samples(order: int, count: int, seed: int = 20260810, **kwargs) -> list[Sample]:
    """``count`` samples of an order; each fixed locus implies the sample's eigenspace
    dimensions by the topological Lefschetz formula (:func:`oracles.implied_dims`)."""
    rng = Random(seed * 100 + order)
    out = [_SAMPLERS[order](rng, **kwargs) for _ in range(count)]
    for sample in out:
        dims = sample.config.eigenspace.dims
        assert implied_dims(sample.config) == dims, f"Lefschetz: {sample.invariants} {dims}"
    return out
