"""Seeded documents for the benchmark, each with its expected outcome.

Nothing here imports the package under test.  The catalog is every distinct
named-invariant tuple that the consistent-configuration sampler reaches in
its default draws (a port of the sampler in the repository's test
generators, kept separate so that test refactors cannot move the
workloads).  Every document carries its expected exit code, and every
exit-0 or exit-3 document its expected Hodge numbers, all derived from
formulas in this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random
from typing import Optional

K3_H2_DIM = 22
ORDERS = (2, 3, 4, 6)

#: pair-sum reduction weights of e(Fix(g^c)) for the power classes c = 1, 2, 3
EULER_WEIGHTS = {2: (6,), 3: (8,), 4: (6, 3), 6: (4, 4, 2)}


@dataclass(frozen=True)
class Doc:
    """One input document and what the package must answer for it.

    ``order`` is the order of the catalog tuple the document was made from.
    ``hodge`` is the expected engine ``(h11, h21, e)`` for documents that
    reach the engine, where ``e`` is the pair-sum Euler characteristic the
    CLI prints.
    """

    text: str
    kind: str
    order: int
    fmt: str
    expect: int
    hodge: Optional[tuple[int, int, int]] = None


# ---------------------------------------------------------------------------
# consistent named-invariant tuples: a port of the test sampler
#
# The draws below consume the random stream call for call like the sampler
# in the repository's test generators, so with the same seed both produce
# the same tuples.  Bounds: genera at most 5, counts at most 10.

#: seed and draws per order that define the catalog (the test sampler's defaults)
CATALOG_SEED = 20260810
CATALOG_DRAWS = 2000
MAX_TRIES = 500


def _aas_relations_order4(k, a, b, g_d, h):
    r_num = 12 + k + 2 * a + b - g_d + 4 * h
    m_num = 12 - k - 2 * a - b + g_d
    if r_num % 2 or m_num % 2:
        return None
    r, m = r_num // 2, m_num // 2
    if r < 0 or m < 0:
        return None
    return r, m


def _order2(rng: Random):
    n_curves = rng.randint(0, 6)
    genera = sorted((rng.randint(0, 5) for _ in range(n_curves)), reverse=True)
    r = 10 + n_curves - sum(genera)
    if not 1 <= r <= 20:
        return None
    return {"r": r, "curve_genera": genera}


def _order3(rng: Random):
    k = rng.randint(0, 4)
    g_c = rng.randint(0, 5) if k else 0
    n_points = rng.randint(0, 10)
    if k + n_points == 0:
        return None
    e_fix = 2 * k - 2 * g_c + n_points
    if e_fix % 3:
        return None
    r = (2 * e_fix + 18) // 3
    if not 1 <= r <= 20:
        return None
    return {"r": r, "m": (22 - r) // 2, "k": k, "n_points": n_points, "g_C": g_c}


def _order4(rng: Random):
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
            return None
        gq = rng.randint(gq_min, gq_max)
        n2 = 2 + 2 * g_d - 4 * gq
        n1 = 2 * h + 4 - n2
        b = n1 // 2 + 1
    a = rng.randint(0, 2)
    rm = _aas_relations_order4(k, a, b, g_d, h)
    if rm is None:
        return None
    r, m = rm
    if r < 1 or m < 1 or 22 - r - 2 * m < 0:
        return None
    if max(k, a, b, n1, n2, k + b + 2 * a) > 10:
        return None
    return {"r": r, "m": m, "k": k, "a": a, "b": b, "n1": n1, "n2": n2,
            "g_D": g_d, "D_type": d_type}


def _f_curve_menu(rng: Random):
    """Genus shapes of the invariant cube-fixed curves when g(D) = 0."""
    choice = rng.randint(0, 2)
    if choice == 0:
        return (), 0
    if choice == 1:
        g = rng.randint(1, 5)
        drops = [q for q in range(0, min(g, (2 + g) // 3) + 1) if (g - q) % 2 == 0]
        if not drops:
            return (), 0
        gq = rng.choice(drops)
        return ((g, gq),), (g - gq) // 2
    both = rng.choice((((1, 1), (1, 1)), ((1, 0), (1, 0))))
    return both, sum(g - gq for g, gq in both) // 2


def _order6(rng: Random):
    g_d = rng.choice((0, 1))
    if g_d == 1:
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
            g_gq = rng.randint(0, min(g_g, (2 + 2 * g_g) // 4))
        else:
            g_g = g_gq = 0
        rebalance = 2 * (g_g - g_gq)
        b = rng.randint(0, rebalance // 2)
        n_prime = rebalance - 2 * b
        f_shapes, a = _f_curve_menu(rng)
        g_f1, g_f1q = f_shapes[0] if f_shapes else (0, 0)
        g_f2, g_f2q = f_shapes[1] if len(f_shapes) > 1 else (0, 0)
        c2 = (1 if has_g else 0) + rng.randint(0, 3)
        c3 = len(f_shapes) + rng.randint(0, 3)
        p34 = 2 * (c2 - (1 if has_g else 0)) + ((2 + 2 * g_g - 4 * g_gq) if has_g else 0)
        total_p = 2 * (c3 - len(f_shapes)) + sum(2 + g - 3 * gq for g, gq in f_shapes)
    p25 = total_p - p34
    if p25 < 0:
        return None
    k = l + c2 + 2 * b
    n_cube = l + c3 + 3 * a
    n_points_sq = p25 + 2 * n_prime
    e1 = 2 * l - 2 * g_d + p25 + p34
    if e1 % 6 or not 0 <= e1 <= 18:
        return None
    m = (24 - e1) // 6
    r = 22 - 5 * m
    if max(l, k, n_cube, a, b, n_prime, p25, p34, n_points_sq) > 10:
        return None
    e2 = 2 * k - 2 * (g_d if g_d else g_g) + n_points_sq
    e3 = 2 * n_cube - 2 * (g_d if g_d else g_f1) - 2 * g_f2
    if not e1 == e2 == e3:
        raise RuntimeError(f"order-6 sampler imbalance: {e1}, {e2}, {e3}")
    return {"r": r, "m": m, "l": l, "k": k, "N": n_cube, "a": a, "b": b,
            "n_prime": n_prime, "p25": p25, "p34": p34, "g_D": g_d,
            "g_G": g_g, "g_G_quot": g_gq, "g_F1": g_f1, "g_F1_quot": g_f1q,
            "g_F2": g_f2, "g_F2_quot": g_f2q}


_SAMPLERS = {2: _order2, 3: _order3, 4: _order4, 6: _order6}


def _draw(order: int, rng: Random) -> dict:
    for _ in range(MAX_TRIES):
        inv = _SAMPLERS[order](rng)
        if inv is not None:
            return inv
    raise RuntimeError(f"order-{order} sampler failed to produce a consistent tuple")


def catalog_tuples() -> list[tuple[int, dict]]:
    """Distinct ``(order, invariants)`` pairs the sampler reaches, first seen first.

    The same for every benchmark seed: the seed only orders the documents.
    """
    found: dict[str, tuple[int, dict]] = {}
    for order in ORDERS:
        rng = Random(CATALOG_SEED * 100 + order)
        for _ in range(CATALOG_DRAWS):
            inv = _draw(order, rng)
            found.setdefault(json.dumps([order, inv], sort_keys=True), (order, inv))
    return list(found.values())


# ---------------------------------------------------------------------------
# the expected answer: closed forms in the named invariants


def closed_form(order: int, inv: dict) -> tuple[int, int]:
    """(h11, h21) of the resolved quotient from the named invariants."""
    if order == 2:
        genera = inv["curve_genera"]
        return inv["r"] + 1 + 4 * len(genera), K3_H2_DIM - inv["r"] - 1 + 4 * sum(genera)
    if order == 3:
        return (inv["r"] + 1 + 3 * inv["n_points"] + 6 * inv["k"],
                inv["m"] - 1 + 6 * inv["g_C"])
    if order == 4:
        h11 = (1 + inv["r"] + 7 * inv["k"] + 3 * inv["b"] + 2 * (inv["n1"] + inv["n2"])
               + 4 * inv["a"])
        if inv["D_type"] == "first":
            return h11, inv["m"] - 1 + 7 * inv["g_D"]
        return h11, inv["m"] + 2 * inv["g_D"] - inv["n2"] // 2
    h11 = (inv["r"] + 1 + 2 * inv["l"] + 2 * inv["N"] - 2 * inv["b"] + 4 * inv["k"]
           - 2 * inv["a"] + 3 * inv["n_prime"] + 3 * inv["p25"] + inv["p34"])
    tail = inv["g_F2"] + inv["g_F2_quot"]
    if inv["g_D"] == 1:
        return h11, inv["m"] - 1 + 8 + tail
    return h11, (inv["m"] - 1 + 2 * inv["g_G"] + 2 * inv["g_G_quot"]
                 + inv["g_F1"] + inv["g_F1_quot"] + tail)


def cy_diamond(h11: int, h21: int) -> list[list[int]]:
    """Full Hodge table ``[p][q]`` of a Calabi-Yau threefold."""
    return [[1, 0, 0, 1], [0, h11, h21, 0], [0, h21, h11, 0], [1, 0, 0, 1]]


def pictogram_rows(h11: int, h21: int) -> list[list[int]]:
    """The diamond as the CLI draws it: one row per total degree p+q."""
    table = cy_diamond(h11, h21)
    return [[table[p][k - p] for p in range(3, -1, -1) if 0 <= k - p <= 3]
            for k in range(7)]


def pairsum_euler(order: int, raw: dict) -> int:
    """Reduced pair-sum Euler characteristic from the raw fixed-locus records."""
    euler = {}
    for sub in raw["subgroups"]:
        euler[sub["order"]] = (
            sum(c.get("count", 1) * c.get("orbit_size", 1) * (2 - 2 * c["genus"])
                for c in sub.get("curves", []))
            + sum(p.get("count", 1) * p.get("orbit_size", 1) for p in sub.get("points", [])))
    classes = [c for c in range(1, order) if order % c == 0]
    return sum(w * euler.get(order // c, 0)
               for w, c in zip(EULER_WEIGHTS[order], classes))


# ---------------------------------------------------------------------------
# the raw form of a named tuple


def _entries(*specs) -> list[dict]:
    """Keep specs with a positive count; drop a count of one."""
    out = []
    for spec in specs:
        count = spec.get("count", 1)
        if count > 0:
            out.append({k: v for k, v in spec.items() if not (k == "count" and v == 1)})
    return out


def raw_records(order: int, inv: dict) -> dict:
    """Eigenspace dimensions and per-subgroup fixed loci of a named tuple."""
    if order == 2:
        genera = inv["curve_genera"]
        curves = _entries(*({"genus": g, "count": genera.count(g)}
                            for g in sorted(set(genera), reverse=True)))
        return {"eigenspace_dims": [inv["r"], K3_H2_DIM - inv["r"]],
                "subgroups": [{"order": 2, "curves": curves, "points": []}]}
    if order == 3:
        k = inv["k"]
        curves = _entries({"genus": inv["g_C"], "count": 1 if k else 0},
                          {"genus": 0, "count": max(k - 1, 0)})
        points = _entries({"type": [2, 2], "count": inv["n_points"]})
        return {"eigenspace_dims": [inv["r"], inv["m"], inv["m"]],
                "subgroups": [{"order": 3, "curves": curves, "points": points}]}
    if order == 4:
        return _raw_order4(inv)
    return _raw_order6(inv)


def _raw_order4(inv: dict) -> dict:
    k, a, b, g_d, n2 = inv["k"], inv["a"], inv["b"], inv["g_D"], inv["n2"]
    if inv["D_type"] == "first":
        fixed = _entries({"genus": g_d}, {"genus": 0, "count": k - 1})
        invariant = _entries({"genus": 0, "residual_order": 2, "quotient_genus": 0, "count": b})
    else:
        fixed = _entries({"genus": 0, "count": k})
        invariant = _entries(
            {"genus": g_d, "residual_order": 2, "quotient_genus": (2 + 2 * g_d - n2) // 4},
            {"genus": 0, "residual_order": 2, "quotient_genus": 0, "count": b - 1})
    swapped = _entries({"genus": 0, "orbit_size": 2, "count": a})
    dims = [inv["r"], inv["m"], K3_H2_DIM - inv["r"] - 2 * inv["m"], inv["m"]]
    return {"eigenspace_dims": dims, "subgroups": [
        {"order": 4, "curves": fixed,
         "points": _entries({"type": [2, 3], "count": inv["n1"] + n2})},
        {"order": 2, "curves": fixed + invariant + swapped, "points": []},
    ]}


def _raw_order6(inv: dict) -> dict:
    l, g_d = inv["l"], inv["g_D"]
    c2 = inv["k"] - l - 2 * inv["b"]
    c3 = inv["N"] - l - 3 * inv["a"]
    fixed = _entries({"genus": g_d, "count": 1 if l else 0},
                     {"genus": 0, "count": l - 1 if l else 0})
    if g_d == 0 and inv["g_G"] > 0:
        by_square = _entries(
            {"genus": inv["g_G"], "residual_order": 2, "quotient_genus": inv["g_G_quot"]},
            {"genus": 0, "residual_order": 2, "quotient_genus": 0, "count": c2 - 1})
    else:
        by_square = _entries({"genus": 0, "residual_order": 2, "quotient_genus": 0, "count": c2})
    placed = []
    if g_d == 0 and inv["g_F1"] > 0:
        placed.append((inv["g_F1"], inv["g_F1_quot"]))
    if inv["g_F2"] > 0:
        placed.append((inv["g_F2"], inv["g_F2_quot"]))
    by_cube = []
    for g, gq in placed:
        entry = {"genus": g, "residual_order": 3, "quotient_genus": gq}
        if (g - gq) % 2:
            # no balanced split of an odd non-invariant part; near-balanced
            entry["char_dims"] = [gq, 0, (g - gq + 1) // 2, 0, (g - gq) // 2, 0]
        by_cube.append(entry)
    by_cube += _entries({"genus": 0, "residual_order": 3, "quotient_genus": 0,
                         "count": c3 - len(placed)})
    return {"eigenspace_dims": [inv["r"]] + [inv["m"]] * 5, "subgroups": [
        {"order": 6, "curves": fixed,
         "points": _entries({"type": [2, 5], "count": inv["p25"]},
                            {"type": [3, 4], "count": inv["p34"]})},
        {"order": 3,
         "curves": fixed + by_square + _entries({"genus": 0, "orbit_size": 2, "count": inv["b"]}),
         "points": _entries({"type": [4, 4], "count": inv["p25"]},
                            {"type": [4, 4], "orbit_size": 2, "count": inv["n_prime"]})},
        {"order": 2,
         "curves": fixed + by_cube + _entries({"genus": 0, "orbit_size": 3, "count": inv["a"]}),
         "points": []},
    ]}


def _expected_engine(order: int, inv: dict) -> tuple[int, int, int]:
    """Closed-form ``(h11, h21, e)``; the generator's own consistency check.

    The Calabi-Yau relation e = 2(h11 - h21) must agree with the pair-sum
    Euler characteristic of the raw records, or the tuple (or the raw form)
    is wrong and the benchmark refuses to start.
    """
    h11, h21 = closed_form(order, inv)
    euler = pairsum_euler(order, raw_records(order, inv))
    if euler != 2 * (h11 - h21):
        raise RuntimeError(f"inconsistent catalog tuple {order} {inv}: {euler} != 2*({h11}-{h21})")
    return h11, h21, euler


# ---------------------------------------------------------------------------
# workloads


def catalog(seed: int, tuples) -> list[Doc]:
    """Every catalog tuple as a named-invariant JSON document, shuffled by seed."""
    docs = [Doc(json.dumps({"order": order, "invariants": inv}), "named", order, "json", 0,
                _expected_engine(order, inv))
            for order, inv in tuples]
    Random(seed).shuffle(docs)
    return docs


def _shifts(order: int, dims: list[int]) -> list[list[int]]:
    """Every valid one-step move of weight between d[0] and a conjugate pair.

    The moves keep the dimensions structurally valid but change
    h11 - h21 of the untwisted part, while the pair-sum Euler
    characteristic depends only on the fixed locus: the Euler routes must
    then disagree (exit 3).
    """
    need = 2 if order == 2 else 1
    out = []
    for j in range(1, order // 2 + 1):
        for delta in (1, -1):
            new = list(dims)
            if j == order - j:
                new[0] += delta
                new[j] -= delta
            else:
                new[0] += 2 * delta
                new[j] -= delta
                new[order - j] -= delta
            if min(new) >= 0 and new[0] >= 1 and new[1] >= need:
                out.append(new)
    return out


def raw_text(seed: int, tuples) -> list[Doc]:
    """Catalog tuples in raw form, rendered as text; half of them shifted to exit 3.

    With no traffic data to go by, the two kinds take equal shares.  The
    shifted half is drawn per order, so every seed has the same mix.
    """
    rng = Random(seed)
    shifted = set()
    for order in ORDERS:
        same = [i for i, (o, _) in enumerate(tuples) if o == order]
        shifted.update(rng.sample(same, len(same) // 2))
    docs = []
    for i, (order, inv) in enumerate(tuples):
        h11, h21, euler = _expected_engine(order, inv)
        raw = raw_records(order, inv)
        if i in shifted:
            dims = raw["eigenspace_dims"]
            new = rng.choice(_shifts(order, dims))
            # only the untwisted part moves: h11 by d[0], h21 by d[1]
            h11 += new[0] - dims[0]
            h21 += new[1] - dims[1]
            raw["eigenspace_dims"] = new
            docs.append(Doc(json.dumps({"order": order, "raw": raw}), "raw-shifted",
                            order, "text", 3, (h11, h21, euler)))
        else:
            docs.append(Doc(json.dumps({"order": order, "raw": raw}), "raw",
                            order, "text", 0, (h11, h21, euler)))
    rng.shuffle(docs)
    return docs


#: kinds of the rejects workload; with no traffic data to go by, each takes an equal share
REJECT_KINDS = ("nested", "malformed", "schema", "invalid-named", "invalid-raw")
#: documents per kind in one pass of the rejects workload
REJECTS_PER_KIND = 200


def _int_paths(node, path=()):
    """Paths to every integer leaf of a JSON value (not to booleans)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _int_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _int_paths(value, path + (i,))
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path


def _set(node, path, value):
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _nested(rng: Random, variant: int, order: int, inv: dict) -> str:
    """Valid JSON nested deeper than any sane recursion limit (expect exit 1).

    Wherever it parses, the schema rejects it: a list or object at the top
    level, or in a field that must be an integer.
    """
    depth = rng.randint(2500, 3500)
    if variant % 2:
        inner = "[" * depth + "]" * depth
    else:
        inner = '{"x": ' * depth + "0" + "}" * depth
    if variant // 2 % 2:
        return inner
    doc = json.dumps({"order": order, "invariants": dict(inv, r=None)})
    return doc.replace('"r": null', '"r": ' + inner, 1)


def _malformed(rng: Random, variant: int, text: str) -> str:
    """Broken JSON syntax (expect exit 1)."""
    how = variant % 4
    if how == 0:
        return text[: rng.randrange(len(text))]  # every proper prefix of an object
    if how == 1:
        colons = [i for i, ch in enumerate(text) if ch == ":"]
        i = rng.choice(colons)
        return text[:i] + "=" + text[i + 1:]
    if how == 2:
        return text + rng.choice((" x", ",", " {}", " 1"))
    return text.replace('"', "'")


def _schema(rng: Random, variant: int, doc: dict) -> dict | list | int | str:
    """Well-formed JSON that violates the document schema (expect exit 1)."""
    doc = json.loads(json.dumps(doc))
    form = "raw" if "raw" in doc else "invariants"
    how = variant % 8
    if how == 0:
        del doc[rng.choice(("order", form))]
    elif how == 1:
        target = rng.choice([doc, doc[form]] + (
            [c for s in doc["raw"]["subgroups"] for c in s["curves"] + s["points"]]
            if form == "raw" else []))
        target["unexpected"] = 1
    elif how == 2:
        path = rng.choice(list(_int_paths(doc)))
        _set(doc, path, rng.choice(("7", 2.5, True, [1]))
             if path != ("order",) else rng.choice(("2", 2.0, True)))
    elif how == 3:
        doc["order"] = rng.choice((0, 1, 5, 7, 8, 12, -2))
    elif how == 4:
        doc["raw" if form == "invariants" else "invariants"] = {}
    elif how == 5:
        doc = rng.choice(([doc], 42, "order", None))
    elif how == 6 and form == "raw":
        dims = doc["raw"]["eigenspace_dims"]
        doc["raw"]["eigenspace_dims"] = dims + [0] if rng.random() < 0.5 else dims[:-1]
    elif how == 6:
        doc["invariants"] = rng.choice(([], None, 3))
    elif form == "raw":
        doc["raw"]["subgroups"] = rng.choice(({}, 3, [[]], [{"order": 2, "curves": [3]}]))
    else:
        del doc["invariants"][rng.choice(list(doc["invariants"]))]
    return doc


def _invalid_named(rng: Random, variant: int, order: int, inv: dict) -> dict:
    """Schema-valid named invariants that break a structural rule (exit 2)."""
    inv = dict(inv)
    if variant % 2:
        keys = [k for k, v in inv.items() if isinstance(v, int)]
        inv[rng.choice(keys)] = -rng.randint(1, 3)
    elif order == 2:
        inv["r"] = rng.choice((0, 23, 30))
    elif order == 4:
        inv["b"] += 1
    else:
        inv["m"] += rng.choice((1, -1)) if inv["m"] > 0 else 1
    return {"order": order, "invariants": inv}


def _invalid_raw(rng: Random, variant: int, order: int, raw: dict) -> dict:
    """Schema-valid raw records that break a structural rule (exit 2)."""
    raw = json.loads(json.dumps(raw))
    dims, subs = raw["eigenspace_dims"], raw["subgroups"]
    curves = [c for s in subs for c in s["curves"]]
    points = [p for s in subs for p in s["points"]]
    moves = ["dims-sum", "subgroup-order", "duplicate"]
    if order > 2:
        moves.append("dims-asymmetric")
    if curves:
        moves += ["genus", "count", "residual"]
    if points:
        moves.append("point-type")
    how = moves[variant % len(moves)]
    if how == "dims-sum":
        dims[0] += rng.choice((1, 2, -dims[0] - 1))
    elif how == "dims-asymmetric":
        dims[0] -= 1
        dims[1] += 1
    elif how == "subgroup-order":
        subs.append({"order": rng.choice((1, 5, order + 1, 2 * order)), "curves": [],
                     "points": []})
    elif how == "duplicate":
        subs.append(json.loads(json.dumps(subs[0])))
    elif how == "genus":
        rng.choice(curves)["genus"] = -rng.randint(1, 4)
    elif how == "count":
        rng.choice(curves)[rng.choice(("count", "orbit_size"))] = rng.choice((0, -1))
    elif how == "residual":
        rng.choice(curves)["residual_order"] = rng.choice((4, 5, 6))
    else:
        rng.choice(points)["type"] = rng.choice(([0, 1], [order, 1], [1, 1]))
    return {"order": order, "raw": raw}


def rejects(seed: int, tuples) -> list[Doc]:
    """Documents refused before the engine runs, an equal number of each kind.

    The deeply nested ones are valid JSON that the parser cannot descend;
    a correct package rejects them with exit 1 like any other schema error.
    Each kind takes its base tuples from the orders in turn, named and raw
    in turn, and its ways of breaking a document (``variant``) in turn, so
    the seed changes the documents but hardly their cost.
    """
    rng = Random(seed)
    by_order = {order: [inv for o, inv in tuples if o == order] for order in ORDERS}
    docs = []
    for kind in REJECT_KINDS:
        for i in range(REJECTS_PER_KIND):
            order = ORDERS[i % len(ORDERS)]
            inv = rng.choice(by_order[order])
            named = {"order": order, "invariants": inv}
            raw = {"order": order, "raw": raw_records(order, inv)}
            base = raw if i // len(ORDERS) % 2 else named
            variant = i // (2 * len(ORDERS))
            if kind == "nested":
                docs.append(Doc(_nested(rng, variant, order, inv), kind, order, "json", 1))
            elif kind == "malformed":
                docs.append(Doc(_malformed(rng, variant, json.dumps(base)), kind, order,
                                "json", 1))
            elif kind == "schema":
                docs.append(Doc(json.dumps(_schema(rng, variant, base)), kind, order, "json", 1))
            elif kind == "invalid-named":
                docs.append(Doc(json.dumps(_invalid_named(rng, variant, order, inv)), kind,
                                order, "json", 2))
            else:
                docs.append(Doc(json.dumps(_invalid_raw(rng, variant, order, raw["raw"])), kind,
                                order, "json", 2))
    rng.shuffle(docs)
    return docs


WORKLOADS = {"catalog": catalog, "raw-text": raw_text, "rejects": rejects}
