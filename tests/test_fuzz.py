"""Every document ends in an exit code, never in a traceback.

``run_text`` either returns exit 0, 2 or 3, or raises ``JSONDecodeError`` or
``SchemaError``, which the command line turns into exit 1.  An exit 2 lists
at least one violation and an exit 3 has at least one failed check, and the
JSON report is exactly what ``json.dumps(..., sort_keys=True)`` writes for
it, on one line.  The text report ends in the same exit code.

The documents start from consistent configurations, named or raw, and from
arbitrary named and raw documents of the right shape.  At most one field of
each is then moved by a small integer or replaced by a value of the wrong
kind or an integer too long to take, so that most documents reach
validation and many reach the engine.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bvhodge import cli
from generators import samples

ORDERS = (2, 3, 4, 6)
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

small = st.integers(-1, 6)
#: integers of 1000 digits (taken), 1001 digits (refused) and 4300 digits
#: (refused; Python reads it, but not a sum or product of it)
long_ints = st.builds(lambda sign, k: sign * 9 * 10 ** k,
                      st.sampled_from((1, -1)), st.sampled_from((999, 1000, 4299)))
junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
                 st.text(max_size=3), st.just({}), long_ints)


@st.composite
def eigenspace_dims(draw, n):
    """Symmetric dims summing to 22 most of the time, arbitrary otherwise."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.lists(st.integers(-1, 22), min_size=n, max_size=n))
    half = [draw(st.integers(1, 4)) for _ in range(n // 2)]  # d[1] .. d[n/2]
    mirrored = half + half[: (n - 1) // 2][::-1]
    return [22 - sum(mirrored)] + mirrored


def curves():
    return st.fixed_dictionaries(
        {"genus": small},
        optional={
            "orbit_size": st.sampled_from((1, 2, 3, 0)),
            "residual_order": st.sampled_from((1, 2, 3, 4)),
            "quotient_genus": st.one_of(st.none(), small),
            "char_dims": st.lists(st.integers(0, 3), max_size=6),
            "count": st.one_of(st.integers(0, 3), long_ints),
        })


def points():
    exponent = st.integers(0, 6)
    return st.fixed_dictionaries(
        {"type": st.tuples(exponent, exponent).map(list)},
        optional={"orbit_size": st.sampled_from((1, 2, 3)), "count": st.integers(0, 3)})


@st.composite
def raw_documents(draw):
    n = draw(st.sampled_from(ORDERS))
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    subgroups = draw(st.lists(st.fixed_dictionaries(
        {"order": st.sampled_from(divisors + [1, 5])},
        optional={"curves": st.lists(curves(), max_size=3),
                  "points": st.lists(points(), max_size=3)}),
        max_size=3))
    return {"order": n, "raw": {"eigenspace_dims": draw(eigenspace_dims(n)),
                                "subgroups": subgroups}}


#: the integer invariants of each order; the strategy draws the other two apart
_NAMED_KEYS = {n: tuple(k for k in keys if k not in ("curve_genera", "D_type"))
               for n, keys in cli._INVARIANT_KEYS.items()}


@st.composite
def named_documents(draw):
    n = draw(st.sampled_from(ORDERS))
    inv = {key: draw(st.integers(-1, 12)) for key in _NAMED_KEYS[n]}
    if n == 2:
        inv["curve_genera"] = draw(st.lists(small, max_size=4))
    if n == 4:
        inv["D_type"] = draw(st.sampled_from(("first", "second")))
    return {"order": n, "invariants": inv}


def raw_form(cfg) -> dict:
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


@st.composite
def consistent_documents(draw):
    """A configuration that passes every check, as a named or a raw document."""
    n = draw(st.sampled_from(ORDERS))
    drawn = samples(n, 1, seed=draw(st.integers(0, 2 ** 32)))[0]
    if draw(st.booleans()):
        return {"order": n, "invariants": drawn.invariants}
    return {"order": n, "raw": raw_form(drawn.config)}


def _fields(node, path=()):
    """The path of every value below the top level of a JSON document."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,), child
        yield from _fields(child, path + (key,))


@st.composite
def documents(draw):
    """A document of either kind with at most one field moved or replaced by junk."""
    # every source is drawn and one is kept: drawn first, the choice of source would
    # leave consistent documents so few choices that Hypothesis skips most as seen
    drawn = [draw(consistent_documents()), draw(raw_documents()), draw(named_documents())]
    doc = json.loads(json.dumps(drawn[draw(st.sampled_from((0, 0, 1, 2)))]))
    change = draw(st.sampled_from(("none", "nudge", "junk")))
    fields = [(path, value) for path, value in _fields(doc)
              if change == "junk" or type(value) is int]
    if change == "none" or not fields:
        return doc
    path, value = draw(st.sampled_from(fields))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = (draw(junk) if change == "junk"
                        else value + draw(st.integers(-2, 2).filter(bool)))
    return doc


@st.composite
def long_integer_texts(draw):
    """A document with one integer longer than Python converts from a string."""
    digits = "9" * draw(st.integers(4_301, 6_000))
    n = draw(st.sampled_from(ORDERS))
    key = draw(st.sampled_from(_NAMED_KEYS[n]))
    return draw(st.sampled_from((
        '{"order": %d, "invariants": {"%s": %s}}' % (n, key, digits),
        '{"order": %d, "raw": {"eigenspace_dims": [%s]}}' % (n, digits),
        '{"order": %s}' % digits,
    )))


@st.composite
def nested_texts(draw):
    """Valid JSON nested deeper than the parser can descend."""
    depth = draw(st.integers(3_000, 20_000))
    inner = draw(st.sampled_from(("[" * depth + "]" * depth,
                                  '{"x": ' * depth + "0" + "}" * depth)))
    return draw(st.sampled_from((inner, '{"order": 2, "raw": ' + inner + "}")))


def _assert_exit_code(text):
    """Run ``text`` in both formats; return the exit code."""
    try:
        rendered, code = cli.run_text(text, fmt="json")
    except (json.JSONDecodeError, cli.SchemaError):
        return cli.EXIT_PARSE
    payload = json.loads(rendered)
    assert json.dumps(payload, sort_keys=True) + "\n" == rendered
    assert code in (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_CHECK), code
    assert payload["exit_code"] == code
    if code == cli.EXIT_INVALID:
        assert payload["violations"]
    if code == cli.EXIT_CHECK:
        assert any(c["status"] == "fail" for c in payload["checks"])

    text_report, text_code = cli.run_text(text, fmt="text")
    assert text_code == code
    assert text_report.startswith(f"order {payload['order']} quotient of K3 x E\n")
    return code


ODD_ORDER3_SPLIT = {"order": 6, "raw": {
    "eigenspace_dims": [2, 4, 4, 4, 4, 4],
    "subgroups": [{"order": 2, "curves": [
        {"genus": 2, "residual_order": 3, "quotient_genus": 1}]}],
}}


@FUZZ
@given(documents())
@example(ODD_ORDER3_SPLIT)
@example({"order": 2, "raw": {"eigenspace_dims": [10, 12],
                              "subgroups": [{"order": 2, "curves": 5}]}})
@example({"order": 2, "raw": {"eigenspace_dims": [10, 12],
                              "subgroups": [{"order": 2, "points": None}]}})
def test_documents_end_in_an_exit_code(doc):
    _assert_exit_code(json.dumps(doc))


@settings(max_examples=10, deadline=None)
@given(long_integer_texts())
def test_over_long_integers_end_in_an_exit_code(text):
    _assert_exit_code(text)


@settings(max_examples=10, deadline=None)
@given(nested_texts())
@example("[" * 5_000 + "]" * 5_000)
def test_deeply_nested_documents_end_in_an_exit_code(text):
    _assert_exit_code(text)
