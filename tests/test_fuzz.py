"""Every document ends in an exit code, never in a traceback.

``run_text`` either returns exit 0, 2 or 3, or raises ``JSONDecodeError`` or
``SchemaError``, which the command line turns into exit 1.  An exit 2 lists
at least one violation and an exit 3 has at least one failed check.  The
documents are drawn near the valid ones, so that most of them reach
validation or the engine, with some fields replaced by values of the wrong
kind.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bvhodge import cli

ORDERS = (2, 3, 4, 6)
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

small = st.integers(-1, 6)
junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
                 st.text(max_size=3), st.just({}))


def _or_junk(values):
    """Mostly ``values``, sometimes a JSON value of the wrong kind."""
    return st.one_of(values, values, values, junk)


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
        {"genus": _or_junk(small)},
        optional={
            "orbit_size": st.sampled_from((1, 2, 3, 0)),
            "residual_order": st.sampled_from((1, 2, 3, 4)),
            "quotient_genus": st.one_of(st.none(), small),
            "char_dims": st.lists(st.integers(0, 3), max_size=6),
            "count": st.integers(0, 3),
        })


def points():
    exponent = st.integers(0, 6)
    return st.fixed_dictionaries(
        {"type": _or_junk(st.tuples(exponent, exponent).map(list))},
        optional={"orbit_size": st.sampled_from((1, 2, 3)), "count": st.integers(0, 3)})


@st.composite
def raw_documents(draw):
    n = draw(st.sampled_from(ORDERS))
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    subgroups = draw(st.lists(st.fixed_dictionaries(
        {"order": _or_junk(st.sampled_from(divisors + [1, 5]))},
        optional={"curves": _or_junk(st.lists(_or_junk(curves()), max_size=3)),
                  "points": _or_junk(st.lists(_or_junk(points()), max_size=3))}),
        max_size=3))
    raw = {"eigenspace_dims": draw(eigenspace_dims(n)), "subgroups": subgroups}
    return {"order": n, "raw": draw(_or_junk(st.just(raw)))}


_NAMED_KEYS = {
    2: ("r",), 3: ("r", "m", "k", "n_points", "g_C"),
    4: ("r", "m", "k", "a", "b", "n1", "n2", "g_D"),
    6: ("r", "m", "l", "k", "N", "a", "b", "n_prime", "p25", "p34", "g_D",
        "g_G", "g_G_quot", "g_F1", "g_F1_quot", "g_F2", "g_F2_quot"),
}


@st.composite
def named_documents(draw):
    n = draw(st.sampled_from(ORDERS))
    inv = {key: draw(_or_junk(st.integers(-1, 12))) for key in _NAMED_KEYS[n]}
    if n == 2:
        inv["curve_genera"] = draw(_or_junk(st.lists(small, max_size=4)))
    if n == 4:
        inv["D_type"] = draw(_or_junk(st.sampled_from(("first", "second"))))
    return {"order": n, "invariants": inv}


@st.composite
def nested_texts(draw):
    """Valid JSON nested deeper than the parser can descend."""
    depth = draw(st.integers(3_000, 20_000))
    inner = draw(st.sampled_from(("[" * depth + "]" * depth,
                                  '{"x": ' * depth + "0" + "}" * depth)))
    return draw(st.sampled_from((inner, '{"order": 2, "raw": ' + inner + "}")))


def _assert_exit_code(text):
    try:
        rendered, code = cli.run_text(text, fmt="json")
    except (json.JSONDecodeError, cli.SchemaError):
        return
    payload = json.loads(rendered)
    assert code in (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_CHECK), code
    assert payload["exit_code"] == code
    if code == cli.EXIT_INVALID:
        assert payload["violations"]
    if code == cli.EXIT_CHECK:
        assert any(c["status"] == "fail" for c in payload["checks"])


ODD_ORDER3_SPLIT = {"order": 6, "raw": {
    "eigenspace_dims": [2, 4, 4, 4, 4, 4],
    "subgroups": [{"order": 2, "curves": [
        {"genus": 2, "residual_order": 3, "quotient_genus": 1}]}],
}}


@FUZZ
@given(st.one_of(raw_documents(), named_documents()))
@example(ODD_ORDER3_SPLIT)
@example({"order": 2, "raw": {"eigenspace_dims": [10, 12],
                              "subgroups": [{"order": 2, "curves": 5}]}})
@example({"order": 2, "raw": {"eigenspace_dims": [10, 12],
                              "subgroups": [{"order": 2, "points": None}]}})
def test_documents_end_in_an_exit_code(doc):
    _assert_exit_code(json.dumps(doc))


@settings(max_examples=10, deadline=None)
@given(nested_texts())
@example("[" * 5_000 + "]" * 5_000)
def test_deeply_nested_documents_end_in_an_exit_code(text):
    _assert_exit_code(text)
