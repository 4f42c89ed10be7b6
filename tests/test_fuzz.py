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

Raw documents drawn the same way are also read by ``read_raw_fieldwise``,
the field-by-field reader in ``oracles.py``: ``parse_config`` must build an
equal configuration, list equal violations, or raise the same schema message.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bvhodge import cli, validate
from bvhodge.fixed_locus import InvariantError
from generators import raw_form, samples
from oracles import read_raw_fieldwise

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


@st.composite
def consistent_documents(draw, forms=("invariants", "raw")):
    """A configuration that passes every check, as a document of one of ``forms``."""
    n = draw(st.sampled_from(ORDERS))
    drawn = samples(n, 1, seed=draw(st.integers(0, 2 ** 32)))[0]
    if draw(st.sampled_from(forms)) == "invariants":
        return {"order": n, "invariants": drawn.invariants}
    return {"order": n, "raw": raw_form(drawn.config)}


def _fields(node, path=()):
    """The path of every value below the top level of a JSON document."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,), child
        yield from _fields(child, path + (key,))


def _perturb(draw, node):
    """A copy of the JSON ``node`` with at most one value below it moved by a small
    integer or replaced by junk."""
    node = json.loads(json.dumps(node))
    change = draw(st.sampled_from(("none", "nudge", "junk")))
    fields = [(path, value) for path, value in _fields(node)
              if change == "junk" or type(value) is int]
    if change == "none" or not fields:
        return node
    path, value = draw(st.sampled_from(fields))
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = (draw(junk) if change == "junk"
                        else value + draw(st.integers(-2, 2).filter(bool)))
    return node


@st.composite
def documents(draw):
    """A document of either kind with at most one field moved or replaced by junk."""
    # every source is drawn and one is kept: drawn first, the choice of source would
    # leave consistent documents so few choices that Hypothesis skips most as seen
    drawn = [draw(consistent_documents()), draw(raw_documents()), draw(named_documents())]
    return _perturb(draw, drawn[draw(st.sampled_from((0, 0, 1, 2)))])


@st.composite
def raw_variants(draw):
    """A raw document, consistent or arbitrary, with at most one field of its ``raw``
    object moved or replaced by junk."""
    drawn = [draw(consistent_documents(forms=("raw",))), draw(raw_documents())]
    doc = drawn[draw(st.sampled_from((0, 1)))]
    return {"order": doc["order"], "raw": _perturb(draw, doc["raw"])}


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


def _raw(*subgroups, dims=(10, 12)):
    return {"order": len(dims), "raw": {"eigenspace_dims": list(dims),
                                        "subgroups": list(subgroups)}}


@FUZZ
@given(raw_variants())
@example(_raw({"order": 2, "curves": [{"genus": 0, "count": True}]}))
@example(_raw({"order": 2, "curves": [{"genus": 0, "orbit_size": 10 ** 1000}]}))
@example(_raw({"order": 2, "curves": [{"genus": 0, "char_dims": [0, -10 ** 1000]}]}))
@example(_raw({"order": 2, "points": [{"type": [1, 1], "count": 2.0}]}))
@example(_raw(dims=(10.0, 12)))
@example(_raw(dims=(10, 12, 10 ** 1000)))
def test_a_raw_document_reads_as_the_fieldwise_oracle_reads_it(doc):
    # the one-pass read of parse_config and the oracle agree: an equal configuration,
    # equal violations, or the same schema message
    try:
        expected = read_raw_fieldwise(doc["order"], doc["raw"])
    except cli.SchemaError as fault:
        with pytest.raises(cli.SchemaError) as refused:
            cli.parse_config(doc)
        assert str(refused.value) == str(fault)
        return
    try:
        cfg = cli.parse_config(doc)
    except InvariantError as invalid:
        assert list(invalid.violations) == validate(expected)
    else:
        assert not validate(expected)
        assert cfg == expected and repr(cfg) == repr(expected)
