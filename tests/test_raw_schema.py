"""The exact message of every schema error in a raw document.

Each field of a raw document gets each kind of bad value, and each object
a missing required key and two unknown keys at once.  The message must name
the field by its full path.  When two fields are bad, the message names the
one the parser reads first: the fields are listed below in that order.
"""

import copy

import pytest

from bvhodge import cli

BASE = {
    "order": 4,
    "raw": {
        "eigenspace_dims": [11, 3, 5, 3],
        "subgroups": [
            {"order": 4,
             "curves": [{"genus": 1}, {"genus": 0}],
             "points": [{"type": [2, 3], "count": 6}]},
            {"order": 2,
             "curves": [{"genus": 1}, {"genus": 0},
                        {"genus": 0, "residual_order": 2, "quotient_genus": 0, "count": 3},
                        {"genus": 0, "orbit_size": 2}]},
        ],
    },
}

SUB = ("raw", "subgroups", 0)
CURVE = SUB + ("curves", 1)
POINT = SUB + ("points", 0)
C, P = "raw.subgroups[0].curves[1]", "raw.subgroups[0].points[0]"

#: (where the field sits, its path in a message, its kind, the message when it
#: is missing or None if it may be left out), in the order the parser reads them
FIELDS = [
    (("order",), "order", "int", "top level.order: missing required field"),
    (("raw",), "raw", "object",
     "top level: exactly one of 'invariants' or 'raw' is required"),
    (("raw", "eigenspace_dims"), "raw.eigenspace_dims", "list",
     "raw.eigenspace_dims: missing required field"),
    (("raw", "eigenspace_dims", 2), "raw.eigenspace_dims[2]", "int", None),
    (("raw", "subgroups"), "raw.subgroups", "list", None),
    (SUB, "raw.subgroups[0]", "object", None),
    (SUB + ("order",), "raw.subgroups[0].order", "int",
     "raw.subgroups[0].order: missing required field"),
    (SUB + ("curves",), "raw.subgroups[0].curves", "list", None),
    (CURVE, C, "object", None),
    (CURVE + ("char_dims",), C + ".char_dims", "list", None),
    (CURVE + ("char_dims", 2), C + ".char_dims[2]", "int", None),
    (CURVE + ("genus",), C + ".genus", "int", C + ".genus: missing required field"),
    (CURVE + ("orbit_size",), C + ".orbit_size", "int", None),
    (CURVE + ("residual_order",), C + ".residual_order", "int", None),
    (CURVE + ("quotient_genus",), C + ".quotient_genus", "int", None),
    (CURVE + ("count",), C + ".count", "int", None),
    (SUB + ("points",), "raw.subgroups[0].points", "list", None),
    (POINT, P, "object", None),
    (POINT + ("type",), P + ".type", "pair", P + ".type: missing required field"),
    (POINT + ("type", 0), P + ".type[0]", "int", None),
    (POINT + ("type", 1), P + ".type[1]", "int", None),
    (POINT + ("orbit_size",), P + ".orbit_size", "int", None),
    (POINT + ("count",), P + ".count", "int", None),
    (("raw", "subgroups", 1), "raw.subgroups[1]", "object", None),
    (("raw", "subgroups", 1, "order"), "raw.subgroups[1].order", "int",
     "raw.subgroups[1].order: missing required field"),
]

#: the objects that refuse unknown keys, with the path their message names
OBJECTS = [((), "top level"), (("raw",), "raw"), (SUB, "raw.subgroups[0]"),
           (CURVE, C), (POINT, P)]

LONG = 10 ** 1000  # 1001 digits
BAD = {"float": 1.5, "bool": True, "string": "1", "long": LONG, "null": None}
#: the fields where null means absent rather than a bad value
NULL_IS_ABSENT = {C + ".char_dims", C + ".quotient_genus"}
NOT = {"object": "expected an object", "list": "expected a list",
       "pair": "expected a pair of exponents"}


def _expected(path: str, kind: str, value) -> str:
    if kind != "int":
        return f"{path}: {NOT[kind]}"
    if value is LONG:
        return f"{path}: integer field too long"
    return f"{path}: expected an integer, got {value!r}"


def _with(doc, where, value=None, delete=False):
    node = doc
    for step in where[:-1]:
        node = node[step]
    if delete:
        del node[where[-1]]
    else:
        node[where[-1]] = value
    return doc


def _message(doc) -> str:
    with pytest.raises(cli.SchemaError) as info:
        cli.parse_config(doc)
    return str(info.value)


def _char_dims_base():
    # char_dims[2] needs a list to sit in
    return _with(copy.deepcopy(BASE), CURVE + ("char_dims",), [0, 0, 0, 0])


def test_the_base_documents_are_valid():
    for doc in (copy.deepcopy(BASE), _char_dims_base()):
        assert cli.parse_config(doc).n == 4


@pytest.mark.parametrize("bad", BAD, ids=list(BAD))
@pytest.mark.parametrize("where, path, kind, missing", FIELDS, ids=[f[1] for f in FIELDS])
def test_a_bad_value_is_named_by_its_path(where, path, kind, missing, bad):
    doc = _with(_char_dims_base(), where, BAD[bad])
    if BAD[bad] is None and path in NULL_IS_ABSENT:
        null = cli.parse_config(doc)
        assert null == cli.parse_config(_with(doc, where, delete=True))
    else:
        assert _message(doc) == _expected(path, kind, BAD[bad])


@pytest.mark.parametrize("where, missing", [(f[0], f[3]) for f in FIELDS if f[3]],
                         ids=[f[1] for f in FIELDS if f[3]])
def test_a_missing_required_field_is_named_by_its_path(where, missing):
    assert _message(_with(copy.deepcopy(BASE), where, delete=True)) == missing


@pytest.mark.parametrize("where, path", OBJECTS, ids=[o[1] for o in OBJECTS])
def test_unknown_fields_are_named_sorted(where, path):
    doc = copy.deepcopy(BASE)
    node = doc
    for step in where:
        node = node[step]
    node["zz"] = node["aa"] = 0
    assert _message(doc) == f"{path}: unknown fields ['aa', 'zz']"


@pytest.mark.parametrize("first", range(len(FIELDS)), ids=[f[1] for f in FIELDS])
def test_of_two_bad_fields_the_first_read_is_named(first):
    where, path, kind, _ = FIELDS[first]
    for later, *_ in FIELDS[first + 1:]:
        # the later field first, in case the earlier one holds it
        doc = _with(_with(_char_dims_base(), later, 1.5), where, 1.5)
        assert _message(doc) == _expected(path, kind, 1.5), later
