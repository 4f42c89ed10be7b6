"""The value types' contract: frozen, compared and hashed by their fields, picklable.

Every record of the package is an immutable value: two records of one
class with equal fields are equal and hash alike, records of different
classes never compare equal, assignment and deletion raise
``AttributeError``, the ``repr`` spells out every field by name, and
``pickle``, ``copy.copy`` and ``copy.deepcopy`` give back an equal record.
"""

import copy
import json
import pickle

import pytest

from bvhodge import cli
from bvhodge.closed_forms import HodgePair
from bvhodge.fixed_locus import (
    CurveOrbit,
    EigenspaceDims,
    InvariantError,
    K3Config,
    PointOrbit,
    SubgroupFixedRecord,
    Violation,
    from_invariants_order3,
)
from bvhodge.hodge import CharacterVector, HodgeDiamond
from oracles import GroupElement, LocalAction, eager_sector_components

NAMED_FIXTURES = ("order2_two_curves", "order3_curve_and_point",
                  "order4_first_type", "order6_elliptic_top_curve")


def _config(name):
    return cli.parse_config(json.loads(cli.load_fixture_text(name)))


def _samples():
    """(record, field names in order, a differing record of the same class)."""
    cfg = _config("order4_first_type")
    components = eager_sector_components(cfg, 1)
    return [
        (Violation("order3", "bad"), ("where", "message"), Violation("order3", "worse")),
        (EigenspaceDims(3, (4, 9, 9)), ("n", "dims"), EigenspaceDims(3, (6, 8, 8))),
        (CurveOrbit(2, residual_order=2, quotient_genus=1, count=2),
         ("genus", "orbit_size", "residual_order", "quotient_genus", "char_dims", "count"),
         CurveOrbit(2, residual_order=2, quotient_genus=0, count=2)),
        (PointOrbit((2, 3), count=6), ("type_exponents", "orbit_size", "count"),
         PointOrbit((2, 3), count=5)),
        (SubgroupFixedRecord(3, (CurveOrbit(1),), (PointOrbit((2, 2)),)),
         ("subgroup_order", "curves", "points"), SubgroupFixedRecord(3, (CurveOrbit(1),))),
        (cfg, ("n", "eigenspace", "records", "invariants"), _config("order2_two_curves")),
        (CharacterVector(3, (1, 0, 2)), ("n", "c"), CharacterVector(3, (2, 0, 1))),
        (HodgeDiamond(1, ((1, 0), (0, 1))), ("d", "table"), HodgeDiamond(1, ((1, 1), (1, 1)))),
        (HodgePair(3, 4), ("h11", "h21"), HodgePair(4, 3)),
        (components[0], ("kind", "source", "exponents", "age", "entries"), components[-1]),
        (GroupElement(3, 4), ("n", "j"), GroupElement(3, 2)),
        (LocalAction(3, (1, 5)), ("n", "exponents"), LocalAction(3, (1, 1))),
    ]


SAMPLES = _samples()
IDS = [type(record).__name__ for record, *_ in SAMPLES]


def _rebuilt(record, fields):
    return type(record)(*(getattr(record, f) for f in fields))


@pytest.mark.parametrize("record, fields, other", SAMPLES, ids=IDS)
def test_equality_and_hash_follow_the_fields(record, fields, other):
    twin = _rebuilt(record, fields)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert other != record and not other == record
    assert record != tuple(getattr(record, f) for f in fields)
    assert len({record, twin, other}) == 2


@pytest.mark.parametrize("record, fields, other", SAMPLES, ids=IDS)
def test_records_are_frozen(record, fields, other):
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before


@pytest.mark.parametrize("record, fields, other", SAMPLES, ids=IDS)
def test_repr_names_every_field(record, fields, other):
    inner = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{type(record).__qualname__}({inner})"


def test_repr_spells_out_defaults_and_normalised_fields():
    assert repr(PointOrbit((2, 3), count=6)) == \
        "PointOrbit(type_exponents=(2, 3), orbit_size=1, count=6)"
    assert repr(CurveOrbit(1)) == ("CurveOrbit(genus=1, orbit_size=1, residual_order=1, "
                                   "quotient_genus=1, char_dims=None, count=1)")
    assert repr(HodgeDiamond(0, [[1]])) == "HodgeDiamond(d=0, table=((1,),))"
    assert repr(LocalAction(4, [5, -1])) == "LocalAction(n=4, exponents=(1, 3))"
    assert repr(Violation("eigenspace_dims", "x")) == \
        "Violation(where='eigenspace_dims', message='x')"
    assert str(Violation("eigenspace_dims", "x")) == "error: eigenspace_dims: x"


def test_config_equality_ignores_invariants():
    cfg = _config("order3_curve_and_point")
    bare = K3Config(cfg.n, cfg.eigenspace, cfg.records)
    assert bare.invariants is None and cfg.invariants is not None
    assert bare == cfg and hash(bare) == hash(cfg)
    assert repr(bare) != repr(cfg)


def test_records_store_their_sequences_as_tuples():
    # a list passed for curves, points or records compares and hashes like the tuple
    curve, point = CurveOrbit(1), PointOrbit((2, 2))
    listed = SubgroupFixedRecord(3, [curve], [point])
    tupled = SubgroupFixedRecord(3, (curve,), (point,))
    assert (listed.curves, listed.points) == ((curve,), (point,))
    assert listed == tupled and hash(listed) == hash(tupled)
    cfg = K3Config(3, EigenspaceDims(3, (4, 9, 9)), [tupled])
    assert cfg.records == (tupled,)
    assert cfg == K3Config(3, EigenspaceDims(3, (4, 9, 9)), (listed,))
    assert hash(cfg) == hash(K3Config(3, EigenspaceDims(3, (4, 9, 9)), (tupled,)))


def test_records_of_different_classes_never_compare_equal():
    assert EigenspaceDims(2, (1, 1)) != CharacterVector(2, (1, 1))
    assert CharacterVector(2, (1, 1)) != EigenspaceDims(2, (1, 1))
    assert not EigenspaceDims(2, (1, 1)) == CharacterVector(2, (1, 1))
    assert GroupElement(2, 1) != LocalAction(2, (1,))


def _round_trip_values():
    values = [_config(name) for name in NAMED_FIXTURES]
    with pytest.raises(InvariantError) as caught:
        from_invariants_order3(r=2, m=10, k=0, n_points=0, g_C=0)
    values.append(caught.value.violations)
    return values


@pytest.mark.parametrize("value", _round_trip_values(),
                         ids=list(NAMED_FIXTURES) + ["violations"])
@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_round_trips(value, how):
    clone = {"pickle": lambda v: pickle.loads(pickle.dumps(v)),
             "copy": copy.copy, "deepcopy": copy.deepcopy}[how](value)
    assert type(clone) is type(value)
    assert clone == value and hash(clone) == hash(value)
    assert repr(clone) == repr(value)  # the repr carries a config's invariants too
    if isinstance(value, K3Config):
        assert clone.invariants == value.invariants is not None


@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_invariant_error_round_trips(how):
    # an exception is not a record and compares by identity: its message and violations must
    # survive, and pickling used to rebuild it from the message, one character per violation
    with pytest.raises(InvariantError) as caught:
        from_invariants_order3(r=2, m=10, k=0, n_points=0, g_C=0)
    for error in (InvariantError([Violation("order3", "bad")]), caught.value):
        clone = {"pickle": lambda v: pickle.loads(pickle.dumps(v)),
                 "copy": copy.copy, "deepcopy": copy.deepcopy}[how](error)
        assert type(clone) is InvariantError
        assert clone.violations == error.violations
        assert str(clone) == str(error) == "; ".join(map(str, error.violations))
