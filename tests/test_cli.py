"""CLI behaviors beyond the acceptance contract: parsing, formats, flags."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvhodge import InvariantError, K3Config, cli, crosscheck
from generators import raw_form, samples

WORKED_DOC = {
    "order": 4,
    "invariants": {"r": 11, "m": 3, "k": 2, "a": 1, "b": 3, "n1": 6, "n2": 0,
                   "g_D": 1, "D_type": "first"},
}


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parsing -------------------------------------------------------------------

def test_parse_invariants_document():
    cfg = cli.parse_config(WORKED_DOC)
    assert cfg.n == 4
    assert cfg.invariants["k"] == 2


def test_parse_unsupported_order():
    with pytest.raises(cli.SchemaError, match="unsupported order"):
        cli.parse_config({"order": 5, "invariants": {}})


def test_parse_requires_exactly_one_form():
    with pytest.raises(cli.SchemaError, match="exactly one"):
        cli.parse_config({"order": 2})
    with pytest.raises(cli.SchemaError, match="exactly one"):
        cli.parse_config({"order": 2, "invariants": {}, "raw": {}})


def test_parse_unknown_field_has_path():
    doc = {"order": 2, "invariants": {"r": 10, "curve_genera": [], "bogus": 1}}
    with pytest.raises(cli.SchemaError, match="invariants.*bogus"):
        cli.parse_config(doc)


def test_parse_raw_document():
    doc = {
        "order": 4,
        "raw": {
            "eigenspace_dims": [11, 3, 5, 3],
            "subgroups": [
                {"order": 4,
                 "curves": [{"genus": 1}, {"genus": 0}],
                 "points": [{"type": [2, 3], "count": 6}]},
                {"order": 2,
                 "curves": [{"genus": 1}, {"genus": 0},
                            {"genus": 0, "residual_order": 2, "quotient_genus": 0,
                             "count": 3},
                            {"genus": 0, "orbit_size": 2}]},
            ],
        },
    }
    cfg = cli.parse_config(doc)
    assert cfg.invariants is None
    assert sum(c.count * c.orbit_size for c in cfg.record(2).curves) == 7


def test_parse_validates_raw_documents():
    doc = {"order": 2, "raw": {"eigenspace_dims": [22, 0]}}
    with pytest.raises(cli.InvariantError, match=r"d\[1\] must be at least 2"):
        cli.parse_config(doc)


@pytest.mark.parametrize("value", [5, None, True, 1.5, "x", {"genus": 0}])
@pytest.mark.parametrize("field", ["curves", "points"])
def test_parse_raw_record_fields_must_be_lists(field, value):
    doc = {"order": 2, "raw": {"eigenspace_dims": [10, 12],
                               "subgroups": [{"order": 2, field: value}]}}
    with pytest.raises(cli.SchemaError, match=rf"raw\.subgroups\[0\]\.{field}: expected a list"):
        cli.parse_config(doc)


@pytest.mark.parametrize("raw", [5, None, [], "raw"])
def test_parse_raw_must_be_an_object(raw):
    with pytest.raises(cli.SchemaError, match="raw: expected an object"):
        cli.parse_config({"order": 2, "raw": raw})


def test_parse_rejects_non_integer():
    doc = {"order": 2, "invariants": {"r": 9.5, "curve_genera": []}}
    with pytest.raises(cli.SchemaError, match="expected an integer"):
        cli.parse_config(doc)


def test_each_constructor_takes_exactly_the_invariant_keys_in_order():
    assert cli._CONSTRUCTORS.keys() == cli._INVARIANT_KEYS.keys()
    for n, build in cli._CONSTRUCTORS.items():
        assert tuple(inspect.signature(build).parameters) == cli._INVARIANT_KEYS[n], n


# --- running and emitting ----------------------------------------------------------

def test_json_report_round_trip():
    rendered, code = cli.run_text(json.dumps(WORKED_DOC), fmt="json")
    assert code == 0
    payload = json.loads(rendered)
    assert payload["engine"] == {"h11": 51, "h21": 9, "euler": 84}
    assert payload["closed_form"] == {"h11": 51, "h21": 9, "euler": 84}
    assert payload["diamond"][1][1] == 51
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert payload["config"] == WORKED_DOC


def test_text_report_has_diamond_rows():
    rendered, code = cli.run_text(json.dumps(WORKED_DOC), fmt="text")
    assert code == 0
    rows = [line.split() for line in rendered.splitlines() if line.strip()]
    assert ["1", "9", "9", "1"] in rows
    assert ["0", "51", "0"] in rows


def test_raw_config_reports_closed_form_not_applicable():
    doc = {"order": 2, "raw": {"eigenspace_dims": [10, 12], "subgroups": []}}
    rendered, code = cli.run_text(json.dumps(doc), fmt="json")
    assert code == 0
    assert json.loads(rendered)["closed_form"] is None
    text, _ = cli.run_text(json.dumps(doc), fmt="text")
    assert "closed form: not applicable" in text
    assert "h^{1,1} = 11" in text


def test_validation_failure_reports_violations():
    doc = {"order": 2, "invariants": {"r": 0, "curve_genera": []}}
    rendered, code = cli.run_text(json.dumps(doc), fmt="json")
    assert code == cli.EXIT_INVALID
    payload = json.loads(rendered)
    assert payload["engine"] is None
    assert any("d[0]" in v for v in payload["violations"])


def test_order6_closed_form_rules_exit_2_through_the_constructor():
    # the order-6 closed form relies on these rules; the constructor alone enforces them
    base = dict.fromkeys(("l", "k", "N", "a", "b", "n_prime", "p25", "p34", "g_D", "g_G",
                          "g_G_quot", "g_F1", "g_F1_quot", "g_F2", "g_F2_quot"), 0)
    base.update(r=2, m=4)
    for change, message in (({"r": 3}, "eigenspace dims must sum to 22"),
                            ({"g_D": 2}, "g(D) must be 0 or 1"),
                            ({"l": 1, "k": 1, "N": 1, "g_D": 1}, "g(D) = 1 forces D = G = F1")):
        doc = {"order": 6, "invariants": {**base, **change}}
        rendered, code = cli.run_text(json.dumps(doc), fmt="json")
        assert code == cli.EXIT_INVALID, change
        assert any(message in v for v in json.loads(rendered)["violations"]), change


def test_closed_form_rules_of_orders_2_3_4_exit_through_the_parser_or_the_constructor():
    # the closed forms of these orders rely on these rules; a constructor (exit 2)
    # or the parser (exit 1) alone enforces them
    order4 = dict(r=7, m=5, k=0, a=0, b=2, n1=1, n2=3, g_D=1, D_type="second")
    for order, invariants, message in (
            (2, {"r": 0, "curve_genera": []}, "d[0] must be at least 1"),
            (2, {"r": 22, "curve_genera": []}, "d[1] must be at least 2"),
            (3, {"r": 4, "m": 8, "k": 1, "n_points": 1, "g_C": 0}, "eigenspace dims must sum to 22"),
            (4, order4, "n2 must be even"),
            (4, dict(order4, r=11, m=3, k=2, a=1, b=3, n1=8, n2=0, D_type="first"),
             "first type needs n1 = 2h+4")):
        doc = {"order": order, "invariants": invariants}
        rendered, code = cli.run_text(json.dumps(doc), fmt="json")
        assert code == cli.EXIT_INVALID, doc
        assert any(message in v for v in json.loads(rendered)["violations"]), doc
    for doc, message in (({"order": 4, "invariants": dict(order4, D_type="third")},
                          "expected 'first' or 'second'"),
                         ({"order": 5, "invariants": {}}, "unsupported order 5")):
        with pytest.raises(cli.SchemaError, match=message):
            cli.run_text(json.dumps(doc))


def test_deeply_nested_document_is_a_schema_error():
    for text in ("[" * 100_000 + "]" * 100_000,
                 '{"order": 2, "invariants": {"r": ' + "[" * 100_000 + "]" * 100_000 + "}}"):
        with pytest.raises(cli.SchemaError, match="nested too deeply"):
            cli.run_text(text)


def test_over_long_integer_is_a_schema_error(capsys, monkeypatch):
    # more digits than Python converts from a string: json.loads raises a
    # plain ValueError, which must not escape as a traceback
    import io
    text = '{"order": 2, "invariants": {"r": ' + "9" * 5000 + ', "curve_genera": []}}'
    with pytest.raises(cli.SchemaError, match="integer field too long"):
        cli.run_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys)
    assert code == cli.EXIT_PARSE and out == ""
    assert "integer field too long" in err


BIG = 9 * 10 ** 4299  # 4300 digits: parses, but sums and products of it do not print
DERIVED_TOO_LONG = [
    {"order": 2, "raw": {"eigenspace_dims": [BIG, BIG]}},
    {"order": 2, "raw": {"eigenspace_dims": [10, 12],
                         "subgroups": [{"order": 2, "curves": [{"genus": 0, "count": BIG}]}]}},
    {"order": 2, "invariants": {"r": 10, "curve_genera": [BIG, BIG]}},
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("doc", DERIVED_TOO_LONG)
def test_integer_too_long_to_derive_from_is_a_schema_error(doc, fmt):
    with pytest.raises(cli.SchemaError, match="integer field too long"):
        cli.run_text(json.dumps(doc), fmt=fmt)


def test_integer_bound_is_a_thousand_digits():
    for value, ok in ((10 ** 1000 - 1, True), (10 ** 1000, False),
                      (1 - 10 ** 1000, True), (-10 ** 1000, False)):
        doc = {"order": 2, "invariants": {"r": value, "curve_genera": []}}
        if ok:
            with pytest.raises(cli.InvariantError):
                cli.parse_config(doc)
        else:
            with pytest.raises(cli.SchemaError, match=r"invariants\.r: integer field too long"):
                cli.parse_config(doc)


def _sorted_object(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


def _assert_one_line_of(rendered, report):
    assert rendered.endswith("\n") and "\n" not in rendered[:-1] and rendered.isascii()
    assert json.loads(rendered, object_pairs_hook=_sorted_object) == report


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
              st.integers(), st.integers(-10 ** 999, 10 ** 999),
              st.text()),
    lambda inner: st.one_of(st.lists(inner), st.dictionaries(st.text(), inner)),
    max_leaves=20)


@settings(deadline=None)
@given(json_values)
def test_json_writer_matches_the_standard_library(value):
    _assert_one_line_of(cli.emit(value, "json"), value)


def test_emit_writes_every_fixture_report_as_the_standard_library(monkeypatch):
    reports = []
    emit = cli.emit
    monkeypatch.setattr(cli, "emit", lambda report, fmt: reports.append(report)
                        or emit(report, fmt))
    for name in cli.fixture_names():
        try:
            cli.run_text(cli.load_fixture_text(name), fmt="json")
        except json.JSONDecodeError:
            assert name == "malformed"
    assert len(reports) == len(cli.fixture_names()) - 1
    assert {r["exit_code"] for r in reports} == {0, 2, 3}
    for report in reports:
        _assert_one_line_of(emit(report, "json"), report)


CY_TABLE = [[1, 0, 0, 1], [0, 51, 9, 0], [0, 9, 51, 0], [1, 0, 0, 1]]
HAND_BUILT = {
    "order": 4, "config": {"order": 4, "raw": {"eigenspace_dims": [], "\u03a3 \"x\"": [{}]}},
    "violations": [], "diamond": CY_TABLE, "engine": {"h11": 51, "h21": 9, "euler": 84},
    "closed_form": None, "exit_code": 3,
    "checks": [{"name": "euler_pairsum", "status": "pass", "lhs": 84, "rhs": 84},
               {"name": "cy_relation", "status": "fail", "lhs": 9, "rhs": None},
               {"name": "closed_form_h11", "status": "skipped", "lhs": None, "rhs": None},
               {"name": "\u03a3 \"odd\"", "status": "fail", "lhs": None, "rhs": -3}],
}
LONG = 10 ** 999 + 7  # a thousand digits
#: the exit-2 report of a raw document, echoed with its nested keys unsorted
INVALID_RAW = {
    "order": 3, "exit_code": 2, "diamond": None, "engine": None, "closed_form": None,
    "checks": None,
    "config": {"raw": {"subgroups": [{"points": [{"type": [2, 2], "count": 2}], "order": 3,
                                      "curves": [{"genus": 1, "count": 1},
                                                 {"residual_order": 4, "genus": 0}]}],
                       "eigenspace_dims": [10, 6, 6]}, "order": 3},
    "violations": ["error: subgroup[3].curves[1]: residual order 4 not supported (1, 2 or 3)"],
}


def test_the_invalid_raw_report_is_one_a_run_makes(monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "emit", lambda report, fmt: reports.append(report) or "")
    assert cli.run_text(json.dumps(INVALID_RAW["config"]), "json") == ("", 2)
    assert reports == [INVALID_RAW]


@pytest.mark.parametrize("changes", [
    {},
    {"checks": []},
    INVALID_RAW,
    {"diamond": None, "engine": None, "checks": None, "violations": ["error: x: y"],
     "exit_code": 2},
    {"diamond": [[LONG] * 4] * 4, "engine": {"h11": LONG, "h21": -LONG, "euler": 0},
     "checks": [{"name": "cy_relation", "status": "fail", "lhs": -LONG, "rhs": LONG}]},
], ids=["checks", "no-checks", "invalid-raw", "invalid", "long"])
def test_emit_writes_hand_built_reports_as_the_standard_library(changes):
    report = dict(HAND_BUILT, **changes)
    _assert_one_line_of(cli.emit(report, "json"), report)


def _named_documents():
    """Named documents of every order: sampled tuples, edge shapes and exit-2 tuples."""
    docs = [{"order": s.order, "invariants": s.invariants}
            for n in (2, 3, 4, 6) for s in samples(n, 12, seed=31)]
    docs += [WORKED_DOC, {"order": 2, "invariants": {"r": 10, "curve_genera": []}}]
    second = {"r": 10, "m": 4, "k": 1, "a": 0, "b": 2, "n1": 2, "n2": 2, "g_D": 1,
              "D_type": "second"}
    docs.append({"order": 4, "invariants": second})
    # refused by the constructors: exit 2, the config echoed as read
    docs += [{"order": 2, "invariants": {"r": LONG, "curve_genera": [LONG, 0]}},
             {"order": 3, "invariants": {"r": LONG, "m": -LONG, "k": 1, "n_points": 0,
                                         "g_C": 0}},
             {"order": 4, "invariants": dict(WORKED_DOC["invariants"], g_D=LONG)},
             {"order": 6, "invariants": {k: LONG for k in cli._INVARIANT_KEYS[6]}}]
    return docs


def test_emit_writes_named_reports_as_the_standard_library(monkeypatch):
    reports = []
    emit = cli.emit
    monkeypatch.setattr(cli, "emit", lambda report, fmt: reports.append(report)
                        or emit(report, fmt))
    for doc in _named_documents():
        cli.run_text(json.dumps(doc), fmt="json")
    assert {r["order"] for r in reports} == {2, 3, 4, 6}
    assert {r["exit_code"] for r in reports} == {0, 2}
    assert {r["config"]["invariants"].get("D_type") for r in reports} == {None, "first", "second"}
    assert {bool(r["config"]["invariants"].get("curve_genera", [0])) for r in reports} == {
        True, False}
    for report in reports:
        _assert_one_line_of(emit(report, "json"), report)


NAMED_CONFIG = {"order": 4, "invariants": WORKED_DOC["invariants"]}
TRIPLE = {"h11": 51, "h21": 9, "euler": 84}


@pytest.mark.parametrize("key, value", [
    (key, value) for key in ("engine", "closed_form") for value in (
        {"h11": 51, "h21": 9}, dict(TRIPLE, x=1), [51, 9, 84], None, dict(TRIPLE, h11=True),
        dict(TRIPLE, h21=9.0), dict(TRIPLE, euler="84"), dict(TRIPLE, euler=None), {})
] + [("config", value) for value in (
    {"order": 4}, dict(NAMED_CONFIG, raw={}), [4, WORKED_DOC["invariants"]], None,
    dict(NAMED_CONFIG, order=4.0), dict(NAMED_CONFIG, order=True),
    dict(NAMED_CONFIG, order=3), dict(NAMED_CONFIG, order=5),
    dict(NAMED_CONFIG, invariants=list(WORKED_DOC["invariants"])),
    dict(NAMED_CONFIG, invariants={k: v for k, v in WORKED_DOC["invariants"].items()
                                   if k != "a"}),
    dict(NAMED_CONFIG, invariants=dict(WORKED_DOC["invariants"], extra=1)),
    dict(NAMED_CONFIG, invariants=dict(WORKED_DOC["invariants"], a=True, b=1.5, k=None)),
    dict(NAMED_CONFIG, invariants=dict(WORKED_DOC["invariants"], a={"x": [1, {}]}, b=[])),
    {"order": 2, "invariants": {"r": 1, "curve_genera": [[], {}, "\u03a3"]}},
)] + [("violations", value) for value in ([], (), ["x"], None, [[]], {})])
def test_emit_writes_off_shape_values_as_the_standard_library(key, value):
    # values run() never makes: the writer takes any JSON value; a tuple reads back as a list
    report = dict(HAND_BUILT, **{"config": NAMED_CONFIG, key: value})
    expected = dict(report, **{key: list(value) if isinstance(value, tuple) else value})
    _assert_one_line_of(cli.emit(report, "json"), expected)


def _named_configs(order):
    keys = cli._INVARIANT_KEYS[order]
    return st.builds(lambda inv, drop, extra: {"order": order, "invariants": {
        k: v for k, v in {**inv, **extra}.items() if k != drop}},
        st.fixed_dictionaries({k: json_values for k in keys}),
        st.sampled_from((None,) + keys), st.dictionaries(st.text(), json_values, max_size=2))


@settings(deadline=None)
@given(st.sampled_from((2, 3, 4, 6)).flatmap(_named_configs))
def test_emit_writes_any_named_config_as_the_standard_library(config):
    report = dict(HAND_BUILT, config=config)
    _assert_one_line_of(cli.emit(report, "json"), report)


ENGINE_CHECKS = ("euler_pairsum", "cy_relation", "closed_form_h11", "closed_form_h21",
                 "closed_form_euler")
CHECK_VALUES = (None, 0, 84, -3, LONG, -LONG, True, False, 1.5, -0.0, "84", "\u03a3 %s", [], {})


@pytest.mark.parametrize("status", ("pass", "fail", "skipped", "PASS", "\u00e9chec %d"))
@pytest.mark.parametrize("name", ENGINE_CHECKS + ("\u03a3 \"odd\" %s", "cy_relation "))
def test_emit_writes_every_check_as_the_standard_library(name, status):
    checks = [{"name": name, "status": status, "lhs": lhs, "rhs": rhs}
              for lhs in CHECK_VALUES for rhs in CHECK_VALUES]
    report = dict(HAND_BUILT, checks=checks)
    _assert_one_line_of(cli.emit(report, "json"), report)


def test_json_reports_carry_every_check_the_engine_reports():
    engine, written = set(), set()
    for name in cli.fixture_names():
        try:
            doc = json.loads(cli.load_fixture_text(name))
            cfg = cli.parse_config(doc)
        except (ValueError, InvariantError):  # malformed JSON, schema or invariant errors
            continue
        for run in (cfg, K3Config(cfg.n, cfg.eigenspace, cfg.records)):  # and without names
            engine |= {(c["name"], c["status"]) for c in crosscheck(run)["checks"]}
            report = json.loads(cli.emit(cli.run(run, doc), "json"))
            written |= {(c["name"], c["status"]) for c in report["checks"]}
    assert written == engine
    assert {status for _, status in engine} == {"pass", "fail", "skipped"}
    assert {name for name, _ in engine} == set(ENGINE_CHECKS)


def _engine_documents():
    """Every fixture that reaches the engine, and 100 samples per order, named and raw."""
    docs = []
    for name in cli.fixture_names():
        text = cli.load_fixture_text(name)
        try:
            code = cli.run_text(text)[1]
        except ValueError:  # malformed JSON or schema
            continue
        if code != cli.EXIT_INVALID:
            docs.append(json.loads(text))
    for n in (2, 3, 4, 6):
        for sample in samples(n, 100):
            docs.append({"order": n, "invariants": sample.invariants})
            docs.append({"order": n, "raw": raw_form(sample.config)})
    return docs


def test_crosscheck_returns_the_report_the_cli_writes_less_the_run_fields():
    codes = set()
    for doc in _engine_documents():
        written = json.loads(cli.run_text(json.dumps(doc), "json")[0])
        codes.add(written.pop("exit_code"))
        for key in ("order", "config", "violations"):
            del written[key]
        assert crosscheck(cli.parse_config(doc)) == written, doc
    assert codes == {cli.EXIT_OK, cli.EXIT_CHECK}


# --- main() ---------------------------------------------------------------------

def test_main_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(WORKED_DOC)))
    code, out, _ = run_cli(capsys, "--format", "json")
    assert code == 0
    assert json.loads(out)["engine"]["h11"] == 51


def test_main_reads_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(WORKED_DOC))
    code, out, _ = run_cli(capsys, "--input", str(path))
    assert code == 0
    assert "h^{1,1} = 51" in out


def test_main_missing_file(capsys):
    code, _, err = run_cli(capsys, "--input", "/nonexistent/config.json")
    assert code == cli.EXIT_PARSE
    assert "error" in err


def test_main_list_fixtures(capsys):
    code, out, _ = run_cli(capsys, "--list-fixtures")
    assert code == 0
    names = out.split()
    assert "order4_first_type" in names
    assert "malformed" in names


def test_main_unknown_fixture(capsys):
    code, _, err = run_cli(capsys, "--fixture", "nonsense")
    assert code == cli.EXIT_PARSE
    assert "unknown fixture" in err
    # a path to a bundled fixture is not its name: only the listed names are read
    code, out, err = run_cli(capsys, "--fixture", "../fixtures/order2_two_curves")
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err == ("error: unknown fixture '../fixtures/order2_two_curves'; "
                   "try --list-fixtures\n")


@pytest.mark.parametrize("option, message", [
    ("--fixture", "error: unknown fixture ''; try --list-fixtures\n"),
    ("--input", "error: [Errno 2] No such file or directory: ''\n"),
], ids=["fixture", "input"])
def test_main_empty_source_is_not_stdin(capsys, monkeypatch, option, message):
    # an empty name is a name: it is looked up, and the valid document on stdin is not read
    import io
    stdin = io.StringIO(json.dumps(WORKED_DOC))
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(capsys, option, "")
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err == message
    assert stdin.tell() == 0


def test_main_inconsistent_fixture_fails_its_euler_checks(capsys):
    code, out, _ = run_cli(capsys, "--fixture", "order3_inconsistent", "--format", "json")
    assert code == cli.EXIT_CHECK
    payload = json.loads(out)
    assert payload["exit_code"] == cli.EXIT_CHECK
    assert payload["engine"] == {"h11": 26, "h21": 20, "euler": 24}
    # the closed pair's own Euler number, 2(26 - 20), is not the pair sum either
    assert payload["closed_form"] == {"h11": 26, "h21": 20, "euler": 12}
    failing = {c["name"] for c in payload["checks"] if c["status"] == "fail"}
    assert failing == {"euler_pairsum", "cy_relation", "closed_form_euler"}


@pytest.mark.parametrize("args, message", [
    (("--format", "xml"), "argument --format: invalid choice: 'xml'"),
    (("--bogus",), "unrecognized arguments: --bogus"),
    (("--no-checks",), "unrecognized arguments: --no-checks"),
    (("--fixture", "order4_first_type", "--input", "config.json"),
     "argument --input: not allowed with argument --fixture"),
    (("--list-fixtures", "--fixture", "nonsense", "--format", "json"),
     "argument --fixture: not allowed with argument --list-fixtures"),
    (("--input", "config.json", "--list-fixtures"),
     "argument --list-fixtures: not allowed with argument --input"),
], ids=["bad-format", "unknown-option", "no-checks", "fixture-and-input",
        "list-and-fixture", "input-and-list"])
def test_main_usage_errors_are_parse_errors(capsys, args, message):
    # exit 2 is kept for a validation failure; argparse's own message stays on stderr
    code, out, err = run_cli(capsys, *args)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith("usage: bvhodge") and f"bvhodge: error: {message}" in err


def test_main_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == cli.EXIT_OK
    assert out.startswith("usage: bvhodge") and "--fixture" in out and err == ""


NOT_UTF8 = b'\xff\xfe{"order": 2}'


def test_main_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, "--input", str(path))
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err == f"error: {path}: not valid UTF-8\n"


def _cli_process(*args, stdin=b"", stdout=subprocess.PIPE, preexec_fn=None, **env):
    # bytes are fed through a pipe; an open file is handed over as stdin itself
    src = Path(__file__).resolve().parent.parent / "src"
    feed = {"input": stdin} if isinstance(stdin, bytes) else {"stdin": stdin}
    return subprocess.run([sys.executable, "-m", "bvhodge.cli", *args], **feed,
                          stdout=stdout, stderr=subprocess.PIPE, preexec_fn=preexec_fn,
                          env={**os.environ, "PYTHONPATH": str(src), **env})


def test_cli_process_refuses_stdin_that_is_not_utf8():
    done = _cli_process(stdin=NOT_UTF8, PYTHONIOENCODING="utf-8")
    assert done.returncode == cli.EXIT_PARSE
    assert done.stdout == b""
    assert done.stderr == b"error: <stdin>: not valid UTF-8\n"


def test_cli_process_exits_1_on_a_usage_error():
    done = _cli_process("--format", "xml")
    assert done.returncode == cli.EXIT_PARSE
    assert done.stdout == b""
    assert b"invalid choice: 'xml'" in done.stderr
    assert _cli_process("--help").returncode == cli.EXIT_OK


def test_cli_process_lists_and_runs_fixtures():
    done = _cli_process("--list-fixtures")
    assert done.returncode == cli.EXIT_OK
    assert done.stdout.decode().split() == cli.fixture_names()
    done = _cli_process("--fixture", "order4_first_type", "--format", "json")
    assert done.returncode == cli.EXIT_OK
    assert done.stdout.decode() == cli.run_text(
        cli.load_fixture_text("order4_first_type"), fmt="json")[0]


CANNOT_WRITE = b"error: cannot write the output: "


@pytest.mark.parametrize("args, stdout, stderr", [
    (("--list-fixtures",), "pipe", b""),
    (("--fixture", "order6_elliptic_top_curve", "--format", "json"), "pipe", b""),
    pytest.param(("--fixture", "order2_two_curves"), "full",
                 CANNOT_WRITE + b"[Errno 28] No space left on device\n", id="full-device",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full")),
    (("--fixture", "order2_two_curves"), "closed", CANNOT_WRITE + b"stdout is closed\n"),
    pytest.param(("--help",), "full", CANNOT_WRITE + b"[Errno 28] No space left on device\n",
                 id="help-full-device",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full")),
    (("--help",), "closed", CANNOT_WRITE + b"stdout is closed\n"),
], ids=["list-fixtures", "fixture-json", "full-device", "closed-stdout", "help-full-device",
        "help-closed-stdout"])
def test_cli_process_exits_1_without_a_traceback_when_stdout_is_gone(args, stdout, stderr):
    # a pipe whose read end is closed before the run, a device that takes no
    # byte, or no stdout at all: a broken pipe is silent, the others say why
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        if stdout == "full":
            with open("/dev/full", "wb") as full:
                done = _cli_process(*args, stdout=full)
        else:
            done = _cli_process(*args, stdout=write_end,
                                preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None)
    finally:
        os.close(write_end)
    assert done.returncode == cli.EXIT_PARSE
    assert done.stderr == stderr  # no traceback, and no "Exception ignored" at exit


def test_cli_process_exits_1_without_a_traceback_when_stdin_is_closed():
    done = _cli_process(preexec_fn=lambda: os.close(0))
    assert done.returncode == cli.EXIT_PARSE
    assert done.stdout == b""
    assert done.stderr == b"error: cannot read the input: stdin is closed\n"


def test_cli_process_names_stdin_when_it_is_open_but_not_readable():
    with open(os.devnull, "w") as write_only:
        done = _cli_process(stdin=write_only)
    assert done.returncode == cli.EXIT_PARSE
    assert done.stdout == b""
    assert done.stderr == b"error: <stdin>: [Errno 9] Bad file descriptor\n"


@pytest.mark.parametrize("args", [
    ("--list-fixtures",),
    ("--fixture", "order4_first_type", "--format", "json"),
    ("--input", str(Path(cli.__file__).parent / "fixtures" / "order4_first_type.json"),
     "--format", "json"),
], ids=["list-fixtures", "fixture", "input"])
def test_cli_process_reads_no_stdin_when_another_source_is_named(args):
    # with stdin closed, the options that name their input run as with it open
    done = _cli_process(*args, preexec_fn=lambda: os.close(0))
    assert done.stderr == b""
    assert (done.returncode, done.stdout) == (cli.EXIT_OK, _cli_process(*args).stdout)
