"""Command-line driver: JSON configuration in, verified Hodge data out.

Exit codes: 0 success (all checks pass), 1 parse error (a usage error or
an unwritable stdout included), 2 validation failure, 3 cross-check
mismatch.
"""

from __future__ import annotations

import json
import os
import sys

from .engine import crosscheck
from .fixed_locus import (
    CurveOrbit,
    EigenspaceDims,
    InvariantError,
    K3Config,
    PointOrbit,
    SUPPORTED_ORDERS,
    SubgroupFixedRecord,
    from_invariants_order2,
    from_invariants_order3,
    from_invariants_order4,
    from_invariants_order6,
    validate,
)
from .hodge import pictogram

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_CHECK = 3


class SchemaError(ValueError):
    """Malformed configuration document; message carries the field path."""


_INVARIANT_KEYS = {
    2: ("r", "curve_genera"),
    3: ("r", "m", "k", "n_points", "g_C"),
    4: ("r", "m", "k", "a", "b", "n1", "n2", "g_D", "D_type"),
    6: ("r", "m", "l", "k", "N", "a", "b", "n_prime", "p25", "p34", "g_D",
        "g_G", "g_G_quot", "g_F1", "g_F1_quot", "g_F2", "g_F2_quot"),
}

_CONSTRUCTORS = {
    2: from_invariants_order2,
    3: from_invariants_order3,
    4: from_invariants_order4,
    6: from_invariants_order6,
}


_INVARIANT_FIELDS = {n: frozenset(keys) for n, keys in _INVARIANT_KEYS.items()}
_TOP_FIELDS = frozenset(("order", "invariants", "raw"))
_RAW_FIELDS = frozenset(("eigenspace_dims", "subgroups"))
_SUBGROUP_FIELDS = frozenset(("order", "curves", "points"))
_CURVE_FIELDS = frozenset(("orbit_size", "genus", "residual_order", "quotient_genus",
                           "char_dims", "count"))
_POINT_FIELDS = frozenset(("orbit_size", "type", "count"))


def _at(path, key="") -> str:
    """``path`` and ``key`` joined: ``key`` is a suffix such as ".genus" or a list index,
    and ``path`` a string or a (path, key) pair, so only an error message joins a path."""
    if type(path) is tuple:
        path = _at(*path)
    return f"{path}[{key}]" if type(key) is int else path + key


def _need(doc: dict, key: str, path):
    if key not in doc:
        raise SchemaError(f"{_at(path)}.{key}: missing required field")
    return doc[key]


#: at most 1000 digits: everything derived and printed sums products of at most three
#: input integers with small constants, so it stays below Python's 4300-digit str limit
_INT_BOUND = 10 ** 1000


def _as_int(value, path, key="") -> int:
    """``value`` as an integer field; an error names the field ``(path, key)``."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise SchemaError(f"{_at(path, key)}: expected an integer, got {value!r}")
    if not -_INT_BOUND < value < _INT_BOUND:
        raise SchemaError(f"{_at(path, key)}: integer field too long")
    return value


def _as_list(value, path, key="") -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{_at(path, key)}: expected a list")
    return value


def _as_object(value, allowed: frozenset, path, key="") -> dict:
    """``value`` as an object with no field outside ``allowed``."""
    if not isinstance(value, dict):
        raise SchemaError(f"{_at(path, key)}: expected an object")
    if not value.keys() <= allowed:
        raise SchemaError(f"{_at(path, key)}: unknown fields {sorted(value.keys() - allowed)}")
    return value


def _given_ints(doc: dict, names: tuple, here) -> dict:
    """The integer fields ``names`` in ``doc``, in order: the record defaults the rest."""
    given = {}
    for name in names:  # a plain loop: a comprehension costs a frame per call
        if name in doc and (doc[name] is not None or name != "quotient_genus"):
            given[name] = _as_int(doc[name], here, "." + name)
    return given


def _parse_curve(doc: dict, path, key) -> CurveOrbit:
    _as_object(doc, _CURVE_FIELDS, path, key)
    here = path, key
    char_dims = doc.get("char_dims")
    if char_dims is not None:
        char_dims = tuple(_as_int(v, (here, ".char_dims"), i)
                          for i, v in enumerate(_as_list(char_dims, here, ".char_dims")))
    genus = _as_int(_need(doc, "genus", here), here, ".genus")
    return CurveOrbit(genus, char_dims=char_dims, **_given_ints(
        doc, ("orbit_size", "residual_order", "quotient_genus", "count"), here))


def _parse_point(doc: dict, path, key) -> PointOrbit:
    _as_object(doc, _POINT_FIELDS, path, key)
    here = path, key
    ty = _need(doc, "type", here)
    if not isinstance(ty, list) or len(ty) != 2:
        raise SchemaError(f"{_at(here)}.type: expected a pair of exponents")
    return PointOrbit((_as_int(ty[0], here, ".type[0]"), _as_int(ty[1], here, ".type[1]")),
                      **_given_ints(doc, ("orbit_size", "count"), here))


def _parse_raw(order: int, doc: dict) -> K3Config:
    _as_object(doc, _RAW_FIELDS, "raw")
    dims = _as_list(_need(doc, "eigenspace_dims", "raw"), "raw.eigenspace_dims")
    dims = tuple(_as_int(v, "raw.eigenspace_dims", i) for i, v in enumerate(dims))
    if len(dims) != order:
        raise SchemaError(f"raw.eigenspace_dims: expected {order} entries, got {len(dims)}")
    records = []
    for i, sub in enumerate(_as_list(doc.get("subgroups", []), "raw.subgroups")):
        _as_object(sub, _SUBGROUP_FIELDS, "raw.subgroups", i)
        here = "raw.subgroups", i
        d = _as_int(_need(sub, "order", here), here, ".order")
        curves = tuple(_parse_curve(c, (here, ".curves"), ci) for ci, c in
                       enumerate(_as_list(sub.get("curves", []), here, ".curves")))
        points = tuple(_parse_point(p, (here, ".points"), pi) for pi, p in
                       enumerate(_as_list(sub.get("points", []), here, ".points")))
        records.append(SubgroupFixedRecord(d, curves, points))
    return K3Config(order, EigenspaceDims(order, dims), records)


def parse_config(doc: dict) -> K3Config:
    """Check the schema of a configuration document and build a valid model.

    A malformed document raises :class:`SchemaError`.  An impossible one
    raises :class:`InvariantError`: a named document from its constructor,
    a raw one from :func:`validate` here.  Nothing downstream validates
    again.
    """
    _as_object(doc, _TOP_FIELDS, "top level")
    order = _as_int(_need(doc, "order", "top level"), "order")
    if order not in SUPPORTED_ORDERS:
        raise SchemaError(f"order: unsupported order {order}; supported: {list(SUPPORTED_ORDERS)}")
    has_inv, has_raw = "invariants" in doc, "raw" in doc
    if has_inv == has_raw:
        raise SchemaError("top level: exactly one of 'invariants' or 'raw' is required")
    if has_raw:
        cfg = _parse_raw(order, doc["raw"])
        violations = validate(cfg)
        if violations:
            raise InvariantError(violations)
        return cfg
    inv = _as_object(doc["invariants"], _INVARIANT_FIELDS[order], "invariants")
    kwargs = {}
    for key in _INVARIANT_KEYS[order]:
        value = inv[key] if key in inv else _need(inv, key, "invariants")
        if key == "curve_genera":
            kwargs[key] = [_as_int(v, "invariants.curve_genera", i)
                           for i, v in enumerate(_as_list(value, "invariants.curve_genera"))]
        elif key == "D_type":
            if value not in ("first", "second"):
                raise SchemaError(f"invariants.D_type: expected 'first' or 'second', got {value!r}")
            kwargs[key] = value
        else:
            kwargs[key] = _as_int(value, "invariants.", key)
    return _CONSTRUCTORS[order](**kwargs)


def run(cfg: K3Config, doc: dict) -> dict:
    """The report of one run: the dict :func:`emit` renders and ``--format json`` writes.

    ``cfg`` is trusted to be valid, as :func:`parse_config` returns it.  Every
    check runs, and the closed form is null only for a raw document.
    """
    report = crosscheck(cfg)
    closed = report.closed
    return {
        "order": cfg.n,
        "config": doc,
        "violations": [],
        "diamond": list(map(list, report.diamond.table)),
        "engine": {"h11": report.h11, "h21": report.h21, "euler": report.euler_pairsum},
        "closed_form": (None if closed is None else
                        {"h11": closed.h11, "h21": closed.h21, "euler": report.euler_closed}),
        "checks": [{"name": c.name, "status": c.status, "lhs": c.lhs, "rhs": c.rhs}
                   for c in report.checks],
        "exit_code": EXIT_OK if report.passed else EXIT_CHECK,
    }


#: what ``json.dumps(report, sort_keys=True)`` builds afresh on every call
_JSON = json.JSONEncoder(sort_keys=True)


def emit(report: dict, fmt: str = "text") -> str:
    """Render a report shaped as :func:`run` makes it: 'text' draws the diamond, and
    'json' writes ``json.dumps(report, sort_keys=True)`` on one line."""
    if fmt == "json":
        return _JSON.encode(report) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")

    lines = [f"order {report['order']} quotient of K3 x E"]
    if report["violations"]:
        lines.append("validation:")
        lines.extend(f"  {v}" for v in report["violations"])
    if report["diamond"] is not None:
        lines.append("")
        lines.append("Hodge diamond of the crepant resolution:")
        lines.extend("  " + row for row in pictogram(report["diamond"]).splitlines())
        lines.append("")
        engine, closed = report["engine"], report["closed_form"]
        lines.append(f"engine:      h^{{1,1}} = {engine['h11']}  "
                     f"h^{{2,1}} = {engine['h21']}  e = {engine['euler']}")
        if closed is not None:
            lines.append(f"closed form: h^{{1,1}} = {closed['h11']}  "
                         f"h^{{2,1}} = {closed['h21']}  e = {closed['euler']}")
        else:
            lines.append("closed form: not applicable")
    if report["checks"] is not None:
        lines.append("checks:")
        for c in report["checks"]:
            tail = "" if c["status"] == "skipped" else f"  ({c['lhs']} == {c['rhs']})"
            lines.append(f"  {c['name']:<18} {c['status'].upper()}{tail}")
    lines.append("")
    return "\n".join(lines)


def _fixture_root():
    from importlib import resources  # only the fixture options need it
    return resources.files("bvhodge").joinpath("fixtures")


def fixture_names() -> list[str]:
    return sorted(p.name[: -len(".json")] for p in _fixture_root().iterdir()
                  if p.name.endswith(".json"))


def load_fixture_text(name: str) -> str:
    """The text of the bundled fixture ``name``; any other name, a path included, raises."""
    if name not in fixture_names():
        raise SchemaError(f"unknown fixture {name!r}; try --list-fixtures")
    return _fixture_root().joinpath(f"{name}.json").read_text(encoding="utf-8")


def run_text(text: str, fmt: str = "text") -> tuple[str, int]:
    """Full pipeline from document text to (rendered report, exit code).

    Invalid JSON raises :class:`json.JSONDecodeError` and a malformed
    document, including one nested too deeply to parse or with an integer
    too long to convert, :class:`SchemaError`.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise SchemaError("document nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # Python's limit on the digits of an integer string
        raise SchemaError("integer field too long") from None
    try:
        cfg = parse_config(doc)
    except InvariantError as exc:
        report = {"order": doc["order"], "config": doc,
                  "violations": [str(v) for v in exc.violations],
                  "diamond": None, "engine": None, "closed_form": None, "checks": None,
                  "exit_code": EXIT_INVALID}
    else:
        report = run(cfg, doc)
    return emit(report, fmt), report["exit_code"]


def main(argv=None) -> int:
    import argparse  # not on the path of run_text
    from contextlib import redirect_stdout
    from io import StringIO
    parser = argparse.ArgumentParser(
        prog="bvhodge",
        description="Hodge diamonds of crepant resolutions of (K3 x E)/C_n quotients, "
                    "computed exactly and cross-checked.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--input", metavar="PATH", help="configuration JSON (default: stdin)")
    source.add_argument("--fixture", metavar="NAME", help="run a bundled fixture instead")
    source.add_argument("--list-fixtures", action="store_true", help="list bundled fixtures")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    help_text = StringIO()
    try:
        with redirect_stdout(help_text):  # --help is written below, like any output
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse, its message printed, exits 2 on a usage error
        return EXIT_PARSE if exc.code else _write_stdout(help_text.getvalue(), EXIT_OK)

    if args.list_fixtures:
        return _write_stdout("".join(f"{name}\n" for name in fixture_names()), EXIT_OK)
    try:
        if args.fixture is not None:
            text = load_fixture_text(args.fixture)
        elif args.input is not None:
            with open(args.input, encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = sys.stdin.read()
    except (OSError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError:
        source = (args.fixture if args.fixture is not None
                  else args.input if args.input is not None else "<stdin>")
        print(f"error: {source}: not valid UTF-8", file=sys.stderr)
        return EXIT_PARSE

    try:
        rendered, code = run_text(text, fmt=args.format)
    except json.JSONDecodeError as exc:
        print(f"parse error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return _write_stdout(rendered, code)


def _write_stdout(text: str, code: int) -> int:
    """Write and flush ``text``; exit 1 instead of ``code`` if stdout cannot take it,
    silently if its reader has gone and with one error line otherwise."""
    if sys.stdout is None:  # the process started with stdout closed
        print("error: cannot write the output: stdout is closed", file=sys.stderr)
        return EXIT_PARSE
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
        # the interpreter flushes stdout again at exit; into devnull that flush is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
