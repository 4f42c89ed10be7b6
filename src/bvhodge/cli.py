"""Command-line driver: JSON configuration in, verified Hodge data out.

Exit codes: 0 success (all checks pass), 1 parse error (a usage error, a
closed stdin to read from or an unwritable stdout included), 2 validation
failure, 3 cross-check mismatch.
"""

from __future__ import annotations

import json
import os
import sys

from .engine import crosscheck
from .fixed_locus import (
    InvariantError,
    K3Config,
    SUPPORTED_ORDERS,
    SubgroupFixedRecord,
    _curve,
    _dims,
    _point,
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


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}.{key}: missing required field")
    return doc[key]


#: at most 1000 digits: everything derived and printed sums products of at most three
#: input integers with small constants, so it stays below Python's 4300-digit str limit
_INT_BOUND = 10 ** 1000


def _as_int(value, path: str, key="") -> int:
    """``value`` as an exact ``int``; an error names the field, ``path`` joined to ``key``."""
    if type(value) is int and -_INT_BOUND < value < _INT_BOUND:
        return value
    where = f"{path}[{key}]" if type(key) is int else path + key
    if type(value) is not int:
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    raise SchemaError(f"{where}: integer field too long")


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list")
    return value


def _as_object(value, allowed: frozenset, path: str) -> dict:
    """``value`` as an object with no field outside ``allowed``."""
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object")
    if not value.keys() <= allowed:
        raise SchemaError(f"{path}: unknown fields {sorted(value.keys() - allowed)}")
    return value


def _parse_raw(order: int, doc) -> K3Config:
    """A raw document's configuration, read in one pass that builds its records through
    the factories the named constructors share; a null ``quotient_genus`` or ``char_dims``
    is absent.  At the first object with a fault (an unknown field, a value of the wrong
    kind, an integer :func:`_as_int` refuses), :func:`_raw_fault` raises instead."""
    lo, hi = -_INT_BOUND, _INT_BOUND
    if not (isinstance(doc, dict) and doc.keys() <= _RAW_FIELDS):
        return _raw_fault(order, doc)
    dims, subs = doc.get("eigenspace_dims"), doc.get("subgroups", [])
    if not (isinstance(dims, list) and len(dims) == order and isinstance(subs, list)
            and {*map(type, dims)} == {int} and lo < min(dims) and max(dims) < hi):
        return _raw_fault(order, doc)
    records = []
    for sub in subs:
        if not (isinstance(sub, dict) and sub.keys() <= _SUBGROUP_FIELDS):
            return _raw_fault(order, doc)
        d, curves, points = sub.get("order"), sub.get("curves", []), sub.get("points", [])
        if not (type(d) is int and lo < d < hi and isinstance(curves, list)
                and isinstance(points, list)):
            return _raw_fault(order, doc)
        built = []
        for c in curves:
            if not (isinstance(c, dict) and c.keys() <= _CURVE_FIELDS):
                return _raw_fault(order, doc)
            g, size, rho, gq, count, split = (
                c.get("genus"), c.get("orbit_size", 1), c.get("residual_order", 1),
                c.get("quotient_genus"), c.get("count", 1), c.get("char_dims"))
            if gq is None and rho == 1:
                gq = g  # the record's own default, so that equal records share one key
            if not (type(g) is type(size) is type(rho) is type(count) is int
                    and lo < g < hi and lo < size < hi and lo < rho < hi and lo < count < hi
                    and (gq is None or type(gq) is int and lo < gq < hi)
                    and (split is None or isinstance(split, list)
                         and all(type(v) is int and lo < v < hi for v in split))):
                return _raw_fault(order, doc)
            built.append(_curve((count, g, size, rho, gq,
                                 None if split is None else tuple(split))))
        found = []
        for p in points:
            if not (isinstance(p, dict) and p.keys() <= _POINT_FIELDS):
                return _raw_fault(order, doc)
            ty, size, count = p.get("type"), p.get("orbit_size", 1), p.get("count", 1)
            if not (isinstance(ty, list) and len(ty) == 2
                    and type(ty[0]) is type(ty[1]) is type(size) is type(count) is int
                    and lo < ty[0] < hi and lo < ty[1] < hi and lo < size < hi
                    and lo < count < hi):
                return _raw_fault(order, doc)
            found.append(_point((count, (ty[0], ty[1]), size)))
        records.append(SubgroupFixedRecord(d, built, found))
    return K3Config(order, _dims(order, tuple(dims)), records)


def _raw_fault(order: int, doc) -> None:
    """Raise, naming its field, the first fault of a raw document :func:`_parse_raw` refuses."""
    _as_object(doc, _RAW_FIELDS, "raw")
    dims = _as_list(_need(doc, "eigenspace_dims", "raw"), "raw.eigenspace_dims")
    for i, v in enumerate(dims):
        _as_int(v, "raw.eigenspace_dims", i)
    if len(dims) != order:
        raise SchemaError(f"raw.eigenspace_dims: expected {order} entries, got {len(dims)}")
    for i, sub in enumerate(_as_list(doc.get("subgroups", []), "raw.subgroups")):
        here = f"raw.subgroups[{i}]"
        _as_int(_need(_as_object(sub, _SUBGROUP_FIELDS, here), "order", here), here, ".order")
        for j, c in enumerate(_as_list(sub.get("curves", []), here + ".curves")):
            at = f"{here}.curves[{j}]"
            if _as_object(c, _CURVE_FIELDS, at).get("char_dims") is not None:
                for k, v in enumerate(_as_list(c["char_dims"], at + ".char_dims")):
                    _as_int(v, at + ".char_dims", k)
            _as_int(_need(c, "genus", at), at, ".genus")
            for name in ("orbit_size", "residual_order", "quotient_genus", "count"):
                if name in c and (c[name] is not None or name != "quotient_genus"):
                    _as_int(c[name], at, "." + name)
        for j, p in enumerate(_as_list(sub.get("points", []), here + ".points")):
            at = f"{here}.points[{j}]"
            ty = _need(_as_object(p, _POINT_FIELDS, at), "type", at)
            if not isinstance(ty, list) or len(ty) != 2:
                raise SchemaError(f"{at}.type: expected a pair of exponents")
            for name, v in (("type[0]", ty[0]), ("type[1]", ty[1]),  # an absent field is 1
                            ("orbit_size", p.get("orbit_size", 1)), ("count", p.get("count", 1))):
                _as_int(v, at, "." + name)


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

    ``cfg`` is trusted to be valid, as :func:`parse_config` returns it.  The
    report is the one :func:`crosscheck` builds, with the order, the
    document, no violations and the exit code added: 3 if a check fails.
    """
    report = crosscheck(cfg)
    report["order"] = cfg.n
    report["config"] = doc
    report["violations"] = []
    failed = "fail" in [c["status"] for c in report["checks"]]
    report["exit_code"] = EXIT_CHECK if failed else EXIT_OK
    return report


#: what ``json.dumps(report, sort_keys=True)`` builds afresh on every call, without its
#: search for reference cycles: a report has none, as :func:`run` builds it from parsed JSON
_JSON = json.JSONEncoder(sort_keys=True, check_circular=False)


def emit(report: dict, fmt: str = "text") -> str:
    """Render a report shaped as :func:`run` makes it: 'text' draws the diamond, and
    'json' writes ``json.dumps(report, sort_keys=True)`` on one line.  The JSON writer
    does not look for reference cycles: a report that contains itself raises
    ``RecursionError``."""
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
        elif sys.stdin is None:  # the process started with stdin closed
            print("error: cannot read the input: stdin is closed", file=sys.stderr)
            return EXIT_PARSE
        else:
            text = sys.stdin.read()
    except (OSError, SchemaError) as exc:  # a file's or a fixture's message names it
        named = args.fixture is not None or args.input is not None
        print(f"error: {exc}" if named else f"error: <stdin>: {exc}", file=sys.stderr)
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
