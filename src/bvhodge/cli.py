"""Command-line driver: JSON configuration in, verified Hodge data out.

Exit codes: 0 success (all enabled checks pass), 1 parse error, 2
validation failure, 3 cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring_ascii
from typing import Optional

from .engine import CrosscheckReport, crosscheck, orbifold_euler_pairsum, orbifold_hodge_diamond
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


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}.{key}: missing required field")
    return doc[key]


#: at most 1000 digits: everything derived and printed sums products of at most three
#: input integers with small constants, so it stays below Python's 4300-digit str limit
_INT_BOUND = 10 ** 1000


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {value!r}")
    if not -_INT_BOUND < value < _INT_BOUND:
        raise SchemaError(f"{path}: integer field too long")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list")
    return value


def _no_extras(doc: dict, allowed, path: str):
    extras = sorted(set(doc) - set(allowed))
    if extras:
        raise SchemaError(f"{path}: unknown fields {extras}")


def _parse_curve(doc: dict, path: str) -> CurveOrbit:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    _no_extras(doc, ("orbit_size", "genus", "residual_order", "quotient_genus",
                     "char_dims", "count"), path)
    char_dims = doc.get("char_dims")
    if char_dims is not None:
        char_dims = tuple(_as_int(v, f"{path}.char_dims[{i}]")
                          for i, v in enumerate(_as_list(char_dims, f"{path}.char_dims")))
    return CurveOrbit(
        genus=_as_int(_need(doc, "genus", path), f"{path}.genus"),
        orbit_size=_as_int(doc.get("orbit_size", 1), f"{path}.orbit_size"),
        residual_order=_as_int(doc.get("residual_order", 1), f"{path}.residual_order"),
        quotient_genus=(None if doc.get("quotient_genus") is None
                        else _as_int(doc["quotient_genus"], f"{path}.quotient_genus")),
        char_dims=char_dims,
        count=_as_int(doc.get("count", 1), f"{path}.count"),
    )


def _parse_point(doc: dict, path: str) -> PointOrbit:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    _no_extras(doc, ("orbit_size", "type", "count"), path)
    ty = _need(doc, "type", path)
    if not isinstance(ty, list) or len(ty) != 2:
        raise SchemaError(f"{path}.type: expected a pair of exponents")
    return PointOrbit(
        type_exponents=(_as_int(ty[0], f"{path}.type[0]"), _as_int(ty[1], f"{path}.type[1]")),
        orbit_size=_as_int(doc.get("orbit_size", 1), f"{path}.orbit_size"),
        count=_as_int(doc.get("count", 1), f"{path}.count"),
    )


def _parse_raw(order: int, doc: dict) -> K3Config:
    if not isinstance(doc, dict):
        raise SchemaError("raw: expected an object")
    _no_extras(doc, ("eigenspace_dims", "subgroups"), "raw")
    dims = _as_list(_need(doc, "eigenspace_dims", "raw"), "raw.eigenspace_dims")
    dims = tuple(_as_int(v, f"raw.eigenspace_dims[{i}]") for i, v in enumerate(dims))
    if len(dims) != order:
        raise SchemaError(f"raw.eigenspace_dims: expected {order} entries, got {len(dims)}")
    records = []
    for i, sub in enumerate(_as_list(doc.get("subgroups", []), "raw.subgroups")):
        path = f"raw.subgroups[{i}]"
        if not isinstance(sub, dict):
            raise SchemaError(f"{path}: expected an object")
        _no_extras(sub, ("order", "curves", "points"), path)
        d = _as_int(_need(sub, "order", path), f"{path}.order")
        curves = tuple(_parse_curve(c, f"{path}.curves[{ci}]")
                       for ci, c in enumerate(_as_list(sub.get("curves", []), f"{path}.curves")))
        points = tuple(_parse_point(p, f"{path}.points[{pi}]")
                       for pi, p in enumerate(_as_list(sub.get("points", []), f"{path}.points")))
        records.append(SubgroupFixedRecord(d, curves, points))
    return K3Config(order, EigenspaceDims(order, dims), tuple(records))


def parse_config(doc: dict) -> K3Config:
    """Check the schema of a configuration document and build a valid model.

    A malformed document raises :class:`SchemaError`.  An impossible one
    raises :class:`InvariantError`: a named document from its constructor,
    a raw one from :func:`validate` here.  Nothing downstream validates
    again.
    """
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    _no_extras(doc, ("order", "invariants", "raw"), "top level")
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
    inv = doc["invariants"]
    if not isinstance(inv, dict):
        raise SchemaError("invariants: expected an object")
    keys = _INVARIANT_KEYS[order]
    _no_extras(inv, keys, "invariants")
    kwargs = {}
    for key in keys:
        value = _need(inv, key, "invariants")
        if key == "curve_genera":
            kwargs[key] = [_as_int(v, f"invariants.curve_genera[{i}]")
                           for i, v in enumerate(_as_list(value, "invariants.curve_genera"))]
        elif key == "D_type":
            if value not in ("first", "second"):
                raise SchemaError(f"invariants.D_type: expected 'first' or 'second', got {value!r}")
            kwargs[key] = value
        else:
            kwargs[key] = _as_int(value, f"invariants.{key}")
    return _CONSTRUCTORS[order](**kwargs)


@dataclass(frozen=True)
class RunReport:
    """Everything one run produces; rendered by :func:`emit`."""

    order: int
    config_echo: dict
    violations: tuple[str, ...] = ()
    diamond: Optional[tuple[tuple[int, ...], ...]] = None
    engine: Optional[tuple[int, int, int]] = None  # (h11, h21, e)
    closed: Optional[tuple[int, int, int]] = None
    checks: Optional[tuple] = None
    exit_code: int = EXIT_OK


def run(cfg: K3Config, doc: dict, checks: bool = True) -> RunReport:
    """Compute the diamond, the Euler characteristic and the cross-checks.

    ``cfg`` is trusted to be valid, as :func:`parse_config` returns it.
    """
    if checks:
        report: CrosscheckReport = crosscheck(cfg)
        diamond = report.diamond
        e_pair = report.euler_pairsum
        closed = None
        if report.closed is not None:
            closed_checks = {c.name: c for c in report.checks}
            closed = (report.closed.h11, report.closed.h21, closed_checks["closed_form_euler"].rhs)
        return RunReport(
            cfg.n, doc,
            diamond=diamond.table,
            engine=(report.h11, report.h21, e_pair),
            closed=closed,
            checks=tuple((c.name, c.status, c.lhs, c.rhs) for c in report.checks),
            exit_code=EXIT_OK if report.passed else EXIT_CHECK,
        )
    diamond = orbifold_hodge_diamond(cfg)
    return RunReport(
        cfg.n, doc,
        diamond=diamond.table,
        engine=(diamond.entry(1, 1), diamond.entry(2, 1), orbifold_euler_pairsum(cfg)),
    )


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null"}


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` of a JSON value, byte for byte.

    The stdlib indents only in pure Python; strings, ints and ``None`` are written in place.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": "
            + (write(v) if (write := _SCALARS.get(type(v))) else _json_text(v, inner))
            for k, v in sorted(value.items())) + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        return "[" + inner + ("," + inner).join(
            write(v) if (write := _SCALARS.get(type(v))) else _json_text(v, inner)
            for v in value) + indent + "]"
    write = _SCALARS.get(type(value))
    return write(value) if write else json.dumps(value)  # bools, floats, {} and []


def emit(report: RunReport, fmt: str = "text") -> str:
    """Render a report; 'text' draws the diamond, 'json' is stable and sorted."""
    if fmt == "json":
        payload = {
            "order": report.order,
            "config": report.config_echo,
            "violations": list(report.violations),
            "diamond": [list(row) for row in report.diamond] if report.diamond else None,
            "engine": (None if report.engine is None else
                       {"h11": report.engine[0], "h21": report.engine[1],
                        "euler": report.engine[2]}),
            "closed_form": (None if report.closed is None else
                            {"h11": report.closed[0], "h21": report.closed[1],
                             "euler": report.closed[2]}),
            "checks": (None if report.checks is None else
                       [{"name": n, "status": s, "lhs": l, "rhs": r}
                        for n, s, l, r in report.checks]),
            "exit_code": report.exit_code,
        }
        return _json_text(payload) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")

    lines = [f"order {report.order} quotient of K3 x E"]
    if report.violations:
        lines.append("validation:")
        lines.extend(f"  {v}" for v in report.violations)
    if report.diamond is not None:
        lines.append("")
        lines.append("Hodge diamond of the crepant resolution:")
        lines.extend("  " + row for row in pictogram(report.diamond).splitlines())
        lines.append("")
        h11, h21, e = report.engine
        lines.append(f"engine:      h^{{1,1}} = {h11}  h^{{2,1}} = {h21}  e = {e}")
        if report.closed is not None:
            ch11, ch21, ce = report.closed
            lines.append(f"closed form: h^{{1,1}} = {ch11}  h^{{2,1}} = {ch21}  e = {ce}")
        else:
            lines.append("closed form: not applicable")
    if report.checks is not None:
        lines.append("checks:")
        for name, status, lhs, rhs in report.checks:
            tail = "" if status == "skipped" else f"  ({lhs} == {rhs})"
            lines.append(f"  {name:<18} {status.upper()}{tail}")
    lines.append("")
    return "\n".join(lines)


def _fixture_root():
    return resources.files("bvhodge").joinpath("fixtures")


def fixture_names() -> list[str]:
    return sorted(p.name[: -len(".json")] for p in _fixture_root().iterdir()
                  if p.name.endswith(".json"))


def load_fixture_text(name: str) -> str:
    path = _fixture_root().joinpath(f"{name}.json")
    if not path.is_file():
        raise SchemaError(f"unknown fixture {name!r}; try --list-fixtures")
    return path.read_text(encoding="utf-8")


def run_text(text: str, fmt: str = "text", checks: bool = True) -> tuple[str, int]:
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
        report = RunReport(doc["order"], doc, tuple(str(v) for v in exc.violations),
                           exit_code=EXIT_INVALID)
        return emit(report, fmt), EXIT_INVALID
    report = run(cfg, doc, checks=checks)
    return emit(report, fmt), report.exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bvhodge",
        description="Hodge diamonds of crepant resolutions of (K3 x E)/C_n quotients, "
                    "computed exactly and cross-checked.",
    )
    parser.add_argument("--input", metavar="PATH", help="configuration JSON (default: stdin)")
    parser.add_argument("--fixture", metavar="NAME", help="run a bundled fixture instead")
    parser.add_argument("--list-fixtures", action="store_true", help="list bundled fixtures")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--no-checks", action="store_true", help="skip the cross-checks")
    args = parser.parse_args(argv)

    if args.list_fixtures:
        for name in fixture_names():
            print(name)
        return EXIT_OK
    try:
        if args.fixture:
            text = load_fixture_text(args.fixture)
        elif args.input:
            with open(args.input, encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = sys.stdin.read()
    except (OSError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        rendered, code = run_text(text, fmt=args.format, checks=not args.no_checks)
    except json.JSONDecodeError as exc:
        print(f"parse error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
