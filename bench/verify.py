"""Check one CLI answer against the expectation its document was built with.

The expectation comes from the generator (closed forms and the raw
perturbation), never from the package under test.  Only the fields the
expectation pins are compared, so added report fields or checks do not
count as mismatches.
"""

from __future__ import annotations

import json
import re

from workloads import Doc, cy_diamond, pictogram_rows

_ENGINE_LINE = re.compile(
    r"^engine:\s+h\^\{1,1\} = (-?\d+)\s+h\^\{2,1\} = (-?\d+)\s+e = (-?\d+)$", re.M)
_CHECK_LINE = re.compile(r"^  (\w+)\s+(PASS|FAIL|SKIPPED)\b", re.M)


def matches(doc: Doc, code: int, out) -> bool:
    """True when the exit code and the rendered report are what ``doc`` expects."""
    if code != doc.expect:
        return False
    if code == 1:
        return True  # parse and schema errors print nothing on stdout
    try:
        if doc.fmt == "json":
            return _json_ok(doc, json.loads(out))
        return _text_ok(doc, out)
    except (ValueError, TypeError, KeyError, AttributeError):
        return False  # a report that does not even parse is a wrong answer


def _json_ok(doc: Doc, report: dict) -> bool:
    if report.get("exit_code") != doc.expect:
        return False
    if doc.expect == 2:
        return bool(report.get("violations")) and report.get("diamond") is None
    h11, h21, euler = doc.hodge
    triple = {"h11": h11, "h21": h21, "euler": euler}
    checks = report.get("checks") or []
    return (report.get("diamond") == cy_diamond(h11, h21)
            and report.get("engine") == triple
            and report.get("closed_form") == triple
            and {"euler_pairsum", "cy_relation", "closed_form_h11", "closed_form_h21",
                 "closed_form_euler"} <= {c["name"] for c in checks}
            and all(c["status"] == "pass" for c in checks))


def _text_ok(doc: Doc, text: str) -> bool:
    h11, h21, euler = doc.hodge
    lines = text.splitlines()
    try:
        top = lines.index("Hodge diamond of the crepant resolution:") + 1
    except ValueError:
        return False
    rows = [[int(v) for v in line.split()] for line in lines[top:top + 7]]
    engine = _ENGINE_LINE.search(text)
    if rows != pictogram_rows(h11, h21) or engine is None:
        return False
    if tuple(int(v) for v in engine.groups()) != (h11, h21, euler):
        return False
    status = dict(_CHECK_LINE.findall(text))
    if doc.expect == 3:
        return status.get("euler_pairsum") == "FAIL"
    return (status.get("euler_pairsum") == "PASS" and status.get("cy_relation") == "PASS"
            and "FAIL" not in status.values())
