"""Digests of every output of the benchmark's seed-1 documents.

    PYTHONPATH=src python tests/bench_digests.py > tests/bench_digests.txt

The script loads ``bench/workloads.py`` by path, without changing it, and
builds seed 1 of each of its workloads.  It renders every document through
``bvhodge.cli.run_text`` in text and in JSON, and writes one line per
document:

    workload index kind exit_code text_digest json_digest

A digest is the first 12 hex digits of the SHA-256 of the rendered output.
A document refused with ``JSONDecodeError`` or ``SchemaError`` exits 1, and
its digests are taken of the exception's class and message.  The JSON
output holds its own exit code, so the line pins both.

``test_bench_digests.py`` recomputes the lines and compares them with the
committed file.  A change that moves output on purpose regenerates the file
with this script and says in CHANGES.md which documents moved and why.
"""

from __future__ import annotations

import hashlib
import json
import runpy
import sys
from pathlib import Path

from bvhodge import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
DIGESTS = Path(__file__).resolve().parent / "bench_digests.txt"
SEED = 1


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _render(text: str, fmt: str) -> tuple[str, int]:
    try:
        return cli.run_text(text, fmt=fmt)
    except (json.JSONDecodeError, cli.SchemaError) as exc:
        return f"{type(exc).__name__}: {exc}", cli.EXIT_PARSE


def digest_lines() -> list[str]:
    """One line per seed-1 document of every workload, in the workloads' own order."""
    workloads = runpy.run_path(str(WORKLOADS))
    tuples = workloads["catalog_tuples"]()
    lines = []
    for name, build in workloads["WORKLOADS"].items():
        for i, doc in enumerate(build(SEED, tuples)):
            text, code = _render(doc.text, "text")
            json_text = _render(doc.text, "json")[0]
            lines.append(f"{name} {i} {doc.kind} {code} {_digest(text)} {_digest(json_text)}")
    return lines


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in digest_lines()))
