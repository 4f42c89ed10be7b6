"""In-process time per stage of ``bvhodge.cli.run_text``, per benchmark workload.

    PYTHONPATH=src python tests/stage_times.py [REPEATS]

The script loads ``bench/workloads.py`` by path, without changing it, and
builds seed 1 of each of its workloads.  It splits ``run_text`` into its
stages and feeds each stage the inputs that the documents bring to it:

* ``json.loads`` every document's text;
* ``parse_config`` every document that loads;
* ``run`` every configuration that parses;
* ``emit`` every report that ``run_text`` renders, in the document's format.

A stage's figure is the best of REPEATS (default 7) loops over its inputs,
divided by the number of documents in the workload: microseconds per
document.  ``run_text`` is timed whole in the same way.  Pytest does not
collect this file; it is a measuring tool, like ``bench_digests.py``.
"""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path
from time import perf_counter_ns

from bvhodge import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
SEED = 1


def _best_us(fn, inputs, repeats: int, per: int) -> float:
    """Best of ``repeats`` loops of ``fn`` over ``inputs``, in µs per one of ``per`` documents."""
    best = None
    for _ in range(repeats):
        start = perf_counter_ns()
        for args in inputs:
            try:
                fn(*args)
            except (ValueError, RecursionError):  # refused documents time their refusal
                pass
        took = perf_counter_ns() - start
        best = took if best is None else min(best, took)
    return best / 1e3 / per


def _stage_inputs(docs) -> dict:
    """The inputs each stage sees when ``run_text`` handles ``docs``."""
    loads, parse, run, emit = [], [], [], []
    real_emit = cli.emit
    cli.emit = lambda report, fmt: emit.append((report, fmt)) or real_emit(report, fmt)
    try:
        for d in docs:
            loads.append((d.text,))
            try:
                doc = json.loads(d.text)
            except (ValueError, RecursionError):
                continue
            parse.append((doc,))
            try:
                run.append((cli.parse_config(doc), doc))
            except (ValueError, RecursionError):
                pass
            try:
                cli.run_text(d.text, d.fmt)
            except (ValueError, RecursionError):
                pass
    finally:
        cli.emit = real_emit
    return {"json.loads": (json.loads, loads), "parse_config": (cli.parse_config, parse),
            "run": (cli.run, run), "emit": (cli.emit, emit),
            "run_text": (cli.run_text, [(d.text, d.fmt) for d in docs])}


def main(argv) -> int:
    repeats = int(argv[1]) if len(argv) > 1 else 7
    workloads = runpy.run_path(str(WORKLOADS))
    tuples = workloads["catalog_tuples"]()
    built = {name: build(SEED, tuples) for name, build in workloads["WORKLOADS"].items()}
    stages = ("json.loads", "parse_config", "run", "emit", "run_text")
    print(f"µs per document, best of {repeats}, seed {SEED}")
    print(f"{'workload':<10} {'docs':>5} " + " ".join(f"{s:>12}" for s in stages))
    for name, docs in built.items():
        inputs = _stage_inputs(docs)
        cells = " ".join(f"{_best_us(*inputs[s], repeats, len(docs)):>12.1f}" for s in stages)
        print(f"{name:<10} {len(docs):>5} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
