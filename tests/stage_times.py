"""In-process time per stage of ``bvhodge.cli.run_text``, per benchmark workload.

    PYTHONPATH=src python tests/stage_times.py [REPEATS]
    PYTHONPATH=src python tests/stage_times.py --count WORKLOAD   # one count row, as JSON

The script loads ``bench/workloads.py`` by path, without changing it, and
builds seed 1 of each of its workloads.  It splits ``run_text`` into its
stages and feeds each stage the inputs that the documents bring to it:

* ``json.loads`` every document's text;
* ``parse_config`` every document that loads;
* ``run`` every configuration that parses;
* ``emit`` every report that ``run_text`` renders, in the document's format.

A stage's figure is the best of REPEATS (default 7) loops over its inputs,
divided by the number of documents in the workload: microseconds per
document.  ``run_text`` is timed whole in the same way.  A workload of
several kinds of document (``rejects``: nested, malformed, schema,
invalid-named and invalid-raw) also gets one row per kind, timed over that
kind's documents alone.

A second table counts the fixed-locus records that one pass of each workload
builds, the raw documents whose fault the field-wise walk
(``cli._raw_fault``) names, and the engine's walks over a subgroup record
(``engine._walk``, one per record of each document the engine reads):
``run_text`` once per document, in a fresh interpreter, so that the record
caches start empty.  Pytest does not collect this file; it is a measuring
tool, like ``bench_digests.py``.
"""

from __future__ import annotations

import json
import runpy
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

from bvhodge import cli, engine, fixed_locus

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
SEED = 1
#: the fixed-locus record classes whose constructions the second table counts
COUNTED = ("CurveOrbit", "PointOrbit", "SubgroupFixedRecord", "EigenspaceDims")
#: the column that counts the raw documents the field-wise walk reads to name a fault
WALK = "_raw_fault"
#: the column that counts the engine's walks over a subgroup record
RECORD_WALK = "_walk"


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


def _count_records(docs) -> list[int]:
    """Constructions of each class in ``COUNTED``, then calls of the field-wise walk and of
    the record walk, while ``run_text`` handles ``docs`` once."""
    counts = dict.fromkeys(COUNTED + (WALK, RECORD_WALK), 0)
    for name in COUNTED:
        cls = getattr(fixed_locus, name)

        def counting(self, *args, _init=cls.__init__, _name=name, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        cls.__init__ = counting

    def walking(*args, _walk=cli._raw_fault):
        counts[WALK] += 1
        return _walk(*args)

    def walking_record(*args, _walk=engine._walk):
        counts[RECORD_WALK] += 1
        return _walk(*args)

    cli._raw_fault = walking
    engine._walk = walking_record
    for d in docs:
        try:
            cli.run_text(d.text, d.fmt)
        except (ValueError, RecursionError):
            pass
    return list(counts.values())


def _fresh_counts(workload: str) -> list[int]:
    """:func:`_count_records` of one seed-1 pass of ``workload``, in a fresh interpreter."""
    done = subprocess.run([sys.executable, __file__, "--count", workload],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv) -> int:
    if argv[1:2] == ["--count"]:
        workloads = runpy.run_path(str(WORKLOADS))
        docs = workloads["WORKLOADS"][argv[2]](SEED, workloads["catalog_tuples"]())
        print(json.dumps(_count_records(docs)))
        return 0
    repeats = int(argv[1]) if len(argv) > 1 else 7
    workloads = runpy.run_path(str(WORKLOADS))
    tuples = workloads["catalog_tuples"]()
    built = {name: build(SEED, tuples) for name, build in workloads["WORKLOADS"].items()}
    stages = ("json.loads", "parse_config", "run", "emit", "run_text")
    print(f"µs per document, best of {repeats}, seed {SEED}")
    print(f"{'workload':<16} {'docs':>5} " + " ".join(f"{s:>12}" for s in stages))
    for name, docs in built.items():
        kinds = sorted({d.kind for d in docs})
        rows = [(name, docs)]
        if len(kinds) > 1:
            rows += [(f"  {k}", [d for d in docs if d.kind == k]) for k in kinds]
        for label, some in rows:
            inputs = _stage_inputs(some)
            cells = " ".join(f"{_best_us(*inputs[s], repeats, len(some)):>12.1f}"
                             for s in stages)
            print(f"{label:<16} {len(some):>5} {cells}")
    print(f"\nrecords built in one pass, fresh process, seed {SEED}")
    print(f"{'workload':<10} " + " ".join(f"{c:>19}" for c in COUNTED + (WALK, RECORD_WALK)))
    for name in built:
        print(f"{name:<10} " + " ".join(f"{c:>19,}" for c in _fresh_counts(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
