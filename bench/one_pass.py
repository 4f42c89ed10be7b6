"""One pass of a workload in a fresh interpreter; started by ``run.py``.

    python3 bench/one_pass.py SEED PASS [TRACE_FILE] < pickled (docs, warm-up docs)

``run.py`` starts this once per pass, so that nothing the package keeps in
memory carries over from one sight of a document to the next: each
document goes through ``bvhodge.cli.run_text`` exactly once here.  The
script times ``import bvhodge.cli`` before it imports anything else, reads
the documents from standard input, warms up on the warm-up documents (none
of which is in the pass), runs the documents group by group in an order
drawn from the seed and the pass number, checks every answer after the
pass, and prints one JSON line.  With a trace file, the pass is traced and its spans are
appended to that file.
"""

import os
import sys
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
_start = perf_counter()
try:
    from bvhodge import cli
except ImportError as exc:
    sys.exit(f"bench: cannot import bvhodge from {SRC}: {exc}")
SETUP_S = perf_counter() - _start

import json  # noqa: E402  (after the timed import, so that it does not shorten it)
import pickle  # noqa: E402
import resource  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from random import Random  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import tracer as tracing  # noqa: E402
import verify  # noqa: E402

#: fixed groups of documents, each timed as a whole (the last may be shorter)
GROUPS = 50


def call(doc):
    """One document through the CLI pipeline below argument parsing.

    Like ``cli.main``, invalid JSON and schema errors become exit 1.
    """
    try:
        return cli.run_text(doc.text, fmt=doc.fmt)
    except (json.JSONDecodeError, cli.SchemaError):
        return None, cli.EXIT_PARSE


def main(argv) -> int:
    seed, pass_no = int(argv[1]), int(argv[2])
    trace_file = argv[3] if len(argv) > 3 else None
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"bench: bvhodge was imported from {cli.__file__}, not {SRC}")

    docs, warm = pickle.loads(sys.stdin.buffer.read())
    for doc in warm:
        try:
            call(doc)
        except Exception:
            pass  # warm-up answers are not checked
    rng = Random(f"{seed}/{pass_no}")
    group_order = list(range(GROUPS))
    rng.shuffle(group_order)
    group_ns = [0] * GROUPS
    times = array("q", [0]) * len(docs)
    outcomes: list = [None] * len(docs)
    trace = tracing.Tracer() if trace_file else None

    with trace or nullcontext():
        for g in group_order:
            members = list(range(g, len(docs), GROUPS))
            rng.shuffle(members)
            start = perf_counter_ns()
            for i in members:
                doc = docs[i]
                if trace is not None:
                    trace.doc = (i, doc.order)
                t0 = perf_counter_ns()
                try:
                    outcomes[i] = call(doc)
                except Exception as exc:  # a document that escapes the exit codes
                    outcomes[i] = type(exc).__name__
                times[i] = perf_counter_ns() - t0
            group_ns[g] = perf_counter_ns() - start

    failed = wrong = 0
    errors: Counter = Counter()
    for doc, outcome in zip(docs, outcomes):
        if isinstance(outcome, str):
            failed += 1
            errors[f"{doc.kind}: {outcome}"] += 1
        elif not verify.matches(doc, outcome[1], outcome[0]):
            failed += 1
            wrong += 1
            errors[f"{doc.kind}: wrong answer"] += 1
    result = {
        "setup_s": SETUP_S,
        "group_ns": group_ns,
        "times_ns": list(times),
        "orders": Counter(doc.order for doc in docs),
        "failed": failed,
        "wrong": wrong,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace is not None:
        with open(trace_file, "a", encoding="utf-8") as out:
            trace.write(out, {"pass": pass_no, "documents": len(docs)})
        result["trace"] = trace.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
