"""The bvhodge benchmark: documents through ``bvhodge.cli.run_text``.

Usage, from the repository root:

    python3 bench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

One thread and one closed-loop client: the next document goes in only after
the previous answer is back.  Each pass over the workload runs in a fresh
interpreter (``one_pass.py``), started only after the previous one has
ended, so every pass sees each document once and nothing cached in one
pass helps the next.  The package is imported from ``src/`` of the checkout
that holds this file, and receives only the generated documents.  Each
answer is checked against the expectation the generator built into its
document.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` traced passes alternate with
untraced ones, the line holds the per-layer metrics, and the spans go to
``bench/out/``.  See ``bench/README.md`` for the metrics, workloads and
baseline figures.
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ONE_PASS = HERE / "one_pass.py"
OUT = HERE / "out"

#: passes of each kind (untraced, traced) that a run makes at least
MIN_PASSES = 2
#: seconds one pass may take before the run is abandoned
PASS_TIMEOUT = 120
#: untimed documents before each pass
WARMUP_DOCS = 100
#: the warm-up documents are ``rejects`` of the workload's seed plus this
WARMUP_SEED_SHIFT = 1_000_003


def make_input(workload: str, seed: int) -> bytes:
    """The pickled documents of a pass and the warm-up documents before it.

    The warm-up documents are another seed's rejects, without the deeply
    nested ones, so none of them is in the pass.
    """
    tuples = workloads.catalog_tuples()
    warm = [doc for doc in workloads.rejects(seed + WARMUP_SEED_SHIFT, tuples)
            if doc.kind != "nested"][:WARMUP_DOCS]
    return pickle.dumps((workloads.WORKLOADS[workload](seed, tuples), warm))


def run_pass(docs: bytes, seed: int, pass_no: int, trace_file: Path | None = None) -> dict:
    """One pass in a fresh interpreter; its result, or the run stops with its error."""
    argv = [sys.executable, str(ONE_PASS), str(seed), str(pass_no)]
    if trace_file is not None:
        argv.append(str(trace_file))
    done = subprocess.run(argv, input=docs, capture_output=True, timeout=PASS_TIMEOUT)
    if done.returncode:
        raise SystemExit(done.stderr.decode().strip()
                         or f"bench: pass {pass_no} exited {done.returncode}")
    return json.loads(done.stdout)


def summarize(passes: list[dict]) -> dict:
    """Throughput, median latency from best times, and p99 latency of every call.

    The host's speed swings by 15% and more over seconds, which moves single
    passes but rarely every pass, while a change to the program moves them
    all.  So throughput counts each fixed group of documents at its fastest
    pass, with the loop and garbage collection inside that group's time, and
    the median latency is that of the documents' best times over the passes.
    A tail of best times swings with the few documents that never met a fast
    moment, so the p99 latency is taken over every timed call instead.
    """
    best = sorted(min(times) for times in zip(*(p["times_ns"] for p in passes)))
    every = sorted(t for p in passes for t in p["times_ns"])
    group_best = sum(min(times) for times in zip(*(p["group_ns"] for p in passes)))
    return {
        "docs_per_s": len(best) * 1e9 / group_best,
        "doc_p50_us": statistics.median(best) / 1e3,
        "doc_p99_us": every[-(-99 * len(every) // 100) - 1] / 1e3,
    }


#: per-layer metrics: (name, tracer key, statistic, split by order)
PER_LAYER = (
    ("cli.run_text.self_us", "cli.run_text", "self", False),
    ("cli.parse_config.self_us", "cli.parse_config", "self", False),
    ("cli.run.self_us", "cli.run", "self", False),
    ("cli.emit.us", "cli.emit", "incl", False),
    ("fixed_locus.validate.calls", "fixed_locus.validate", "calls", False),
    ("fixed_locus.validate.us", "fixed_locus.validate", "incl", False),
    ("fixed_locus.from_invariants.self_us", "fixed_locus.from_invariants", "self", False),
    ("engine.untwisted_diamond.self_us", "engine.untwisted_diamond", "self", True),
    ("engine.sector_contribution.us", "engine.sector_contribution", "incl", True),
    ("engine.sector_contribution.calls", "engine.sector_contribution", "calls", True),
    ("engine.orbifold_euler_pairsum.us", "engine.orbifold_euler_pairsum", "incl", True),
    ("engine.orbifold_hodge_diamond.self_us", "engine.orbifold_hodge_diamond", "self", True),
    ("engine.crosscheck.self_us", "engine.crosscheck", "self", True),
    ("hodge.kunneth_character_product.us", "hodge.kunneth_character_product", "incl", False),
    ("hodge.HodgeDiamond.built", "hodge.HodgeDiamond", "calls", True),
    ("hodge.CharacterVector.built", "hodge.CharacterVector", "calls", True),
    ("closed_forms.closed_form_pair.us", "closed_forms.closed_form_pair", "incl", False),
    ("cyclic.age.calls", "cyclic.age", "calls", False),
)
_STAT = {"incl": (0, 1e-3), "self": (1, 1e-3), "calls": (2, 1)}
_UNIT = {"incl": "us/doc", "self": "us/doc", "calls": "1/doc"}


def layer_metrics(traced: list[dict]) -> dict:
    """Per-document layer figures over the traced passes.

    A metric whose hook is missing is left out.
    """
    found = {key for layer, attr, _, key in tracing.HOOKS
             if f"{layer}.{attr}" in traced[0]["trace"]["found"]}
    totals: dict = {}
    per_order: Counter = Counter()
    for result in traced:
        per_order.update({int(order): n for order, n in result["orders"].items()})
        for key, by_order in result["trace"]["totals"].items():
            for order, agg in by_order.items():
                into = totals.setdefault(key, {}).setdefault(int(order), [0, 0, 0])
                for i, value in enumerate(agg):
                    into[i] += value
    docs = sum(per_order.values())
    metrics = {}
    for name, key, stat, split in PER_LAYER:
        if key not in found:
            continue
        index, scale = _STAT[stat]
        by_order = totals.get(key, {})
        total = sum(agg[index] for agg in by_order.values())
        metrics[name] = {"value": total * scale / docs, "unit": _UNIT[stat]}
        if split:
            for order in workloads.ORDERS:
                if per_order[order]:
                    value = by_order.get(order, (0, 0, 0))[index] * scale / per_order[order]
                    metrics[f"{name}.n{order}"] = {"value": value, "unit": _UNIT[stat]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    trace_file = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}.jsonl"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed}) + "\n")

    docs = make_input(args.workload, args.seed)
    plain: list[dict] = []
    traced: list[dict] = []
    start = perf_counter()
    while (len(plain) < MIN_PASSES or len(traced) < MIN_PASSES * args.trace
           or perf_counter() - start < args.seconds):
        pass_no = len(plain) + len(traced)
        if args.trace and pass_no % 2:
            traced.append(run_pass(docs, args.seed, pass_no, trace_file))
        else:
            plain.append(run_pass(docs, args.seed, pass_no))

    everything = plain + traced
    per_pass = len(plain[0]["times_ns"])
    attempted = per_pass * len(everything)
    failed = sum(p["failed"] for p in everything)
    errors: Counter = sum((Counter(p["errors"]) for p in everything), Counter())
    run = summarize(plain)
    if not args.trace:
        metrics = {
            "docs_per_s": {"value": run["docs_per_s"], "unit": "1/s"},
            "doc_p50_us": {"value": run["doc_p50_us"], "unit": "us"},
            "doc_p99_us": {"value": run["doc_p99_us"], "unit": "us"},
            "ok_frac": {"value": 1 - failed / attempted, "unit": "fraction"},
            # best of one fresh import per pass, like the document timings
            "setup_s": {"value": min(p["setup_s"] for p in plain), "unit": "s"},
            "peak_rss_mb": {"value": max(p["maxrss_kb"] for p in plain) / 1024, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(traced)
        metrics["trace.overhead_frac"] = {
            "value": run["docs_per_s"] / summarize(traced)["docs_per_s"] - 1,
            "unit": "fraction"}
        hooks = traced[0]["trace"]
        print(f"hooks found: {len(hooks['found'])}; missing: {hooks['missing'] or 'none'}")
        print(f"spans: {trace_file.relative_to(HERE.parent)}")

    print(f"workload {args.workload}, seed {args.seed}: {per_pass} documents per pass, "
          f"{len(plain)} untraced and {len(traced)} traced passes, {failed} failed; "
          f"median latency over the {per_pass} per-document best times, p99 over the "
          f"{per_pass * len(plain)} untraced calls")
    for what, count in sorted(errors.items()):
        print(f"  {what}: {count}")
    print(json.dumps({"correct": not any(p["wrong"] for p in everything),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
