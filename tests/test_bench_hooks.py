"""Every function and class the benchmark's tracer hooks still exists.

``bench/tracer.py`` rebinds the package attributes listed in its ``HOOKS``
and silently drops the metrics of any it cannot find, which leaves a traced
benchmark result without them.  This test reads that list, without
installing the tracer, and fails instead.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_bench_hook_resolves_to_a_callable():
    hooks = runpy.run_path(str(TRACER))["HOOKS"]
    assert hooks
    missing = []
    for layer, attr, *_ in hooks:
        target = getattr(importlib.import_module(f"bvhodge.{layer}"), attr, None)
        if not callable(target):
            missing.append(f"{layer}.{attr}")
    assert not missing, f"bench hooks without a target: {missing}"
