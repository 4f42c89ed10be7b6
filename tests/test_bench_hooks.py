"""The benchmark's tracer finds, wraps and restores every hook.

``bench/tracer.py`` rebinds the package attributes listed in its ``HOOKS``
and silently drops the metrics of any it cannot find, which leaves a traced
benchmark result without them.  These tests read that list and fail
instead, and run the tracer itself on one fixture of each order.
"""

import importlib
import runpy
from pathlib import Path

from bvhodge import cli

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


def test_tracer_installs_records_and_restores():
    space = runpy.run_path(str(TRACER))
    modules = {layer: importlib.import_module(f"bvhodge.{layer}")
               for layer, *_ in space["HOOKS"]}
    originals = {(layer, attr): getattr(modules[layer], attr)
                 for layer, attr, *_ in space["HOOKS"]}
    inits = {key: target.__init__ for key, target in originals.items() if isinstance(target, type)}
    constructors = dict(cli._CONSTRUCTORS)

    with space["Tracer"]() as trace:
        for name in ("order2_two_curves", "order3_curve_and_point",
                     "order4_first_type", "order6_elliptic_top_curve"):
            assert cli.run_text(cli.load_fixture_text(name), fmt="json")[1] == cli.EXIT_OK
    assert trace.missing == []
    recorded = {span[1] for span in trace.spans}
    assert {"engine.orbifold_hodge_diamond", "cli.emit"} <= recorded
    assert sum(calls for *_, calls in trace.totals["hodge.HodgeDiamond"].values()) > 0

    for (layer, attr), original in originals.items():
        assert getattr(modules[layer], attr) is original, f"{layer}.{attr} not restored"
    for (layer, attr), init in inits.items():
        assert originals[layer, attr].__init__ is init, f"{layer}.{attr}.__init__ not restored"
    assert all(cli._CONSTRUCTORS[n] is f for n, f in constructors.items())
