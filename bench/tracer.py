"""Run-time spans and counters around the package's public functions.

The tracer edits no source file: it rebinds each hooked function, at every
place the package's modules hold a reference to it (module globals and
module-level dicts such as the constructor table), and restores the
originals on exit.  A hook whose module or attribute no longer exists is
recorded as missing and its metrics are left out; it never stops the run.

A span records its name, start, end, parent span and document.  Every
span is kept in memory and written out at the end; aggregates (inclusive
time, self time and calls, per document order) are kept as the spans close.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter_ns

#: (layer, attribute, kind, metric key).  "span" times a function, "count"
#: counts its calls, "built" counts constructions of a class.  Several
#: attributes may share one metric key.
HOOKS = (
    ("cli", "run_text", "span", "cli.run_text"),
    ("cli", "parse_config", "span", "cli.parse_config"),
    ("cli", "run", "span", "cli.run"),
    ("cli", "emit", "span", "cli.emit"),
    ("fixed_locus", "validate", "span", "fixed_locus.validate"),
    ("fixed_locus", "from_invariants_order2", "span", "fixed_locus.from_invariants"),
    ("fixed_locus", "from_invariants_order3", "span", "fixed_locus.from_invariants"),
    ("fixed_locus", "from_invariants_order4", "span", "fixed_locus.from_invariants"),
    ("fixed_locus", "from_invariants_order6", "span", "fixed_locus.from_invariants"),
    ("engine", "untwisted_diamond", "span", "engine.untwisted_diamond"),
    ("engine", "sector_contribution", "span", "engine.sector_contribution"),
    ("engine", "orbifold_euler_pairsum", "span", "engine.orbifold_euler_pairsum"),
    ("engine", "orbifold_hodge_diamond", "span", "engine.orbifold_hodge_diamond"),
    ("engine", "crosscheck", "span", "engine.crosscheck"),
    ("hodge", "kunneth_character_product", "span", "hodge.kunneth_character_product"),
    ("closed_forms", "closed_form_pair", "span", "closed_forms.closed_form_pair"),
    ("cyclic", "age", "count", "cyclic.age"),
    ("hodge", "HodgeDiamond", "built", "hodge.HodgeDiamond"),
    ("hodge", "CharacterVector", "built", "hodge.CharacterVector"),
)

class Tracer:
    """Installs the hooks of :data:`HOOKS` on ``bvhodge``; use as a context manager."""

    def __init__(self):
        self.found: list[str] = []
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.doc = (0, 0)  # (document index, order) of the call in flight
        # key -> order -> [inclusive ns, self ns, calls]
        self.totals: dict[str, dict[int, list[int]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0, 0]))
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.found, self.missing = [], []
        modules = self._modules()
        for layer, attr, kind, key in HOOKS:
            name = f"{layer}.{attr}"
            target = getattr(modules.get(layer), attr, None)
            if target is None or not callable(target):
                self.missing.append(name)
                continue
            if kind == "built":
                self._wrap_init(target, key)
            else:
                wrapper = self._span(target, key) if kind == "span" else self._count(target, key)
                self._rebind(modules.values(), target, wrapper)
            self.found.append(name)
        return self

    def __exit__(self, *exc) -> None:
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    def _modules(self) -> dict:
        out = {"": importlib.import_module("bvhodge")}
        for layer in {layer for layer, *_ in HOOKS}:
            try:
                out[layer] = importlib.import_module(f"bvhodge.{layer}")
            except ImportError:
                pass
        return out

    def _rebind(self, modules, old, new) -> None:
        """Point every module-level reference to ``old`` at ``new``."""
        for module in modules:
            space = vars(module)
            for key, value in list(space.items()):
                if value is old:
                    space[key] = new
                    self._undo.append(functools.partial(space.__setitem__, key, old))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is old:
                            value[k] = new
                            self._undo.append(functools.partial(value.__setitem__, k, old))

    def _wrap_init(self, cls, key) -> None:
        original = cls.__init__
        totals = self.totals

        @functools.wraps(original)
        def __init__(obj, *args, **kwargs):
            totals[key][self.doc[1]][2] += 1
            original(obj, *args, **kwargs)

        cls.__init__ = __init__
        self._undo.append(lambda: setattr(cls, "__init__", original))

    def _count(self, fn, key):
        totals = self.totals

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            totals[key][self.doc[1]][2] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, key):
        stack, spans, totals = self._stack, self.spans, self.totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]  # id, time covered by child spans
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                doc, order = self.doc
                agg = totals[key][order]
                agg[0] += duration
                agg[1] += duration - frame[1]
                agg[2] += 1
                spans.append((span_id, key, start, end, parent, doc))

        return traced

    # -- results ------------------------------------------------------------

    def write(self, out, header: dict) -> None:
        """Write a header line, then every span as one JSON line, to ``out``."""
        out.write(json.dumps(dict(header, hooks_found=self.found,
                                  hooks_missing=self.missing)) + "\n")
        for span_id, key, start, end, parent, doc in self.spans:
            out.write(json.dumps({"id": span_id, "name": key, "start_ns": start,
                                  "end_ns": end, "parent": parent, "doc": doc}) + "\n")

    def summary(self) -> dict:
        """Hooks found and missing, and the aggregates, as plain JSON values."""
        return {"found": self.found, "missing": self.missing,
                "totals": {key: {str(order): agg for order, agg in by_order.items()}
                           for key, by_order in self.totals.items()}}
