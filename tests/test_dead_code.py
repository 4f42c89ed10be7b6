"""No top-level name or class member in ``src/`` that nothing uses.

Code that only the tests need lives in ``tests/oracles.py``.  This scan
reads every module of ``src/bvhodge`` with :mod:`ast`, collects the
top-level functions, classes and constants, and fails on each that no
module of ``src/`` references, by name or as an attribute, unless it is
exported in ``bvhodge.__all__``, hooked by ``bench/tracer.py`` or is
``main``.  It does the same for the members of every class (methods,
properties and class constants), by bare attribute name: a member passes
when any other statement of ``src/``, another member of its own class
included, reads that name.  Dunder names such as ``__version__``,
``__all__`` and ``__init__`` are protocol, not code, and are left out.

Its limit: names are matched bare, not resolved.  A member whose name
another class, a top-level function or a local variable also uses, such
as a property named like a field read elsewhere, passes unseen.
"""

import ast
import runpy
from pathlib import Path

import bvhodge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bvhodge"
TRACER = ROOT / "bench" / "tracer.py"


def _defined(node: ast.stmt) -> list[str]:
    """The function, class or assigned constant names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _referenced(node: ast.stmt) -> set[str]:
    """Every name a statement reads, reads as an attribute, or imports from a sibling."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def unreferenced_names(src: Path = SRC) -> list[str]:
    """``module.name`` of every top-level definition in ``src`` that no other statement uses,
    and ``module.Class.name`` of every such class member, in the order of the source."""
    statements = [(path.stem, node, _referenced(node)) for path in sorted(src.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body]
    # a class body counts statement by statement, so one member may use another
    units = [(node, refs) for _, node, refs in statements if not isinstance(node, ast.ClassDef)]
    units += [(member, _referenced(member)) for _, node, _ in statements
              if isinstance(node, ast.ClassDef) for member in node.body]
    hooked = {(layer, attr) for layer, attr, *_ in runpy.run_path(str(TRACER))["HOOKS"]}
    exempt = set(bvhodge.__all__) | {"main"}
    unused = []
    for module, node, _ in statements:
        for name in _defined(node):
            if name in exempt or (module, name) in hooked:
                continue
            # a definition's own body does not count: a self-recursive orphan is still one
            if not any(name in refs for _, other, refs in statements if other is not node):
                unused.append(f"{module}.{name}")
        for member in node.body if isinstance(node, ast.ClassDef) else ():
            for name in _defined(member):
                if not any(name in refs for other, refs in units if other is not member):
                    unused.append(f"{module}.{node.name}.{name}")
    return unused


def test_every_top_level_name_in_src_is_used():
    assert unreferenced_names() == []


def test_the_scan_sees_a_definition_nothing_uses(tmp_path):
    # the guard is live: an unused helper next to the real modules is named, and so is an
    # unused method, but not the method that only its own class calls
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    hodge = tmp_path / "hodge.py"
    anchor = "    def is_self_dual(self) -> bool:\n"
    text = hodge.read_text(encoding="utf-8")
    assert text.count(anchor) == 1
    seeded = ("    def orphan_member(self):\n        return self._helper_member()\n\n"
              "    def _helper_member(self):\n        return self\n\n")
    text = text.replace(anchor, seeded + anchor)
    hodge.write_text(text + "\n\ndef _orphan():\n    return _orphan\n\n\nORPHAN = 1\n",
                     encoding="utf-8")
    assert unreferenced_names(tmp_path) == ["hodge.HodgeDiamond.orphan_member",
                                            "hodge._orphan", "hodge.ORPHAN"]
