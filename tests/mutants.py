"""One-line mutants of ``src/``, each run against the tier-1 suite in a copy of the repo.

    PYTHONPATH=src python tests/mutants.py [NAME ...]

Each entry of :data:`MUTANTS` is ``(name, file, old text, new text)``: it
replaces the one occurrence of the old text in the file (a path from the
root of the repo) by the new text, which breaks one rule or one check.  The
sweep copies the repo into a temporary directory once, applies each mutant
there in turn, runs ``pytest -x`` on the copy (all of tier-1 but
``test_mutants.py``, which every mutant fails) and restores the file; the
working tree is never changed.  It prints one line per mutant:

    killed    NAME  FIRST_FAILING_TEST
    survived  NAME

and the two counts; it exits 1 if any mutant survived.  Without names it
runs every mutant.  ``test_mutants.py`` checks that each old text still
occurs exactly once in its file, so a change that moves the text updates
the list.  Pytest does not collect this file; the sweep takes minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENGINE, CLI = "src/bvhodge/engine.py", "src/bvhodge/cli.py"
FIXED_LOCUS = "src/bvhodge/fixed_locus.py"

MUTANTS = (
    # the checks of the report, and how a failed one sets the exit code
    ("check-compares-nothing", ENGINE,
     '"pass" if lhs == rhs else "fail"', '"pass" if lhs is not None else "fail"'),
    ("euler-pairsum-against-itself", ENGINE,
     '_check("euler_pairsum", euler_characteristic(diamond), e_pair)',
     '_check("euler_pairsum", e_pair, e_pair)'),
    ("cy-relation-against-itself", ENGINE,
     '_check("cy_relation", h21, h11 - e_pair // 2)', '_check("cy_relation", h21, h21)'),
    ("closed-h11-against-itself", ENGINE,
     '_check("closed_form_h11", h11, pair.h11)', '_check("closed_form_h11", h11, h11)'),
    ("closed-h21-against-itself", ENGINE,
     '_check("closed_form_h21", h21, pair.h21)', '_check("closed_form_h21", h21, h21)'),
    ("closed-euler-against-itself", ENGINE,
     '_check("closed_form_euler", e_pair, closed["euler"])',
     '_check("closed_form_euler", e_pair, e_pair)'),
    ("fail-exits-0", CLI,
     'report["exit_code"] = EXIT_CHECK if failed else EXIT_OK', 'report["exit_code"] = EXIT_OK'),
    # the closed-form checks of a raw configuration, which has no named invariants
    ("raw-closed-forms-pass", ENGINE,
     '{"name": name, "status": "skipped", "lhs": None, "rhs": None}',
     '{"name": name, "status": "pass", "lhs": None, "rhs": None}'),
    ("raw-closed-euler-dropped", ENGINE,
     'for name in ("closed_form_h11", "closed_form_h21", "closed_form_euler")]',
     'for name in ("closed_form_h11", "closed_form_h21")]'),
    # the named constructors' relations that only a tuple breaking each one pins
    ("order3-positive-top-genus", FIXED_LOCUS,
     "if k == 0 and g_C > 0:", "if False:"),
    ("order4-first-type-n2", FIXED_LOCUS, "if n2 != 0:", "if False:"),
    ("order4-second-type-b", FIXED_LOCUS, "if 2 * (b - 1) != n1:", "if False:"),
    ("order4-residual-involution", FIXED_LOCUS,
     "if n2 > 2 + 2 * g_D or (2 + 2 * g_D - n2) % 4:", "if False:"),
    ("order6-lower-genus-F1", FIXED_LOCUS,
     "if g_F2 > 0 and (g_F1 != 1 or g_F2 != 1):", "if g_F2 > 0 and g_F2 != 1:"),
    ("order6-both-elliptic", FIXED_LOCUS,
     "if g_F2 > 0 and (g_F1 != 1 or g_F2 != 1):", "if g_F2 > 0 and g_F1 != 1:"),
    ("order6-quotient-genera", FIXED_LOCUS,
     "if g_G_quot > g_G or g_F1_quot > g_F1 or g_F2_quot > g_F2:", "if False:"),
    ("order6-cube-fixed-curves", FIXED_LOCUS, "if len(placed_f) > c3:", "if False:"),
    # the structural rules of validate, one guard each
    ("validate-dims-sum", FIXED_LOCUS, "if sum(dims) != K3_H2_DIM:", "if False:"),
    ("validate-dims-conjugate", FIXED_LOCUS, "if dims[1:] != dims[:0:-1]:", "if False:"),
    ("validate-d0-positive", FIXED_LOCUS, "if dims[0] < 1:", "if False:"),
    ("validate-d1-period", FIXED_LOCUS, "if dims[1] < need:", "if False:"),
    ("validate-duplicate-subgroup", FIXED_LOCUS, "if d in seen:", "if False:"),
    ("validate-pointwise-quotient-genus", FIXED_LOCUS,
     "if rho == 1 and gq != c.genus:", "if False:"),
    ("validate-quotient-genus-range", FIXED_LOCUS, "if not 0 <= gq <= c.genus:", "if False:"),
    ("validate-point-orbit-size", FIXED_LOCUS, "if step % p.orbit_size:", "if False:"),
    ("validate-point-type-multiples", FIXED_LOCUS,
     "elif t1 % step or t2 % step:", "elif False:"),
    ("validate-point-type-sum", FIXED_LOCUS, "elif (t1 + t2) % n != step % n:", "elif False:"),
)

#: what a run leaves in the tree, which the copy leaves out
_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def first_failure(repo: Path, timeout: int = 600) -> str | None:
    """The first test that fails in ``repo`` with ``pytest -x``, or None if all pass."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
             "--ignore", "tests/test_mutants.py"],  # which a mutant fails by construction
            cwd=repo, capture_output=True, text=True, timeout=timeout,
            # no bytecode: a restored file may keep the size and mtime of its mutant
            env={**os.environ, "PYTHONPATH": str(repo / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    except subprocess.TimeoutExpired:
        return "(timeout)"
    if done.returncode == 0:
        return None
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return f"(pytest exit {done.returncode})"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(ROOT, repo, ignore=_IGNORED)
        for name, path, old, new in chosen:
            target = repo / path
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {path}")
            target.write_text(text.replace(old, new), encoding="utf-8")
            try:
                failed = first_failure(repo)
            finally:
                target.write_text(text, encoding="utf-8")
            survived += failed is None
            verdict = "survived" if failed is None else "killed"
            print(f"{verdict:<9} {name}  {failed or ''}".rstrip(), flush=True)
    print(f"{len(chosen) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
