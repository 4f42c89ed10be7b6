"""Every output of the benchmark's seed-1 documents is the committed one.

``bench_digests.py`` writes the digests; this test recomputes them.  On a
mismatch it counts the moved digests per output column, and the moved lines
per workload and per old -> new exit code, and names the first documents that
moved, so a change that moves output on purpose can say which moved.
"""

from collections import Counter

from bench_digests import DIGESTS, digest_lines

COLUMNS = ("text", "json", "text_nochecks", "json_nochecks")


def _summary(moved) -> str:
    """Counts of the moved lines ``moved``, pairs of old and new split lines."""
    columns = Counter(column for o, n in moved
                      for column, a, b in zip(COLUMNS, o[4:], n[4:]) if a != b)
    workloads = Counter(o[0] for o, _ in moved)
    exits = Counter(f"{o[3]} -> {n[3]}" for o, n in moved)
    return "; ".join(f"{title}: " + ", ".join(f"{key} {count}" for key, count in counts.items())
                     for title, counts in (("digests per column", columns),
                                           ("lines per workload", workloads),
                                           ("lines per exit", exits)))


def test_bench_outputs_match_the_committed_digests():
    old = DIGESTS.read_text(encoding="utf-8").splitlines()
    new = digest_lines()
    assert len(new) == len(old), f"{len(old)} documents committed, {len(new)} built"
    moved = [(o.split(), n.split()) for o, n in zip(old, new) if o != n]
    assert not moved, (
        f"{len(moved)} of {len(old)} documents moved; {_summary(moved)}; first: "
        + "; ".join(f"{' '.join(o[:3])} exit {o[3]} -> {n[3]}" for o, n in moved[:10]))
