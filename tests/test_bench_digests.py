"""Every output of the benchmark's seed-1 documents is the committed one.

``bench_digests.py`` writes the digests; this test recomputes them.  On a
mismatch it names the first documents that moved, with their old and new
exit codes, so a change that moves output on purpose can say which moved.
"""

from bench_digests import DIGESTS, digest_lines


def test_bench_outputs_match_the_committed_digests():
    old = DIGESTS.read_text(encoding="utf-8").splitlines()
    new = digest_lines()
    assert len(new) == len(old), f"{len(old)} documents committed, {len(new)} built"
    moved = [(o.split(), n.split()) for o, n in zip(old, new) if o != n]
    assert not moved, f"{len(moved)} of {len(old)} documents moved; first: " + "; ".join(
        f"{' '.join(o[:3])} exit {o[3]} -> {n[3]}" for o, n in moved[:10])
