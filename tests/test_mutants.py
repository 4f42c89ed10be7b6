"""The mutants of ``tests/mutants.py`` still apply to the source they break."""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({name for name, *_ in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("name, path, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_each_mutant_old_text_occurs_exactly_once(name, path, old, new):
    assert new != old
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
