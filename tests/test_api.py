"""The README's Python API section runs as printed and names exactly ``bvhodge.__all__``.

So the public surface can grow only together with its documentation.
"""

import contextlib
import io
import re
from pathlib import Path

import bvhodge

README = Path(__file__).resolve().parent.parent / "README.md"


def api_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Python API\n")
    return text[start:text.index("\n## ", start + 1)]


def test_readme_api_snippet_runs():
    snippet = re.search(r"```python\n(.*?)```", api_section(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    lines = out.getvalue().splitlines()
    assert lines[-1] == "51 9 84 True"
    assert ["1", "9", "9", "1"] in [line.split() for line in lines[:-1]]


def test_all_is_exactly_the_documented_names():
    names_list = re.search(r"\n(\* .*?)\n\n", api_section(), re.S).group(1)
    documented = sorted(set(re.findall(r"`([A-Za-z_]\w*)`", names_list)))
    assert sorted(bvhodge.__all__) == documented
    assert all(hasattr(bvhodge, name) for name in documented)
