"""The README's Python API section runs as printed and names exactly ``bvhodge.__all__``,
and its example output is what the CLI prints.

So the public surface and the report can change only together with their
documentation.
"""

import contextlib
import io
import re
from pathlib import Path

import bvhodge
from bvhodge import cli

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


def test_readme_example_output_is_the_cli_output():
    block = re.search(r"\nExample output:\n\n```\n(.*?)```\n",
                      README.read_text(encoding="utf-8"), re.S).group(1)
    rendered, code = cli.run_text(cli.load_fixture_text("order4_first_type"))
    assert code == cli.EXIT_OK
    assert block == rendered
