"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first python block under the README's "Library quick start"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(quick_start(), str(README), "exec"), {})
    assert capsys.readouterr().out == "sphere(R=1)\n"
