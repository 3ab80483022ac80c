"""The README's library example runs against the current API."""

import re
import shlex
from pathlib import Path

import pytest

from statemetric import cli, manifest
from statemetric.models import OscillatorModelSpec, SpinModelSpec, oscillator_model, spin_model

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


def cli_lines() -> list:
    """Each ``statemetric ...`` command of the README's CLI block as argv,
    with ``\\`` continuations joined and ``#`` comments dropped."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    match = re.search(r"```sh\n(.*?)```", section, re.S)
    assert match, "no sh block under 'CLI'"
    lines = [shlex.split(line, comments=True)
             for line in match.group(1).replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in lines if argv and argv[0] == "statemetric"]


@pytest.mark.parametrize("argv", cli_lines(), ids=" ".join)
def test_cli_block_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spin.json").write_text(manifest.emit(spin_model(SpinModelSpec(s=1, m=0))),
                                        encoding="utf-8")
    (tmp_path / "osc.json").write_text(manifest.emit(oscillator_model(OscillatorModelSpec())),
                                       encoding="utf-8")
    assert cli.main(argv) == 0, capsys.readouterr().err
