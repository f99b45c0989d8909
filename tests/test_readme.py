"""The README's examples: its Python sessions as doctests, its command lines through the CLI."""

import doctest
import re
import shlex
from pathlib import Path

from levicycles import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_pycon_blocks_pass_as_doctests():
    # Each ```pycon block without its closing fence, which doctest would
    # otherwise read as expected output; the blocks share one namespace,
    # in order, as a reader typing them into one session would.
    blocks = re.findall(r"^```pycon\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert len(blocks) >= 2
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README.md", str(README), 0)
    report: list[str] = []
    runner = doctest.DocTestRunner()
    result = runner.run(test, out=report.append)
    assert result.attempted >= 10
    assert result.failed == 0, "".join(report)


def test_readme_command_lines_print_what_they_show(tmp_path, monkeypatch, capsys):
    # Each "$ levicycles ..." line of the console blocks, run in order in one
    # directory, prints the lines after it up to the next blank line.
    blocks = re.findall(r"^```console\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    sessions = re.findall(r"^\$ levicycles (.*)\n((?:.+\n)*)", "\n".join(blocks), flags=re.M)
    assert len(sessions) == 5
    monkeypatch.chdir(tmp_path)
    for command, shown in sessions:
        assert cli.run(shlex.split(command)) == cli.EXIT_OK, command
        assert capsys.readouterr().out == shown, command
