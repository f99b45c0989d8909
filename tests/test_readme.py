"""The README's Python examples, run as doctests."""

import doctest
import re
from pathlib import Path

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
