"""The README's ```python blocks, run as doctests."""

import doctest
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_as_doctests():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL))
    assert blocks, "README.md has no ```python block"
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    report = []
    for block in blocks:
        line = text.count("\n", 0, block.start(1))    # 0-based line of the block's first line
        test = parser.get_doctest(block[1], {}, "README.md", str(README), line)
        runner.run(test, out=report.append)
    assert runner.tries > 0
    assert runner.failures == 0, "".join(report)
