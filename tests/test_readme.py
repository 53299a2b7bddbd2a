"""The README's Python examples, run through doctest."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
# a block's text stops before its closing fence, which ends the last
# example's expected output
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def _blocks():
    """(line number of the block's first line, counted from 0; its text)"""
    text = README.read_text()
    return [(text.count("\n", 0, m.start(1)), m.group(1))
            for m in BLOCK.finditer(text)]


def test_every_readme_example_is_in_a_python_block():
    parser = doctest.DocTestParser()
    found = sum(len(parser.get_examples(block)) for _, block in _blocks())
    assert found == len(parser.get_examples(README.read_text())) >= 16


@pytest.mark.parametrize("lineno, block", [
    pytest.param(lineno, block, id=f"line{lineno + 1}")
    for lineno, block in _blocks()])
def test_readme_block(lineno, block):
    # each block runs on its own, with fresh globals
    test = doctest.DocTestParser().get_doctest(
        block, {}, f"README.md:{lineno + 1}", str(README), lineno)
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted and not result.failed
