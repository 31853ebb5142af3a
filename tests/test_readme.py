"""The Python examples in README.md run as written."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def run_block(source: str) -> str:
    """What one code block prints, run in a fresh namespace."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    return output.getvalue()


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    run_block(source)


def test_library_example_prints_the_winner():
    # also fails when the example's code block is gone
    (example,) = [source for source in BLOCKS if "decide(" in source]
    assert run_block(example) == "b\n"
