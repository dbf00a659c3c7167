"""The README's Python examples run as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

with open(README, encoding="utf-8") as handle:
    BLOCKS = re.findall(r"^```python\n(.*?)^```$", handle.read(),
                        re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs_in_a_fresh_namespace(block):
    exec(compile(block, README, "exec"), {"__name__": "readme"})
