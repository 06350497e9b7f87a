"""The README's library example runs against the package as it is."""

import os
import re

import goodint

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_quick_start_runs():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under Library quick start"
    exec(compile(block.group(1), README, "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in goodint.__all__ if not hasattr(goodint, name)]
    assert missing == []
