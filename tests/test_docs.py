"""The README's library and CLI examples run, and the API names it gives exist."""

import os
import re
import shlex

import goodint
from conftest import records, run_main

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(PKG_ROOT, "README.md")


def read_readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_library_quick_start_runs():
    section = read_readme().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under Library quick start"
    exec(compile(block.group(1), README, "exec"), {})


def test_cli_examples_run():
    section = read_readme().split("\n## CLI", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    assert block, "no sh block under CLI"
    commands = [shlex.split(line)[1:] for line in block.group(1).splitlines()
                if line.startswith("goodint ")]
    assert len(commands) == 7
    for args in commands:
        code, out, err = run_main(args)
        assert code == 0, (args, err)
        # crossval prints nothing when every decider agrees with brute force
        for rec in records(out):
            assert rec["schema_version"] == 1, args


def test_every_exported_name_resolves():
    missing = [name for name in goodint.__all__ if not hasattr(goodint, name)]
    assert missing == []


def test_module_bullets_name_existing_functions():
    bullets = [part.split("\n\n", 1)[0] for part in read_readme().split("\n- **")
               if part.startswith("`goodint.")]
    assert len(bullets) == 4
    names = {name for text in bullets for name in re.findall(r"`([^`]+)`", text)
             if re.fullmatch(r"[a-z]+(_[a-z0-9]+)+", name)}
    assert "is_good_via_sum_valuation" in names
    assert sorted(name for name in names if not hasattr(goodint, name)) == []
