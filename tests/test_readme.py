"""README's library example runs as written against the current API, and its
command-line synopsis lists exactly the flags the parser accepts."""

import argparse
import re
from pathlib import Path

from mvsde.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["curve"] is not None
    assert namespace["t"] == 10.0 and namespace["ens"].step_index == 1000
    assert capsys.readouterr().out.strip()


def test_command_line_synopsis_lists_exactly_the_parser_flags():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```\n(.*?)```", text, re.S).group(1)
    synopsis = {}
    for entry in re.split(r"\n(?=mvsde )", block.strip()):
        for name in entry.split()[1].split("|"):
            synopsis[name] = set(re.findall(r"--[a-z-]+", entry))
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: {s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, sub in commands.choices.items()
    }
    assert synopsis == accepted
