"""README's library example runs as written against the current API, its
command-line synopsis lists exactly the flags the parser accepts, and the
config grammars in README and the config module list exactly the keys and
scheme names their tables accept."""

import argparse
import re
from pathlib import Path

from mvsde import config
from mvsde.cli import build_parser
from mvsde.taming import SCHEMES

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


def test_config_grammar_lists_exactly_the_key_table():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"### Config grammar\n.*?```\n(.*?)```", text, re.S).group(1)
    listed, section = set(), None
    for line in block.splitlines():
        header = re.match(r"\[(\w+)\]", line)
        section = header.group(1) if header else section
        listed |= {(section, key.lower()) for key in re.findall(r"(\w+) =", line)}
    assert listed == set(config._KEYS)


def test_config_docstring_lists_exactly_the_scheme_table():
    names = re.search(r"\((identity \|.*?)\)\n", config.__doc__).group(1)
    listed = dict(re.fullmatch(r"(\w+)(?:\((\w+)\))?", name).groups() for name in names.split(" | "))
    # a parameter is written in the config iff it has a default
    table = {name: param if default is not None else None for name, (_, param, default) in SCHEMES.items()}
    assert listed == {**table, "ssm": None}
