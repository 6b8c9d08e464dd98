"""README's library example runs as written against the current API, its
command-line synopsis lists exactly the flags the parser accepts, the
config grammars in README and the config module list exactly the keys and
scheme names their tables accept, README lists the keys each study reads,
and its output names are the files the studies write."""

import argparse
import re
from pathlib import Path

from mvsde import config, experiments
from mvsde.cli import build_parser, main
from mvsde.config import ExperimentConfig
from mvsde.errors import ConfigError
from mvsde.taming import SCHEMES
from mvsde.verify import SampleSpec

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


# a value for every [grid] and [experiment] field but T and seed
_SET = dict(
    h_values=[0.25], h_ref=2.0**-6, h_list=[0.25], N=8, record_times=[0.5], repetitions=2,
    orders=[3], moment_ceiling=10.0, trace_particles=[0], trace_stride=2, n_list=[4],
    proxy_n=8, reference_scheme="ssm", reference_h=0.125,
)
_STUDY_RUNS = {
    "converge": (experiments.run_convergence, dict(h_ref=2.0**-6, h_list=[0.25])),
    "density": (experiments.run_density, dict(h_values=[0.25])),
    "paths": (experiments.run_paths, dict(h_values=[0.25])),
    "moments": (experiments.run_moments, dict(h_values=[0.25])),
    "nscaling": (experiments.run_nscaling, dict(h_values=[0.25], n_list=[4], proxy_n=8)),
}


def test_study_key_lists_are_the_keys_each_study_reads(monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config grammar", 1)[1].split("### Outputs", 1)[0]
    listed = {study: set(re.findall(r"`(\w+)`", keys))
              for study, keys in re.findall(r"^\* `(\w+)`: (.*)$", section, re.M)}
    key_of = {name: key for (section, key), (name, _) in config._KEYS.items()
              if section in ("grid", "experiment") and key not in ("t", "seed")}
    assert set(key_of) == set(_SET)
    assert listed == {study: {key_of[name] for name in reads} for study, reads in config.STUDY_KEYS.items()}
    assert set(_STUDY_RUNS) == set(listed)

    class Started(Exception):
        pass

    def started(*args, **kwargs):
        raise Started

    # each study runs with any one key it reads set, and rejects every other key
    monkeypatch.setattr(experiments.brownian, "generate", started)
    for study, (run, base) in _STUDY_RUNS.items():
        for name, key in key_of.items():
            try:
                run(ExperimentConfig(model_name="doublewell", **{**base, name: _SET[name]}))
            except ConfigError as err:
                unread = f"does not read '{key}'" in str(err)
            except Started:
                unread = False
            assert unread == (name not in config.STUDY_KEYS[study]), (study, key)


# the five studies and check, each on a tiny config written as csv and svg
_TINY = """
[model]
name = doublewell
[schemes]
schemes = me
[grid]
T = 0.5
{grid}
[experiment]
seed = 3
{experiment}
[output]
formats = csv, svg
"""
_TINY_STUDIES = {
    "converge": ("h_ref = 2^-6\nh_list = 2^-2, 2^-3, 2^-4", "n = 8"),
    "density": ("h = 2^-3, 2^-4", "n = 8\nreference_scheme = ssm\nreference_h = 2^-5"),
    "paths": ("h = 2^-3, 2^-4", "n = 8"),
    "moments": ("h = 2^-3", "n = 8"),
    "nscaling": ("h = 2^-3", "n_list = 4, 8\nproxy_n = 16\nrepetitions = 2"),
}


def test_outputs_section_names_exactly_the_written_files(tmp_path, capsys, monkeypatch):
    fast = SampleSpec(h_exponents=(1, 5, 10, 20), n_magnitudes=7)
    monkeypatch.setattr("mvsde.verify.SampleSpec", lambda: fast)
    written = set()
    for command, (grid, experiment) in _TINY_STUDIES.items():
        path = tmp_path / f"{command}.ini"
        path.write_text(_TINY.format(grid=grid, experiment=experiment))
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out-dir", str(out)]) == 0
        written |= {p.name for p in out.iterdir()}
    assert main(["check", "--out-dir", str(tmp_path / "check")]) == 0
    written |= {p.name for p in (tmp_path / "check").iterdir()}

    text = README.read_text(encoding="utf-8")
    section = text.split("### Outputs", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`([\w<>*.]+\.(?:csv|svg))`", section)
    patterns = {
        name: re.compile(re.sub(r"<\w+>", ".+", re.escape(name).replace(r"\*", ".*")))
        for name in names
    }
    assert {".csv", ".svg"} == {Path(f).suffix for f in written}
    for f in sorted(written):
        assert any(p.fullmatch(f) for p in patterns.values()), f
    for name, pattern in patterns.items():
        assert any(pattern.fullmatch(f) for f in written), name
