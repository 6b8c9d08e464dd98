import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mvsde import config, experiments
from mvsde.cli import _STUDIES, _check_battery, main
from mvsde.config import (
    ExperimentConfig,
    build_scheme,
    exact_divide,
    load_config,
    paper_scale,
    parse_int,
    parse_number,
)
from mvsde.errors import ConfigError
from mvsde.models import cubic_interaction_model
from mvsde.output import format_value, render_csv
from mvsde.stepper import scheme_label
from mvsde.svgplot import series_svg
from mvsde.verify import SampleSpec, check_taming


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))
assert SHIPPED_CONFIGS, "no shipped configs found"


CONV_TEMPLATE = """
[model]
name = cubic

[schemes]
schemes = me, se(1)

[grid]
T = 1
h_ref = 2^-8
h_list = 2^-4, 2^-5, 2^-6

[experiment]
n = 16
seed = 5

[output]
out_dir = {out}
formats = {formats}
"""


class TestParsing:
    def test_numbers(self):
        assert parse_number("2^-14") == 2.0**-14
        assert parse_number("2^3") == 8.0
        assert parse_number("1e-4") == 1e-4
        assert parse_number("0.25") == 0.25
        with pytest.raises(ConfigError):
            parse_number("two")

    def test_integer_keys(self, tmp_path):
        assert parse_int(" 7 ") == 7 and parse_int("1e3") == 1000 and parse_int("2^4") == 16
        for text in ("2.5", "x", "2^-1", "inf", "nan"):
            with pytest.raises(ConfigError):
                parse_int(text)
        path = tmp_path / "c.ini"
        path.write_text(
            "[experiment]\nn = 1e3\nseed = 18446744073709551615\norders = 2^1, 4\n"
            "n_list = 50, 1e2\n"
        )
        cfg = load_config(str(path))
        assert cfg.N == 1000 and isinstance(cfg.N, int)
        assert cfg.seed == 2**64 - 1
        assert cfg.orders == [2, 4] and cfg.n_list == [50, 100]

    def test_exact_divide(self):
        assert exact_divide(1.0, 2.0**-14, "x") == 2**14
        assert exact_divide(10.0, 0.01, "x") == 1000
        with pytest.raises(ConfigError):
            exact_divide(1.0, 0.3, "x")
        for divisor in (0.0, -0.5):
            with pytest.raises(ConfigError, match="not positive"):
                exact_divide(1.0, divisor, "x")
        # non-finite ratios from library-built configs: no round() traceback
        for a, b in ((math.nan, 0.25), (math.inf, 0.25), (1e300, 1e-300), (1.0, math.nan)):
            with pytest.raises(ConfigError, match="not a positive integer"):
                exact_divide(a, b, "x")
        with pytest.raises(ConfigError):
            ExperimentConfig(T=math.nan, h_values=[0.25])

    def test_scheme_labels(self):
        # file names and check_report.csv subjects are part of the output bytes
        model = cubic_interaction_model()  # rho = 1
        spec = SampleSpec(h_exponents=(1,))
        for text, label, subject in (
            ("identity", "identity", "identity"),
            ("me", "me", "modified"),
            ("te", "te_a1", "tanh(alpha=1)"),
            ("te(1)", "te_a1", "tanh(alpha=1)"),
            ("se", "se_a1", "sin(alpha=1)"),
            ("se(0.5)", "se_a0.5", "sin(alpha=0.5)"),
            ("dte(0.5)", "dte_l0.5", "drift_tamed(lambda=0.5)"),
            ("dte", "dte_l0.5", "drift_tamed(lambda=0.5)"),
            ("dte(0.25)", "dte_l0.25", "drift_tamed(lambda=0.25)"),
            ("ssm", "ssm", None),
            ("fte", "fte", "fully_tamed(rho=1)"),
        ):
            op = build_scheme(text, model)
            assert scheme_label(op) == label
            if subject is not None:
                assert check_taming(op, "H1", {"L": 1.0}, spec).subject == subject
        for text in ("xx", "te(abc)"):
            with pytest.raises(ConfigError):
                build_scheme(text, model)

    def test_build_scheme_ssm_and_fte(self):
        model = cubic_interaction_model()
        assert build_scheme("ssm", model) is None
        fte = build_scheme("fte", model)
        assert fte.param == model.rho

    def test_load_config_full(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(CONV_TEMPLATE.format(out=tmp_path / "o", formats="csv, svg"))
        cfg = load_config(str(path))
        assert cfg.model_name == "cubic"
        assert cfg.schemes == ["me", "se(1)"]
        assert cfg.h_ref == 2.0**-8
        assert cfg.h_list == [2.0**-4, 2.0**-5, 2.0**-6]
        assert cfg.N == 16 and cfg.seed == 5
        assert cfg.formats == ["csv", "svg"]
        assert cfg.for_study("converge") == cfg  # every key converge reads is set

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/definitely/not/here.ini")

    def test_load_config_bad_format(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[output]\nformats = pdf\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_load_config_rejects_orders_below_one(self, tmp_path):
        path = tmp_path / "c.ini"
        for orders in ("0, 2", ""):
            path.write_text(f"[experiment]\norders = {orders}\n")
            with pytest.raises(ConfigError):
                load_config(str(path))

    def test_library_config_checked_when_constructed(self):
        for bad in (
            dict(N=0), dict(repetitions=0), dict(orders=[0]), dict(h_values=[0.3]),
            dict(record_times=[]), dict(reference_h=1.0), dict(n_list=[8, 8, 8]),
            dict(trace_particles=[]), dict(trace_particles=[1, 1, 0]),
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig(**bad)
        cfg = ExperimentConfig()
        with pytest.raises(ConfigError, match="outside"):
            replace(cfg, seed=2**64)
        with pytest.raises(ConfigError, match="T / h_ref"):
            paper_scale(replace(cfg, T=0.3))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(T=math.nan),
            dict(T=math.inf),
            dict(record_times=[math.nan]),
            dict(moment_ceiling=math.nan),
            dict(moment_ceiling=math.inf),
            dict(model_params={"mu0": math.nan}),
            dict(model_params={"sigma0sq": math.inf}),
        ],
        ids=["T-nan", "T-inf", "record_times-nan", "moment_ceiling-nan", "moment_ceiling-inf", "mu0-nan", "sigma0sq-inf"],
    )
    def test_library_config_rejects_non_finite_numbers(self, bad):
        # a file's numbers are checked as they are parsed; library code's
        # when the config is constructed
        with pytest.raises(ConfigError, match="is not finite"):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(N=2.5),
            dict(N=100.0),
            dict(seed=math.nan),
            dict(repetitions=math.nan),
            dict(repetitions=math.inf),
            dict(proxy_n=math.inf),
            dict(proxy_n=8.5),
            dict(n_list=[math.nan]),
            dict(n_list=[4, 2.5]),
            dict(trace_stride=math.nan),
            dict(orders=[math.nan]),
            dict(orders=[2, 1.5]),
            dict(trace_particles=[0, math.inf]),
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_library_config_rejects_non_integer_counts(self, bad):
        # a file's integer keys are parsed as integers; library code's are
        # checked when the config is constructed, not met as a TypeError in
        # a run
        with pytest.raises(ConfigError, match="must be an integer"):
            ExperimentConfig(**bad)

    def test_library_config_takes_numpy_integers(self):
        cfg = ExperimentConfig(N=np.int64(8), seed=np.uint64(2**63), n_list=[np.int32(4)], proxy_n=8)
        assert (cfg.N, cfg.seed) == (8, 2**63)

    def test_study_fills_defaults_and_needs_its_required_keys(self):
        cfg = ExperimentConfig(h_values=[0.25]).for_study("moments")
        assert (cfg.N, tuple(cfg.orders), cfg.moment_ceiling, cfg.record_times) == (100, (2, 4), 1e4, None)
        for run, keys, missing in (
            (experiments.run_convergence, dict(h_ref=2.0**-6), r"'h_list' in \[grid\]"),
            (experiments.run_convergence, dict(h_ref=2.0**-6, h_list=[]), r"'h_list' in \[grid\]"),
            (experiments.run_nscaling, dict(h_values=[0.25], n_list=[4]), r"'proxy_n' in \[experiment\]"),
            (experiments.run_paths, dict(), r"'h' in \[grid\]"),
        ):
            with pytest.raises(ConfigError, match="this study needs " + missing):
                run(ExperimentConfig(**keys))

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads_and_validates(self, path, monkeypatch):
        # the study passes every check, the read-keys check included, and
        # stops at its first grid draw: no simulation
        class FirstDraw(Exception):
            pass

        def first_draw(*args, **kwargs):
            raise FirstDraw

        monkeypatch.setattr("mvsde.experiments.brownian.generate", first_draw)
        with pytest.raises(FirstDraw):
            _STUDIES[path.name.split("_")[0]].run(load_config(str(path)))

    def test_model_params_forwarded(self, tmp_path):
        path = tmp_path / "c.ini"
        for mu0, expected in (("3", 3.0), ("2^-1", 0.5)):
            path.write_text(f"[model]\nname = doublewell\nmu0 = {mu0}\nsigma0sq = 9\n")
            cfg = load_config(str(path))
            model = cfg.build_model()
            assert model.params == {"mu0": expected, "sigma0sq": 9.0}

    def test_paper_scale(self):
        cfg = ExperimentConfig(h_ref=2.0**-14, h_list=[2.0**-7], N=32)
        scaled = paper_scale(cfg)
        assert scaled.h_ref == 2.0**-17
        assert scaled.h_list == [2.0**-13, 2.0**-14, 2.0**-15, 2.0**-16]
        assert scaled.N == 100
        assert scaled.for_study("converge") == scaled


class TestCsv:
    def test_float_seventeen_digits_round_trip(self):
        vals = [0.1, 1 / 3, 2.0**-14, math.pi, 1e-300]
        for v in vals:
            assert float(format_value(v)) == v

    def test_special_values(self):
        assert format_value(float("nan")) == "nan"
        assert format_value(float("inf")) == "inf"
        assert format_value(True) == "true"
        assert format_value(None) == ""
        assert format_value(7) == "7"

    def test_rfc4180_quoting_and_lf(self):
        data = render_csv(("a", "b"), [("x,y", 'he said "hi"')])
        assert data == b'a,b\n"x,y","he said ""hi"""\n'
        assert b"\r" not in data


class TestSvg:
    def test_two_point_series_single_polyline(self):
        doc = series_svg([("s", [0.0, 1.0], [0.0, 1.0])])
        assert doc.count("<polyline") == 1
        start = doc.index('<polyline points="') + len('<polyline points="')
        pts = doc[start : doc.index('"', start)]
        assert len(pts.split()) == 2

    def test_byte_identical_rerun(self):
        series = [("a", [0, 1, 2], [3.0, 1.0, 2.0]), ("b", [0, 1, 2], [1.0, 2.0, 0.5])]
        assert series_svg(series) == series_svg(series)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            series_svg([])

    def test_nscaling_plots_its_usable_rows(self):
        from mvsde.experiments import NScalingReport, NScalingRow, fit_loglog
        from mvsde.svgplot import nscaling_svg

        rows = [NScalingRow(n, w2, 0.0, 4) for n, w2 in ((50, 0.1), (100, 0.07), (200, math.nan), (400, 0.035))]
        fit = fit_loglog([50, 100, 400], [0.1, 0.07, 0.035])  # the slope the summary reports
        doc = nscaling_svg(NScalingReport("cubic", "me", 0.1, 800, rows, False, *fit))
        assert doc.count("<circle") == 3 and f"slope {fit[0]:.3f}" in doc
        with pytest.raises(ValueError):
            nscaling_svg(NScalingReport("cubic", "me", 0.1, 800, rows[2:3]))

    def test_slope_label_three_decimals(self, tmp_path):
        from mvsde.experiments import run_convergence
        from mvsde.svgplot import convergence_svg

        cfg = ExperimentConfig(
            model_name="cubic", schemes=["me"], T=1.0, N=8, seed=5,
            h_ref=2.0**-8, h_list=[2.0**-4, 2.0**-5, 2.0**-6],
        )
        rep = run_convergence(cfg)[0]
        doc = convergence_svg(rep)
        assert f"slope {rep.slope:.3f}" in doc


# small multi-cell configs of the h = ... studies, each written as csv and svg
_RUN_STUDY_BASE = """
[model]
name = doublewell
mu0 = 0
sigma0sq = 1
[schemes]
schemes = me, te(1)
[grid]
T = 0.5
h = 2^-3, 2^-4
[experiment]
n = 40
seed = 11
{experiment}
[output]
formats = csv, svg
"""
RUN_STUDY_CONFIGS = {
    "density": _RUN_STUDY_BASE.format(
        experiment="record_times = 0.25, 0.5\nreference_scheme = ssm\nreference_h = 2^-6"
    ),
    "paths": _RUN_STUDY_BASE.format(experiment="trace_particles = 0, 3, 5"),
    "moments": _RUN_STUDY_BASE.format(experiment="orders = 1, 2, 4"),
}


def write_conv_config(tmp_path, formats="csv"):
    path = tmp_path / "conv.ini"
    path.write_text(CONV_TEMPLATE.format(out=tmp_path / "out", formats=formats))
    return path


def read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestCli:
    def test_converge_writes_expected_files(self, tmp_path, capsys):
        path = write_conv_config(tmp_path, formats="csv, svg")
        assert main(["converge", "--config", str(path)]) == 0
        names = set(read_all(tmp_path / "out"))
        assert names == {
            "converge_cubic_me.csv",
            "converge_cubic_me.svg",
            "converge_cubic_se_a1.csv",
            "converge_cubic_se_a1.svg",
            "converge_summary.csv",
        }

    def test_byte_identical_across_runs(self, tmp_path):
        runs = [("converge", write_conv_config(tmp_path, formats="csv, svg"))]
        for command, text in RUN_STUDY_CONFIGS.items():
            path = tmp_path / f"{command}.ini"
            path.write_text(text)
            runs.append((command, path))
        for command, path in runs:
            outputs = []
            for rerun in range(3):
                out = tmp_path / f"{command}_{rerun}"
                assert main([command, "--config", str(path), "--out-dir", str(out)]) == 0
                outputs.append(read_all(out))
            assert outputs[0], command
            assert outputs[0] == outputs[1] == outputs[2], command

    def test_outputs_independent_of_band_count(self, tmp_path, monkeypatch):
        # a 16-value minimum band: the grid and kde calls of these small
        # studies split into `cores` bands
        monkeypatch.setattr("mvsde.bands.MIN_WORK", 16)
        for command in ("paths", "density"):
            path = tmp_path / f"{command}.ini"
            path.write_text(RUN_STUDY_CONFIGS[command])
            outputs = []
            for cores in (1, 2, 3):
                monkeypatch.setattr("mvsde.bands.CORES", cores)
                out = tmp_path / f"{command}_{cores}"
                assert main([command, "--config", str(path), "--out-dir", str(out)]) == 0
                outputs.append(read_all(out))
            assert any(name.endswith(".svg") for name in outputs[0]), command
            assert outputs[0] == outputs[1] == outputs[2], command

    def test_seed_override_changes_bytes(self, tmp_path):
        path = write_conv_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["converge", "--config", str(path), "--out-dir", str(a)])
        main(["converge", "--config", str(path), "--out-dir", str(b), "--seed", "99"])
        assert read_all(a)["converge_cubic_me.csv"] != read_all(b)["converge_cubic_me.csv"]

    def test_config_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a run started despite a config error")

        monkeypatch.setattr("mvsde.experiments.brownian.generate", no_simulation)
        assert main(["converge", "--config", str(tmp_path / "none.ini")]) == 2
        bad = tmp_path / "bad.ini"
        bad.write_text("[grid]\nT = 1\nh_ref = 0.3\nh_list = 0.3\n")
        assert main(["converge", "--config", str(bad)]) == 2
        # a zero step is a config error, not a ZeroDivisionError traceback
        conv = CONV_TEMPLATE.format(out=tmp_path / "o", formats="csv")
        for command, text in (
            ("converge", conv.replace("h_ref = 2^-8", "h_ref = 0")),
            ("density", RUN_STUDY_CONFIGS["density"].replace("reference_h = 2^-6", "reference_h = 0")),
        ):
            capsys.readouterr()
            bad.write_text(text)
            assert main([command, "--config", str(bad)]) == 2, command
            assert "is not positive" in capsys.readouterr().err, command
        # malformed scheme parameters are config errors, not tracebacks
        for scheme in ("te(abc)", "dte(x)"):
            capsys.readouterr()
            text = CONV_TEMPLATE.replace("me, se(1)", scheme)
            bad.write_text(text.format(out=tmp_path / "o", formats="csv"))
            assert main(["converge", "--config", str(bad)]) == 2
            assert "config error:" in capsys.readouterr().err
        # malformed numbers, unknown scheme parameters and out-of-range keys
        # (n = 40, T = 0.5) are config errors raised before any run
        orders = "orders = 1, 2, 4"
        for command, *edits in (
            ("moments", orders, "orders = 2.5"),
            ("moments", orders, "repetitions = x"),
            ("moments", "mu0 = 0", "mu0 = abc"),
            ("moments", "me, te(1)", "identity(5)"),
            ("moments", orders, "record_times = 0.25, 0.75"),
            ("moments", orders, "record_times = -0.25"),
            ("moments", orders, "record_times ="),  # an empty list records nothing
            ("density", "T = 0.5", "T = 1", "reference_h = 2^-6", "reference_h = 1"),  # one step
            ("paths", orders, "trace_stride = 0"),
            ("paths", orders, "trace_particles = 0, 40"),
            ("paths", orders, "trace_particles = -1"),
            ("paths", orders, "trace_particles ="),  # a CSV of `t` alone, no SVG
            ("paths", orders, "trace_particles = 1, 1, 0"),  # a header t,p1,p1,p0
            ("density", orders, "reference_h = 2^-6"),  # no reference_scheme
            ("nscaling", "me, te(1)", "me", "2^-3, 2^-4", "2^-3",
             orders, "n_list = 0, 10\nproxy_n = 20"),
            # a repeated N would leave the slope fit nothing to divide by
            ("nscaling", "me, te(1)", "me", "2^-3, 2^-4", "2^-3", "n = 40\n", "",
             orders, "n_list = 8, 8, 8\nproxy_n = 16\nrepetitions = 2"),
            # configparser's own errors: a duplicate key, text before a section
            ("moments", "name = doublewell", "name = doublewell\nname = cubic"),
            ("moments", "[model]", "n = 40\n[model]"),
        ):
            text = RUN_STUDY_CONFIGS["moments"]
            for old, new in zip(edits[::2], edits[1::2]):
                text = text.replace(old, new)
            capsys.readouterr()
            bad.write_text(text)
            assert main([command, "--config", str(bad)]) == 2, edits
            assert "config error:" in capsys.readouterr().err, edits

    @pytest.mark.parametrize(
        "old, new",
        [
            ("T = 0.5", "T = nan"),
            ("h = 2^-3, 2^-4", "h = nan"),
            ("orders = 1, 2, 4", "orders = 1, 2, 4\nrecord_times = nan"),
            ("T = 0.5", "T = inf"),
            ("T = 0.5", "T = 2^99999"),
            ("mu0 = 0", "mu0 = nan"),
            ("orders = 1, 2, 4", "orders = 1, 2, 4\nmoment_ceiling = nan"),
        ],
        ids=["T-nan", "h-nan", "record_times-nan", "T-inf", "T-overflow", "mu0-nan", "moment_ceiling-nan"],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, monkeypatch, old, new):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a run started despite a config error")

        monkeypatch.setattr("mvsde.experiments.brownian.generate", no_simulation)
        text = RUN_STUDY_CONFIGS["moments"]
        assert old in text
        path = tmp_path / "nonfinite.ini"
        path.write_text(text.replace(old, new) + f"out_dir = {tmp_path / 'out'}\n")
        assert main(["moments", "--config", str(path)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("[output]", "[outptu]"),
            ("[experiment]", "[experment]"),
            ("trace_particles = 0, 3, 5", "trace_particles = 0, 3, 5\nrepetition = 16"),
            ("trace_particles = 0, 3, 5", "trace_particles = 0, 3, 5\ntrace_strid = 4"),
            ("formats = csv, svg", "format = csv, svg"),
            ("schemes = me, te(1)", "scheme = me, te(1)"),
            ("h = 2^-3, 2^-4", "h = 2^-3, 2^-4\nh_lst = 2^-3"),
        ],
    )
    def test_unknown_section_or_key_is_config_error(self, tmp_path, capsys, monkeypatch, old, new):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a run started despite a config error")

        monkeypatch.setattr("mvsde.experiments.brownian.generate", no_simulation)
        text = RUN_STUDY_CONFIGS["paths"]
        assert old in text
        path = tmp_path / "typo.ini"
        path.write_text(text.replace(old, new) + f"out_dir = {tmp_path / 'out'}\n")
        with pytest.raises(ConfigError):
            load_config(str(path))
        assert main(["paths", "--config", str(path)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, old, new, key",
        [
            ("converge", "seed = 5", "seed = 5\nrecord_times = 0.5", "record_times"),
            ("density", "seed = 11", "seed = 11\ntrace_stride = 2", "trace_stride"),
            ("paths", "h = 2^-3, 2^-4", "h = 2^-3, 2^-4\nh_ref = 2^-9", "h_ref"),
            ("moments", "seed = 11", "seed = 11\nrepetitions = 4", "repetitions"),
            # the base config's n = 40: nscaling reads n_list and proxy_n instead
            ("nscaling", "trace_particles = 0, 3, 5", "n_list = 10, 20\nproxy_n = 20", "n"),
            # a key set to the value another study defaults it to is still set
            ("paths", "trace_particles = 0, 3, 5", "trace_particles = 0, 3, 5\nrepetitions = 1\norders = 2, 4",
             "repetitions"),
        ],
        ids=["converge", "density", "paths", "moments", "nscaling", "paths_at_default"],
    )
    def test_key_the_study_does_not_read_is_config_error(
        self, tmp_path, capsys, monkeypatch, command, old, new, key
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a run started despite a config error")

        monkeypatch.setattr("mvsde.experiments.brownian.generate", no_simulation)
        out = tmp_path / "out"
        if command == "converge":
            text = CONV_TEMPLATE.format(out=out, formats="csv")
        elif command == "nscaling":  # the paths config with one scheme and one h
            text = RUN_STUDY_CONFIGS["paths"].replace("me, te(1)", "me").replace("2^-3, 2^-4", "2^-3")
            text += f"out_dir = {out}\n"
        else:
            text = RUN_STUDY_CONFIGS[command] + f"out_dir = {out}\n"
        assert old in text
        path = tmp_path / "unread.ini"
        path.write_text(text.replace(old, new))
        load_config(str(path))  # a key of the grammar
        assert main([command, "--config", str(path)]) == 2
        assert f"does not read '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_check_accepts_every_study_key(self, tmp_path, capsys, monkeypatch):
        fast = SampleSpec(h_exponents=(1, 5, 10, 20), n_magnitudes=7)
        monkeypatch.setattr("mvsde.verify.SampleSpec", lambda: fast)
        every_key = (
            "h_ref = 2^-6\nh_list = 2^-4\n"
            "[experiment]\nrepetitions = 2\norders = 2\nmoment_ceiling = 10\n"
            "trace_particles = 0\ntrace_stride = 2\nn_list = 10\nproxy_n = 20\n"
        )
        text = RUN_STUDY_CONFIGS["density"].replace("[experiment]\n", every_key)
        path = tmp_path / "all.ini"
        path.write_text(text + f"out_dir = {tmp_path / 'o'}\n")
        cfg = load_config(str(path))
        for (section, _), (name, _) in config._KEYS.items():
            assert section not in ("grid", "experiment") or getattr(cfg, name) is not None
        assert main(["check", "--config", str(path)]) == 0
        assert (tmp_path / "o" / "check_report.csv").exists()

    @pytest.mark.parametrize(
        "command, old, new",
        [
            ("paths", "schemes = me, te(1)", "schemes = me, te(1), te(1.0)"),
            ("paths", "h = 2^-3, 2^-4", "h = 2^-3, 2^-4, 0.125"),
            ("density", "schemes = me, te(1)", "schemes = dte, dte(0.5)"),
            ("converge", "schemes = me, se(1)", "schemes = me, se(1), se"),
            ("converge", "h_list = 2^-4, 2^-5, 2^-6", "h_list = 2^-4, 2^-5, 0.0625"),
        ],
    )
    def test_duplicate_output_label_is_config_error(self, tmp_path, capsys, monkeypatch, command, old, new):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a run started despite a config error")

        monkeypatch.setattr("mvsde.experiments.brownian.generate", no_simulation)
        out = tmp_path / "out"
        if command == "converge":
            text = CONV_TEMPLATE.format(out=out, formats="csv")
        else:
            text = RUN_STUDY_CONFIGS[command] + f"out_dir = {out}\n"
        assert old in text
        path = tmp_path / "dup.ini"
        path.write_text(text.replace(old, new))
        assert main([command, "--config", str(path)]) == 2
        assert "share output label" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_cell_label_distinct_from_its_scheme(self, tmp_path, capsys):
        # the density reference at a run step is a cell of its own, me_ref
        text = RUN_STUDY_CONFIGS["density"].replace("reference_scheme = ssm", "reference_scheme = me")
        path = tmp_path / "ref.ini"
        path.write_text(text.replace("reference_h = 2^-6", "reference_h = 2^-3") + f"out_dir = {tmp_path}\n")
        assert main(["density", "--config", str(path)]) == 0
        assert (tmp_path / "density_me_ref_h0.125_T0.5.csv").exists()
        assert (tmp_path / "density_me_h0.125_T0.5.csv").exists()

    def test_strict_divergence_exit_code(self, tmp_path, capsys):
        # plain Euler-Maruyama on the quintic model overflows by t=1.875
        path = tmp_path / "div.ini"
        path.write_text(
            "[model]\nname = quintic\n"
            "[schemes]\nschemes = identity\n"
            "[grid]\nT = 2\nh = 2^-3\n"
            "[experiment]\nn = 100\nseed = 0\n"
            f"[output]\nout_dir = {tmp_path / 'o'}\n"
        )
        assert main(["paths", "--config", str(path)]) == 0
        assert main(["paths", "--config", str(path), "--strict"]) == 3

    def test_nscaling_strict_reports_divergence(self, tmp_path, capsys):
        # plain Euler-Maruyama on the N(3, 9) double well blows up at h = 0.1,
        # in the proxy and in every repetition
        path = tmp_path / "div.ini"
        path.write_text(
            "[model]\nname = doublewell\nmu0 = 3\nsigma0sq = 9\n"
            "[schemes]\nschemes = identity\n"
            "[grid]\nT = 1\nh = 0.1\n"
            "[experiment]\nn_list = 10, 20\nproxy_n = 40\nrepetitions = 2\nseed = 0\n"
            f"[output]\nout_dir = {tmp_path / 'o'}\n"
        )
        assert main(["nscaling", "--config", str(path)]) == 0
        assert main(["nscaling", "--config", str(path), "--strict"]) == 3

    @pytest.mark.parametrize("command", ["density", "moments", "paths"])
    def test_strict_reports_newton_cut_run(self, tmp_path, capsys, command):
        # from N(30, 900) the split step's Newton solve fails at step 1, which
        # cuts the run before its first record time
        path = tmp_path / "cut.ini"
        path.write_text(
            "[model]\nname = doublewell\nmu0 = 30\nsigma0sq = 900\n"
            "[schemes]\nschemes = ssm\n"
            "[grid]\nT = 1\nh = 0.25\n"
            "[experiment]\nn = 200\nseed = 1\nrecord_times = 0.25, 0.5, 1\n"
            f"[output]\nout_dir = {tmp_path / 'o'}\n"
        )
        assert main([command, "--config", str(path)]) == 0
        assert main([command, "--config", str(path), "--strict"]) == 3
        if command == "density":  # a header-only file for each unreached time
            for t in ("0.25", "0.5", "1"):
                assert (tmp_path / "o" / f"density_ssm_T{t}.csv").read_text() == "x,density\n"

    def test_summaries_name_a_diverged_run(self, tmp_path, capsys):
        # from N(30, 1) the split step's Newton solve fails at step 1, before
        # the density record time t = 1, so no kde runs
        path = tmp_path / "cut.ini"
        path.write_text(
            "[model]\nname = doublewell\nmu0 = 30\n"
            "[schemes]\nschemes = ssm\n"
            "[grid]\nT = 1\nh = 0.25\n"
            "[experiment]\nn = 20\nseed = 0\n"
            f"[output]\nout_dir = {tmp_path / 'o'}\n"
        )
        summaries = {
            "density": "density: 0 curves at times [1.0]",
            "paths": "ssm h=0.25: max|X| over records = 33.09, first non-finite t = None [diverged]"
            " Newton cut at step 1, particle 14, residual 3.45e-12",
            "moments": "ssm h=0.25: 1 rows [ceiling] [diverged]",
        }
        for command, summary in summaries.items():
            capsys.readouterr()
            assert main([command, "--config", str(path)]) == 0
            assert capsys.readouterr().out.splitlines()[0] == summary

    def test_paths_summary_names_the_newton_cut(self, tmp_path, capsys):
        # the config above: the split step's Newton solve fails at step 1
        path = tmp_path / "cut.ini"
        path.write_text(
            "[model]\nname = doublewell\nmu0 = 30\n"
            "[schemes]\nschemes = ssm\n"
            "[grid]\nT = 1\nh = 0.25\n"
            "[experiment]\nn = 20\nseed = 0\n"
            f"[output]\nout_dir = {tmp_path / 'o'}\n"
        )
        (cell,) = experiments.run_paths(load_config(str(path)))
        step, particle, residual = cell.newton_failure
        assert step == 1 and 0 <= particle < 20 and residual > 0
        assert main(["paths", "--config", str(path)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.endswith(f"[diverged] Newton cut at step 1, particle {particle}, residual {residual:.3g}")
        # the cut reaches the printed line only, not the summary CSV
        summary = (tmp_path / "o" / "paths_summary.csv").read_text().splitlines()
        assert summary[0] == "scheme,h,max_abs_recorded,first_nonfinite_time,diverged"
        assert summary[1].startswith("ssm,0.25,") and summary[1].endswith(",,true")

    def test_out_dir_naming_a_file_is_config_error(self, tmp_path, capsys, monkeypatch):
        # checked before any run: exit 2, not a FileExistsError after the study
        def no_run(*args, **kwargs):
            raise AssertionError("a run started despite a config error")

        monkeypatch.setattr("mvsde.experiments.brownian.generate", no_run)
        monkeypatch.setattr("mvsde.cli._check_battery", no_run)
        taken = tmp_path / "taken"
        taken.write_text("")
        conv, nscaling = write_conv_config(tmp_path), SHIPPED_CONFIGS[0].parent / "nscaling_cubic.ini"
        in_config = tmp_path / "in_config.ini"
        in_config.write_text(CONV_TEMPLATE.format(out=taken, formats="csv"))
        for argv in (
            ["nscaling", "--config", str(nscaling), "--out-dir", str(taken)],
            ["converge", "--config", str(conv), "--out-dir", str(taken / "sub")],
            ["converge", "--config", str(in_config)],
            ["check", "--out-dir", str(taken)],
            ["check", "--config", str(in_config)],
        ):
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert "is not a directory" in capsys.readouterr().err, argv
        assert taken.read_text() == ""

    def test_seed_outside_u64_is_config_error(self, tmp_path, capsys):
        path = write_conv_config(tmp_path)
        text = path.read_text()
        for seed in ("-1", "18446744073709551616"):
            path.write_text(text.replace("seed = 5", f"seed = {seed}"))
            with pytest.raises(ConfigError):
                load_config(str(path))
            capsys.readouterr()
            assert main(["converge", "--config", str(path)]) == 2
            assert "config error:" in capsys.readouterr().err
        path.write_text(text)
        for seed in ("-1", "18446744073709551616"):
            capsys.readouterr()
            assert main(["converge", "--config", str(path), f"--seed={seed}"]) == 2
            assert "config error:" in capsys.readouterr().err

    def test_density_and_moments_csv_shapes(self, tmp_path, capsys):
        path = tmp_path / "d.ini"
        path.write_text(
            "[model]\nname = cubic\n"
            "[schemes]\nschemes = me\n"
            "[grid]\nT = 1\nh = 0.125\n"
            "[experiment]\nn = 32\nseed = 4\n"
            f"[output]\nout_dir = {tmp_path / 'o'}\n"
        )
        assert main(["density", "--config", str(path)]) == 0
        assert main(["moments", "--config", str(path)]) == 0
        out = read_all(tmp_path / "o")
        dens = out["density_me_T1.csv"].decode().splitlines()
        assert dens[0] == "x,density"
        assert len(dens) == 513  # header + 512 grid points
        mom = out["moments_me.csv"].decode().splitlines()
        assert mom[0] == "t,m2,m4"
        assert len(mom) == 1 + 9  # header + all nine grid times

    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "cubic" in out and "quintic" in out and "doublewell" in out

    @staticmethod
    def python_m_mvsde(*args):
        """python -m mvsde args, in a fresh interpreter with src on PYTHONPATH."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", "mvsde", *args], env=env, capture_output=True, text=True, timeout=120
        )

    def test_python_m_list_models(self):
        proc = self.python_m_mvsde("list-models")
        assert proc.returncode == 0, proc.stderr
        names = [line.split(":")[0] for line in proc.stdout.splitlines()]
        assert names == ["cubic", "doublewell", "quintic"]

    def test_python_m_study_without_config_exits_2(self):
        proc = self.python_m_mvsde("density")
        assert proc.returncode == 2 and "--config" in proc.stderr

    def test_check_subcommand_writes_report(self, tmp_path, capsys, monkeypatch):
        # narrow the battery to one model via config and a light sample spec
        from mvsde.verify import SampleSpec

        fast = SampleSpec(h_exponents=(1, 5, 10, 20), n_magnitudes=7)
        monkeypatch.setattr("mvsde.verify.SampleSpec", lambda: fast)
        path = tmp_path / "c.ini"
        path.write_text(f"[model]\nname = cubic\n[output]\nout_dir = {tmp_path / 'o'}\n")
        assert main(["check", "--config", str(path)]) == 0
        report = (tmp_path / "o" / "check_report.csv").read_bytes().decode()
        lines = report.splitlines()
        assert lines[0] == "subject,assumption,pass,max_violation,witness"
        assert any(line.startswith("identity,H1,false") for line in lines)
        assert any(line.startswith("modified,H1,true") for line in lines)
        assert any("fully_tamed" in line and ",H1,false" in line for line in lines)
        # each printed line names the L its row tested: H1 at its given 1,
        # A3 the smallest of the sweep that passes on the cubic
        out = capsys.readouterr().out
        assert "[FAIL] identity / H1: L=1 max_violation=" in out
        assert "[pass] cubic / A3: L=2 max_violation=" in out

    def test_check_battery_order(self, monkeypatch):
        # the rows of check_report.csv, in order: H1-H3 per operator, then
        # per built-in model (sorted by name) fte's H1 and EX35_BOUND and A2-A6
        fast = SampleSpec(h_exponents=(1, 5, 10, 20), n_magnitudes=7)
        monkeypatch.setattr("mvsde.verify.SampleSpec", lambda: fast)
        operators = ["identity", "drift_tamed(lambda=0.5)", "modified", "tanh(alpha=1)", "sin(alpha=1)"]
        expected = [(op, a) for op in operators for a in ("H1", "H2", "H3")]
        for model, fte in (("cubic", "fully_tamed(rho=1)"), ("doublewell", "fully_tamed(rho=1)"),
                           ("quintic", "fully_tamed(rho=2)")):
            expected += [(fte, "H1"), (f"{fte}|{model}", "EX35_BOUND")]
            expected += [(model, a) for a in ("A2", "A3", "A5", "A6")]
        assert len(expected) == 33
        assert [(r.subject, r.assumption_id) for r in _check_battery(None)] == expected

    @pytest.mark.parametrize(
        "model", ["name = foo", "name = doublewell\nsigma0sq = -1"], ids=["unknown", "bad_param"]
    )
    def test_check_bad_model_is_config_error(self, tmp_path, capsys, monkeypatch, model):
        def no_check(*args, **kwargs):
            raise AssertionError("a check ran despite a config error")

        monkeypatch.setattr("mvsde.verify.check_taming", no_check)
        path = tmp_path / "c.ini"
        path.write_text(f"[model]\n{model}\n[output]\nout_dir = {tmp_path / 'o'}\n")
        assert main(["check", "--config", str(path)]) == 2
        assert "config error:" in capsys.readouterr().err


class TestSvgDispatch:
    def test_emit_svg_dispatch(self, tmp_path):
        from mvsde.experiments import run_convergence, run_density, run_paths, run_nscaling
        from mvsde.svgplot import convergence_svg, density_svg, nscaling_svg, paths_svg

        cfg = ExperimentConfig(
            model_name="cubic", schemes=["me"], T=1.0, N=8, seed=5,
            h_ref=2.0**-8, h_list=[2.0**-4, 2.0**-5, 2.0**-6],
        )
        conv = run_convergence(cfg)[0]
        doc = convergence_svg(conv, fingerprint="abc123")
        assert doc.startswith("<svg") and "abc123" in doc
        assert doc == convergence_svg(conv, fingerprint="abc123")

        pcfg = ExperimentConfig(
            model_name="cubic", schemes=["me"], T=1.0, N=8, seed=5,
            h_values=[0.25], trace_particles=[0, 1],
        )
        cell = run_paths(pcfg)[0]
        assert "<polyline" in paths_svg(cell)

        dcfg = ExperimentConfig(
            model_name="cubic", schemes=["me", "te(1)"], T=1.0, N=32, seed=5,
            h_values=[0.125], record_times=[1.0],
        )
        ddoc = density_svg(run_density(dcfg), 1.0)
        assert ddoc.count("<polyline") == 2  # one curve per scheme

        ncfg = ExperimentConfig(
            model_name="cubic", schemes=["me"], T=1.0, seed=42,
            h_values=[2.0**-5], n_list=[8, 16, 32], proxy_n=64, repetitions=2,
        )
        nrep = run_nscaling(ncfg)  # a slope needs three usable rows
        assert "slope" in nscaling_svg(nrep)

        assert "<polyline" in series_svg([("s", [0, 1], [0, 1])])


class TestCliFlagWiring:
    def test_format_override_csv_only(self, tmp_path):
        path = write_conv_config(tmp_path, formats="csv, svg")
        out = tmp_path / "csvonly"
        assert main(["converge", "--config", str(path), "--out-dir", str(out),
                     "--format", "csv"]) == 0
        assert all(p.suffix == ".csv" for p in out.iterdir())
        assert main(["converge", "--config", str(path), "--format", "pdf"]) == 2

    def test_format_override_svg_only(self, tmp_path):
        path = tmp_path / "paths.ini"
        path.write_text(RUN_STUDY_CONFIGS["paths"])
        out = tmp_path / "svgonly"
        assert main(["paths", "--config", str(path), "--out-dir", str(out), "--format", "svg"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["paths_me_h0.0625.svg", "paths_me_h0.125.svg",
                         "paths_te_a1_h0.0625.svg", "paths_te_a1_h0.125.svg"]

    def test_empty_format_list_is_config_error(self, tmp_path, capsys):
        path = write_conv_config(tmp_path)
        out = tmp_path / "none"
        assert main(["converge", "--config", str(path), "--out-dir", str(out), "--format", ""]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()
        path.write_text(path.read_text().replace("formats = csv", "formats ="))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_subcommands_reject_flags_they_do_not_read(self, tmp_path):
        conv = str(write_conv_config(tmp_path))
        for argv in (
            ["density", "--config", conv, "--paper-scale"],
            ["check", "--strict"],
            ["check", "--seed", "3"],
            ["converge", "--config", conv, "--threads", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    def test_paper_scale_flag_rewrites_grid(self, tmp_path, monkeypatch):
        import mvsde.cli as cli

        captured = {}

        def fake_run(cfg):
            captured["h_ref"] = cfg.h_ref
            captured["h_list"] = cfg.h_list
            captured["N"] = cfg.N
            return []

        monkeypatch.setattr(cli.experiments, "run_convergence", fake_run)
        path = write_conv_config(tmp_path)
        assert main(["converge", "--config", str(path), "--paper-scale"]) == 0
        assert captured["h_ref"] == 2.0**-17
        assert captured["h_list"] == [2.0**-13, 2.0**-14, 2.0**-15, 2.0**-16]
        assert captured["N"] == 100
