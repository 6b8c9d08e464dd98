"""Command-line interface.

    mvsde converge --config FILE [--seed U64] [--out-dir DIR]
          [--format csv,svg] [--strict] [--paper-scale]
    mvsde density|paths|moments|nscaling --config FILE [--seed U64]
          [--out-dir DIR] [--format csv,svg] [--strict]
    mvsde check [--config FILE] [--out-dir DIR]
    mvsde list-models

Exit codes: 0 success, 2 configuration error, 3 when --strict is set and the
only failures were diverged runs (for nscaling, the proxy or a repetition).
A run diverged when a state became non-finite or a Newton failure cut it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import experiments, output, svgplot, verify
from .config import ExperimentConfig, load_config, paper_scale, parse_list
from .errors import ConfigError
from .models import BUILTIN_MODELS, make_model
from .taming import SCHEMES, parse_taming


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvsde",
        description="Particle-method studies of mean-field SDEs with "
        "super-linear coefficients under modified/tamed Euler schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=name != "check", help="experiment config file")
        p.add_argument("--out-dir", default=None, help="override the output directory")
        if name == "check":
            return
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--format", default=None, help="comma list of csv,svg")
        p.add_argument("--strict", action="store_true", help="exit 3 on diverged cells")
        if name == "converge":
            p.add_argument(
                "--paper-scale",
                action="store_true",
                help="published convergence protocol (h_ref=2^-17, N=100)",
            )
        else:
            p.set_defaults(paper_scale=False)  # read by the SVG fingerprint

    add("converge", "coupled fine/coarse strong-error study")
    add("density", "kernel density curves per scheme and record time")
    add("paths", "particle path traces with a stability summary")
    add("moments", "empirical moments over time")
    add("nscaling", "terminal-law error against a large-N proxy run")
    add("check", "numerical certification of scheme/model assumptions")
    sub.add_parser("list-models", help="list built-in model names")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out_dir is not None:
        cfg = replace(cfg, out_dir=args.out_dir)
    if args.format is not None:
        cfg = replace(cfg, formats=parse_list(args.format, conv=str.lower))
    if args.paper_scale:
        cfg = paper_scale(cfg)
    return cfg


def _fingerprint(args) -> str:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError:
        text = args.config
    text += f"|seed={args.seed}|paper={args.paper_scale}"
    return svgplot.config_fingerprint(text)


def _check_battery(cfg: ExperimentConfig | None):
    """Default assumption battery for the `check` subcommand."""
    if cfg is not None:
        models = [cfg.build_model()]  # a bad model is a ConfigError, before any check
    else:
        models = [make_model(name) for name in sorted(BUILTIN_MODELS)]
    reports = []
    # every scheme at its default parameter; fte's exponent is the model's, so it is checked per model
    for op in [parse_taming(name) for name in SCHEMES if name != "fte"]:
        for assumption in ("H1", "H2", "H3"):
            me_h2 = assumption == "H2" and op.kind == "modified"
            reports.append(verify.check_taming(op, assumption, {"r1": 1.0, "r2": 3.0} if me_h2 else None))
    for model in models:
        fte = parse_taming("fte", model_rho=model.rho)
        reports.append(verify.check_taming(fte, "H1"))
        reports.append(verify.check_taming(fte, "EX35_BOUND", model=model))
        reports.extend(verify.check_model(model, assumption) for assumption in verify.MODEL_ASSUMPTIONS)
    return reports


class _Study(NamedTuple):
    """How the CLI runs and renders one study.  The fields are functions, so
    experiments/output/svgplot attributes are looked up when a command runs."""

    run: Callable  # cfg -> result
    csv: Callable  # (result, cfg) -> {file name: bytes}
    svgs: Callable  # (result, cfg) -> [(file name, render(fingerprint=...))]
    diverged: Callable  # result -> whether some cell diverged
    summary: Callable  # result -> lines to print


_STUDIES = {
    "converge": _Study(
        run=lambda cfg: experiments.run_convergence(cfg),
        csv=lambda reports, cfg: output.convergence_files(reports),
        svgs=lambda reports, cfg: [
            (f"converge_{rep.model}_{rep.scheme}.svg", partial(svgplot.convergence_svg, rep))
            for rep in reports
        ],
        diverged=lambda reports: any(r.diverged for rep in reports for r in rep.rows),
        summary=lambda reports: [
            f"{rep.model}/{rep.scheme}: slope={rep.slope:.3f} "
            f"intercept={rep.intercept:.3f} r2={rep.r2:.4f} ({rep.n_fit} points)"
            for rep in reports
        ],
    ),
    "density": _Study(
        run=lambda cfg: experiments.run_density(cfg),
        csv=lambda entries, cfg: output.density_files(entries, cfg.h_values),
        svgs=lambda entries, cfg: [
            (f"density_T{t:g}.svg", partial(svgplot.density_svg, entries, t))
            for t in sorted({e.time for e in entries})
        ],
        diverged=lambda entries: any(e.diverged for e in entries),
        summary=lambda entries: [
            f"density: {sum(e.curve is not None for e in entries)} curves "
            f"at times {sorted({e.time for e in entries})}"
        ],
    ),
    "paths": _Study(
        run=lambda cfg: experiments.run_paths(cfg),
        csv=lambda cells, cfg: output.path_files(cells, cfg.h_values),
        svgs=lambda cells, cfg: [
            (f"paths_{c.scheme}{output.h_suffix(c.h, cfg.h_values)}.svg",
             partial(svgplot.paths_svg, c))
            for c in cells
        ],
        diverged=lambda cells: any(c.diverged for c in cells),
        summary=lambda cells: [
            f"{c.scheme} h={c.h:g}: max|X| over records = {c.max_abs_recorded:.4g}, "
            f"first non-finite t = {c.first_nonfinite_time}" + (" [diverged]" if c.diverged else "")
            + ("" if c.newton_failure is None
               else " Newton cut at step {}, particle {}, residual {:.3g}".format(*c.newton_failure))
            for c in cells
        ],
    ),
    "moments": _Study(
        run=lambda cfg: experiments.run_moments(cfg),
        csv=lambda cells, cfg: output.moment_files(cells, cfg.h_values),
        svgs=lambda cells, cfg: [
            (f"moments_{c.scheme}{output.h_suffix(c.h, cfg.h_values)}.svg",
             partial(svgplot.moments_svg, c))
            for c in cells
        ],
        diverged=lambda cells: any(c.diverged for c in cells),
        summary=lambda cells: [
            f"{c.scheme} h={c.h:g}: {len(c.times)} rows"
            + (" [non-finite]" if c.nonfinite else (" [ceiling]" if c.exceeded else ""))
            + (" [diverged]" if c.diverged else "")
            for c in cells
        ],
    ),
    "nscaling": _Study(
        run=lambda cfg: experiments.run_nscaling(cfg),
        csv=lambda report, cfg: output.nscaling_files(report),
        svgs=lambda report, cfg: [("nscaling.svg", partial(svgplot.nscaling_svg, report))],
        diverged=lambda report: report.diverged,
        summary=lambda report: [
            f"nscaling {report.model}/{report.scheme}: slope={report.slope:.3f}"
        ],
    ),
}


def _run_command(args) -> int:
    if args.command == "list-models":
        for name in sorted(BUILTIN_MODELS):
            model = make_model(name)
            params = ", ".join(f"{k}={v:g}" for k, v in model.params.items())
            print(f"{name}: d={model.d}, m={model.m}, rho={model.rho:g}" + (f" ({params})" if params else ""))
        return 0

    if args.command == "check":
        cfg = load_config(args.config) if args.config else None
        out_dir = args.out_dir or (cfg.out_dir if cfg is not None else "out")
        output.check_out_dir(out_dir)
        reports = _check_battery(cfg)
        for rep in reports:
            print(rep)
        output.write_files(out_dir, output.check_files(reports))
        # equilibria oracle of the double-well drift, reported alongside
        roots = verify.doublewell_equilibria_oracle()
        comparison = verify.compare_equilibria(roots)
        print(f"doublewell Dirac-map equilibria: {roots} vs expected (-2, 0, 2): {comparison}")
        return 0

    cfg = _apply_overrides(load_config(args.config), args)
    output.check_out_dir(cfg.out_dir)
    study = _STUDIES[args.command]
    result = study.run(cfg)
    files = study.csv(result, cfg) if "csv" in cfg.formats else {}
    if "svg" in cfg.formats:
        fp = _fingerprint(args)
        for name, render in study.svgs(result, cfg):
            try:
                files[name] = render(fingerprint=fp).encode("utf-8")
            except ValueError:
                continue
    for line in study.summary(result):
        print(line)
    written = output.write_files(cfg.out_dir, files)
    print(f"wrote {len(written)} files to {cfg.out_dir}")
    if args.strict and study.diverged(result):
        return 3
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
