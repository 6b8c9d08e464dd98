"""Experiment configuration: sectioned key = value files and defaults.

Grammar (stdlib configparser INI dialect, UTF-8):

    [model]       name (cubic | quintic | doublewell), model parameters
    [schemes]     schemes = comma list of scheme names
                  (identity | dte(lambda) | me | te(alpha) | se(alpha) | fte | ssm)
    [grid]        T, and either h  = comma list of run step sizes
                  or          h_ref + h_list   (convergence studies)
    [experiment]  N, seed, record_times, repetitions, experiment-specific keys
    [output]      out_dir, formats = comma list of csv | svg

Numbers, model parameters included, accept plain decimals, scientific
notation and exact dyadic exponents written as 2^-14.  Integer keys (n, seed,
repetitions, orders, trace_particles, trace_stride, n_list, proxy_n) take
integer literals, exact at any size, or integral numbers such as 1e3.
Arrays are comma-separated.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .models import ModelSpec, make_model
from .stepper import MODIFIED_EULER, SPLIT_STEP, SchemeConfig
from .taming import TamingOperator, parse_taming

_DYADIC = re.compile(r"^2\^(-?\d+)$")


def parse_number(text: str) -> float:
    text = text.strip()
    m = _DYADIC.match(text)
    if m:
        return 2.0 ** int(m.group(1))
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse number '{text}'") from None


def parse_int(text: str) -> int:
    """An integer key: an integer literal, read exactly, or a number with an
    integral value such as 1e3 or 2^10, read as a float."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        value = parse_number(text)
    if not value.is_integer():
        raise ConfigError(f"expected an integer, got '{text}'")
    return int(value)


def parse_list(text: str, conv=parse_number) -> list:
    items = [part.strip() for part in text.split(",")]
    return [conv(part) for part in items if part]


def exact_divide(a: float, b: float, what: str) -> int:
    """a / b as an integer, rejecting non-integral ratios."""
    ratio = a / b
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ConfigError(f"{what}: {a!r} / {b!r} = {ratio!r} is not a positive integer")
    return n


def _parse_operator(text: str, model_rho: float | None) -> TamingOperator:
    try:
        return parse_taming(text, model_rho=model_rho)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def build_scheme(text: str, model: ModelSpec) -> SchemeConfig:
    """Scheme from its config name; 'ssm' is the implicit split-step method."""
    if text.strip().lower() == "ssm":
        return SchemeConfig(method=SPLIT_STEP, label="ssm")
    op = _parse_operator(text, model_rho=model.rho)
    return SchemeConfig(method=MODIFIED_EULER, t1=op, t2=op, label=op.label)


def parse_formats(text: str) -> list:
    """Output formats from a comma list of csv | svg."""
    formats = parse_list(text, conv=str.lower)
    bad = [f for f in formats if f not in ("csv", "svg")]
    if bad:
        raise ConfigError(f"unknown output formats: {bad}")
    return formats


@dataclass
class ExperimentConfig:
    """Parsed experiment description shared by every subcommand."""

    model_name: str = "cubic"
    model_params: dict = field(default_factory=dict)
    schemes: list = field(default_factory=lambda: ["me"])
    T: float = 1.0
    N: int = 100
    seed: int = 1
    h_values: list = field(default_factory=list)  # run step sizes (one cell per h)
    h_ref: float | None = None  # convergence reference step
    h_list: list = field(default_factory=list)  # convergence coarse steps
    record_times: list | None = None
    repetitions: int = 1
    orders: list = field(default_factory=lambda: [2, 4])
    moment_ceiling: float = 1e4
    trace_particles: list | None = None
    trace_stride: int = 1
    n_list: list = field(default_factory=list)
    proxy_n: int = 0
    reference_scheme: str | None = None
    reference_h: float | None = None
    out_dir: str = "out"
    formats: list = field(default_factory=lambda: ["csv"])

    def build_model(self) -> ModelSpec:
        try:
            return make_model(self.model_name, **self.model_params)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad model: {err}") from None

    def build_schemes(self, model: ModelSpec) -> list:
        if not self.schemes:
            raise ConfigError("no schemes configured")
        return [build_scheme(text, model) for text in self.schemes]

    def validate_convergence(self):
        if self.h_ref is None or not self.h_list:
            raise ConfigError("convergence study needs h_ref and h_list in [grid]")
        n_ref = exact_divide(self.T, self.h_ref, "T / h_ref")
        for h in [self.h_ref, *self.h_list]:
            if not 0.0 < h < 1.0:
                raise ConfigError(f"step size {h} outside (0, 1)")
        for h in self.h_list:
            factor = exact_divide(h, self.h_ref, "h / h_ref")
            if n_ref % factor != 0:
                raise ConfigError(f"h = {h} does not divide the reference grid")

    def validate_run_steps(self):
        if not self.h_values:
            raise ConfigError("this experiment needs h = ... in [grid]")
        for h in self.h_values:
            if not 0.0 < h < 1.0:
                raise ConfigError(f"step size {h} outside (0, 1)")
            exact_divide(self.T, h, "T / h")
        # the tolerance of stepper.simulate, which would reject them after set-up
        if any(t < 0 or t > self.T + 1e-12 for t in self.record_times or ()):
            raise ConfigError(f"record_times {self.record_times} outside [0, {self.T}]")


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as err:  # duplicate keys, text before a section
        raise ConfigError(str(err)) from None
    if not read:
        raise ConfigError(f"cannot read config file '{path}'")
    cfg = ExperimentConfig()

    if parser.has_section("model"):
        sec = parser["model"]
        cfg.model_name = sec.get("name", cfg.model_name).strip()
        for key in sec:
            if key == "name":
                continue
            cfg.model_params[key] = parse_number(sec[key])

    if parser.has_section("schemes"):
        cfg.schemes = parse_list(parser["schemes"].get("schemes", ""), conv=str)
        if not cfg.schemes:
            raise ConfigError("[schemes] section present but empty")

    if parser.has_section("grid"):
        sec = parser["grid"]
        if "t" in sec:
            cfg.T = parse_number(sec["t"])
        if "h" in sec:
            cfg.h_values = parse_list(sec["h"])
        if "h_ref" in sec:
            cfg.h_ref = parse_number(sec["h_ref"])
        if "h_list" in sec:
            cfg.h_list = parse_list(sec["h_list"])

    if parser.has_section("experiment"):
        sec = parser["experiment"]
        if "n" in sec:
            cfg.N = parse_int(sec["n"])
        if "seed" in sec:
            cfg.seed = parse_int(sec["seed"])
        if "record_times" in sec:
            cfg.record_times = parse_list(sec["record_times"])
        if "repetitions" in sec:
            cfg.repetitions = parse_int(sec["repetitions"])
        if "orders" in sec:
            cfg.orders = parse_list(sec["orders"], conv=parse_int)
        if "moment_ceiling" in sec:
            cfg.moment_ceiling = parse_number(sec["moment_ceiling"])
        if "trace_particles" in sec:
            cfg.trace_particles = parse_list(sec["trace_particles"], conv=parse_int)
        if "trace_stride" in sec:
            cfg.trace_stride = parse_int(sec["trace_stride"])
        if "n_list" in sec:
            cfg.n_list = parse_list(sec["n_list"], conv=parse_int)
        if "proxy_n" in sec:
            cfg.proxy_n = parse_int(sec["proxy_n"])
        if "reference_scheme" in sec:
            name = sec["reference_scheme"].strip().lower()
            cfg.reference_scheme = None if name in ("", "none") else name
        if "reference_h" in sec:
            cfg.reference_h = parse_number(sec["reference_h"])

    if parser.has_section("output"):
        sec = parser["output"]
        if "out_dir" in sec:
            cfg.out_dir = sec["out_dir"].strip()
        if "formats" in sec:
            cfg.formats = parse_formats(sec["formats"])

    if cfg.T <= 0:
        raise ConfigError("horizon T must be positive")
    if cfg.N < 1:
        raise ConfigError("particle count N must be positive")
    if cfg.repetitions < 1:
        raise ConfigError("repetitions must be at least 1")
    if not cfg.orders or min(cfg.orders) < 1:
        raise ConfigError(f"moment orders must be at least 1, got {cfg.orders}")
    return cfg


def paper_scale(cfg: ExperimentConfig) -> ExperimentConfig:
    """Published convergence protocol: h_ref = 2^-17, integer-ratio coarse
    steps 2^-13..2^-16, N = 100."""
    return replace(
        cfg,
        h_ref=2.0**-17,
        h_list=[2.0**-13, 2.0**-14, 2.0**-15, 2.0**-16],
        N=100,
    )
