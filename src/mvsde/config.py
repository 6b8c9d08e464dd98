"""Experiment configuration: sectioned key = value files and defaults.

Grammar (stdlib configparser INI dialect, UTF-8):

    [model]       name (cubic | quintic | doublewell), model parameters
    [schemes]     schemes = comma list of scheme names
                  (identity | dte(lambda) | me | te(alpha) | se(alpha) | fte | ssm)
    [grid]        T, and either h  = comma list of run step sizes
                  or          h_ref + h_list   (convergence studies)
    [experiment]  N, seed, record_times, repetitions, experiment-specific keys
    [output]      out_dir, formats = non-empty comma list of csv | svg
                  (a study writes its CSV files only when csv is listed)

Any other key, in any section, is a configuration error.  An unset [grid] or
[experiment] key other than T and seed is None; STUDY_KEYS lists the keys
each study reads, the ones it needs and the defaults of the others, and a
set key the study does not read is an error (ExperimentConfig.for_study).
Every value is checked when an ExperimentConfig is constructed, from a file
or in library code alike.

Numbers, model parameters included, accept plain decimals, scientific
notation and exact dyadic exponents written as 2^-14; NaN, infinities and
overflow are errors, in library code too.  Integer keys (n, seed,
repetitions, orders, trace_particles, trace_stride, n_list, proxy_n) take
integer literals, exact at any size, or integral numbers such as 1e3, and
in library code must be integers; the seed must lie in [0, 2^64).  Arrays
are comma-separated.
"""

from __future__ import annotations

import configparser
import math
import numbers
import re
from dataclasses import dataclass, field, replace
from functools import partial

from .errors import ConfigError
from .models import ModelSpec, make_model
from .stepper import RECORD_TIME_SLACK
from .taming import TamingOperator, parse_taming

_DYADIC = re.compile(r"^2\^(-?\d+)$")


def parse_number(text: str) -> float:
    """A finite number; NaN, infinities and overflow are ConfigErrors."""
    text = text.strip()
    m = _DYADIC.match(text)
    try:
        value = 2.0 ** int(m.group(1)) if m else float(text)
    except (ValueError, OverflowError):
        raise ConfigError(f"cannot parse number '{text}'") from None
    if not math.isfinite(value):
        raise ConfigError(f"number '{text}' is not finite")
    return value


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
    """a / b as an integer, rejecting a divisor <= 0 and non-finite or
    non-integral ratios."""
    if b <= 0:
        raise ConfigError(f"{what}: divisor {b!r} is not positive")
    ratio = a / b
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ConfigError(f"{what}: {a!r} / {b!r} = {ratio!r} is not a positive integer")
    return n


def build_scheme(text: str, model: ModelSpec) -> TamingOperator | None:
    """Scheme from its config name, for the given model: None for 'ssm', the
    implicit split step, else a taming operator (see taming.parse_taming)."""
    if text.strip().lower() == "ssm":
        return None
    try:
        return parse_taming(text, model_rho=model.rho)
    except ValueError as err:
        raise ConfigError(str(err)) from None


@dataclass
class ExperimentConfig:
    """Parsed experiment description shared by every subcommand.  A [grid] or
    [experiment] field other than T and seed is None while unset."""

    model_name: str = "cubic"
    model_params: dict = field(default_factory=dict)
    schemes: list = field(default_factory=lambda: ["me"])
    T: float = 1.0
    N: int | None = None
    seed: int = 1
    h_values: list | None = None  # run step sizes (one cell per h)
    h_ref: float | None = None  # convergence reference step
    h_list: list | None = None  # convergence coarse steps
    record_times: list | None = None
    repetitions: int | None = None
    orders: list | None = None
    moment_ceiling: float | None = None
    trace_particles: list | None = None
    trace_stride: int | None = None
    n_list: list | None = None
    proxy_n: int | None = None
    reference_scheme: str | None = None
    reference_h: float | None = None
    out_dir: str = "out"
    formats: list = field(default_factory=lambda: ["csv"])

    def __post_init__(self):
        """ConfigError for a value that no study could run with."""
        if not self.schemes:
            raise ConfigError("no schemes configured")
        if not self.formats:
            raise ConfigError("formats lists no output format")
        bad = [f for f in self.formats if f not in ("csv", "svg")]
        if bad:
            raise ConfigError(f"unknown output formats: {bad}")
        # a file's numbers are finite (parse_number), library code's may not be
        named = [("T", self.T), ("moment_ceiling", self.moment_ceiling), *self.model_params.items()]
        named += [("record_times", t) for t in self.record_times or ()]
        bad = [name for name, v in named if isinstance(v, numbers.Real) and not math.isfinite(v)]
        if bad:
            raise ConfigError(f"{bad[0]} is not finite")
        # and a file's integers are integers (parse_int)
        named = [(name, getattr(self, name)) for name in ("N", "seed", "repetitions", "trace_stride", "proxy_n")]
        named += [(name, v) for name in ("orders", "n_list", "trace_particles") for v in getattr(self, name) or ()]
        bad = [(name, v) for name, v in named if v is not None and not isinstance(v, numbers.Integral)]
        if bad:
            raise ConfigError(f"{bad[0][0]} must be an integer, got {bad[0][1]!r}")
        if self.T <= 0:
            raise ConfigError("horizon T must be positive")
        # the seed keys the Brownian streams mod 2^64, so one outside [0, 2^64)
        # would silently run as another seed
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed {self.seed} outside [0, 2^64)")
        if self.N is not None and self.N < 1:
            raise ConfigError("particle count N must be positive")
        if self.repetitions is not None and self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if self.orders is not None and (not self.orders or min(self.orders) < 1):
            raise ConfigError(f"moment orders must be at least 1, got {self.orders}")
        if self.trace_stride is not None and self.trace_stride < 1:
            raise ConfigError(f"trace_stride must be at least 1, got {self.trace_stride}")
        if any(n < 1 for n in self.n_list or ()) or (self.proxy_n is not None and self.proxy_n < 1):
            raise ConfigError("n_list entries and proxy_n must be at least 1")
        # a repeated N would make the nscaling fit divide by zero
        if len(set(self.n_list or ())) != len(self.n_list or ()):
            raise ConfigError(f"n_list {self.n_list} repeats an entry")
        # an empty list would trace nothing, a repeated id would repeat a column
        if self.trace_particles is not None and not self.trace_particles:
            raise ConfigError("trace_particles lists no particle")
        if len(set(self.trace_particles or ())) != len(self.trace_particles or ()):
            raise ConfigError(f"trace_particles {self.trace_particles} repeats an entry")
        # with N unset, the ids are checked again once for_study fills N in
        bad = [i for i in self.trace_particles or () if self.N is not None and not 0 <= i < self.N]
        if bad:
            raise ConfigError(f"trace_particles {bad} outside 0..{self.N - 1}")
        if self.record_times is not None and not self.record_times:
            raise ConfigError("record_times lists no time")
        # stepper.run would reject them after set-up
        if any(t < 0 or t > self.T + RECORD_TIME_SLACK for t in self.record_times or ()):
            raise ConfigError(f"record_times {self.record_times} outside [0, {self.T}]")
        for h in self.h_values or ():
            exact_divide(self.T, h, "T / h")
        if self.h_ref is not None:
            n_ref = exact_divide(self.T, self.h_ref, "T / h_ref")
            for h in self.h_list or ():
                if n_ref % exact_divide(h, self.h_ref, "h / h_ref") != 0:
                    raise ConfigError(f"h = {h} does not divide the reference grid")
        if self.reference_h is not None:
            exact_divide(self.T, self.reference_h, "T / reference_h")
        for h in [self.h_ref, self.reference_h, *(self.h_list or ()), *(self.h_values or ())]:
            if h is not None and not 0.0 < h < 1.0:
                raise ConfigError(f"step size {h} outside (0, 1)")

    def build_model(self) -> ModelSpec:
        try:
            return make_model(self.model_name, **self.model_params)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad model: {err}") from None

    def for_study(self, study: str) -> ExperimentConfig:
        """This config with the unset keys of `study` at their STUDY_KEYS
        defaults; a ConfigError for a set [grid] or [experiment] key the
        study does not read, and for an unset or empty one it needs."""
        reads = STUDY_KEYS[study]
        for (section, key), (name, _) in _KEYS.items():
            if section not in ("grid", "experiment") or key in ("t", "seed"):
                continue
            value = getattr(self, name)
            if name not in reads and value is not None:
                raise ConfigError(f"this study does not read '{key}' in [{section}]")
            if reads.get(name) is REQUIRED and not value:
                raise ConfigError(f"this study needs '{key}' in [{section}]")
        unset = {name: default for name, default in reads.items() if getattr(self, name) is None}
        return replace(self, **unset)


def _reference_scheme(text: str) -> str | None:
    name = text.strip().lower()
    return None if name in ("", "none") else name


_int_list = partial(parse_list, conv=parse_int)

# (section, key) -> (ExperimentConfig field, parser of the value text); keys
# are lower case, as configparser reads them.  [model] keys other than name
# are model parameters.
_KEYS = {
    ("model", "name"): ("model_name", str.strip),
    ("schemes", "schemes"): ("schemes", partial(parse_list, conv=str)),
    ("grid", "t"): ("T", parse_number),
    ("grid", "h"): ("h_values", parse_list),
    ("grid", "h_ref"): ("h_ref", parse_number),
    ("grid", "h_list"): ("h_list", parse_list),
    ("experiment", "n"): ("N", parse_int),
    ("experiment", "seed"): ("seed", parse_int),
    ("experiment", "record_times"): ("record_times", parse_list),
    ("experiment", "repetitions"): ("repetitions", parse_int),
    ("experiment", "orders"): ("orders", _int_list),
    ("experiment", "moment_ceiling"): ("moment_ceiling", parse_number),
    ("experiment", "trace_particles"): ("trace_particles", _int_list),
    ("experiment", "trace_stride"): ("trace_stride", parse_int),
    ("experiment", "n_list"): ("n_list", _int_list),
    ("experiment", "proxy_n"): ("proxy_n", parse_int),
    ("experiment", "reference_scheme"): ("reference_scheme", _reference_scheme),
    ("experiment", "reference_h"): ("reference_h", parse_number),
    ("output", "out_dir"): ("out_dir", str.strip),
    ("output", "formats"): ("formats", partial(parse_list, conv=str.lower)),
}

REQUIRED = object()  # a key the study needs the config to set

# study -> {field it reads: its value while unset}, over the [grid] and
# [experiment] fields but T and seed; None where the study picks the default
STUDY_KEYS = {
    "converge": {"h_ref": REQUIRED, "h_list": REQUIRED, "N": 100},
    "density": {"h_values": REQUIRED, "N": 100, "record_times": None, "reference_scheme": None, "reference_h": None},
    "paths": {"h_values": REQUIRED, "N": 100, "record_times": None, "trace_particles": None, "trace_stride": 1},
    "moments": {"h_values": REQUIRED, "N": 100, "record_times": None, "orders": (2, 4), "moment_ceiling": 1e4},
    "nscaling": {"h_values": REQUIRED, "n_list": REQUIRED, "proxy_n": REQUIRED, "repetitions": 1},
}


def load_config(path: str) -> ExperimentConfig:
    """Config from a file; a key that is neither in _KEYS nor a [model]
    parameter is a ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as err:  # duplicate keys, text before a section
        raise ConfigError(str(err)) from None
    if not read:
        raise ConfigError(f"cannot read config file '{path}'")
    values, params = {}, {}
    for section in parser.sections():
        for key, text in parser[section].items():
            if section == "model" and key != "name":
                params[key] = parse_number(text)
            elif (section, key) in _KEYS:
                name, parse = _KEYS[section, key]
                values[name] = parse(text)
            else:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
    if parser.has_section("schemes") and "schemes" not in parser["schemes"]:
        raise ConfigError("[schemes] section present but empty")
    return ExperimentConfig(model_params=params, **values)


def paper_scale(cfg: ExperimentConfig) -> ExperimentConfig:
    """Published convergence protocol: h_ref = 2^-17, integer-ratio coarse
    steps 2^-13..2^-16, N = 100."""
    return replace(
        cfg,
        h_ref=2.0**-17,
        h_list=[2.0**-13, 2.0**-14, 2.0**-15, 2.0**-16],
        N=100,
    )
