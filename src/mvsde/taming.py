"""The family of per-step taming maps applied to drift and diffusion values.

Each operator is a pair of maps (T1 for the drift, T2 for each diffusion
column) taking the raw coefficient value v, the particle state x and the
step size h:

    identity      T1(v) = v                         T2 = T1
    drift_tamed   T1(v) = v / (1 + h^lambda |v|)    T2(v) = v   (untamed)
    modified      T1(v) = v / (1 + h |v|^2)         T2 = T1
    tanh          T1(v) = h^-alpha tanh(h^alpha v)  T2 = T1   (componentwise)
    sin           T1(v) = h^-alpha sin(h^alpha v)   T2 = T1   (componentwise)
    fully_tamed   T1(v) = v / (1 + h^(1/2) |x|^(4 rho))        T2 = T1

|.| is the Euclidean norm of the whole vector for drift_tamed, modified and
fully_tamed (for the scalar benchmark models the norm-wise and componentwise
readings coincide; tanh/sin are necessarily componentwise).  The state x
enters only through fully_tamed, whose damping depends on |x| rather than
|v|; all operators share one interface so schemes can swap them freely.

Each kind is declared once, as its row of KINDS: config-file name, parameter
(name, default, range), T1, whether T2 is T1, and H3 exponents.  SCHEMES is
the table's view by config-file name.  An operator, TamingOperator(kind,
param) or parse_taming(name), applies its maps as op.t1(v, x, h) and op.t2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .models import int_power


def _vec_norm(v):
    # Euclidean norm along the coordinate axis, kept broadcastable; np.sum's
    # own reduction, without its wrapper
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))


def _fully_tamed(v, x, h, rho):
    # damping driven by the state, not the coefficient
    p, norm = 4.0 * rho, _vec_norm(x)
    damp = int_power(norm, int(p)) if p >= 1.0 and p.is_integer() else norm**p
    return v / (1.0 + np.sqrt(h) * damp)


class Kind(NamedTuple):
    """One taming kind; T2 is its T1 where tames_diffusion, else the identity."""

    name: str  # in config files
    t1: Callable  # t1(v, x, h, param) on a value or a block; NaN in gives NaN out
    param: str | None = None  # name of its one parameter
    default: float | None = None  # set in configs, shown in labels; fte's rho is the model's
    range: tuple | None = None  # the parameter's range: (as written, membership test)
    tames_diffusion: bool = True
    h3: tuple | None = None  # (r1, r2, r3): |T1 - v| <= h^r1 |v|^r2, |T2 - v| <= h^r3 |v|^r2, constant 1


_H3 = (0.5, 2.0, 0.5)
_ALPHA = ("(0, 3/2)", lambda p: 0.0 < p < 1.5)

# the scheme vocabulary, one row per kind, in config-file order
KINDS = {
    "identity": Kind("identity", lambda v, x, h, p: v),
    "drift_tamed": Kind(
        "dte", lambda v, x, h, lam: v / (1.0 + h**lam * _vec_norm(v)), "lambda", 0.5,
        ("(0, 1/2]", lambda p: 0.0 < p <= 0.5), tames_diffusion=False,
    ),
    "modified": Kind(
        "me", lambda v, x, h, p: v / (1.0 + h * np.add.reduce(v * v, axis=-1, keepdims=True)), h3=_H3
    ),
    "tanh": Kind("te", lambda v, x, h, a: np.tanh((ha := h**a) * v) / ha, "alpha", 1.0, _ALPHA, h3=_H3),
    "sin": Kind("se", lambda v, x, h, a: np.sin((ha := h**a) * v) / ha, "alpha", 1.0, _ALPHA, h3=_H3),
    "fully_tamed": Kind("fte", _fully_tamed, "rho", None, ("[0, inf)", lambda p: p >= 0.0)),
}
# config-file name -> (kind, name of its one parameter, default)
SCHEMES = {row.name: (kind, row.param, row.default) for kind, row in KINDS.items()}


@dataclass(frozen=True)
class TamingOperator:
    kind: str
    param: float | None = None  # the kind's one parameter, if it has one

    def __post_init__(self):
        row = KINDS.get(self.kind)
        if row is None:
            raise ValueError(f"unknown taming kind '{self.kind}'")
        if row.param is None:
            if self.param is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        elif self.param is None or not row.range[1](self.param):
            raise ValueError(f"{self.kind} requires {row.param} in {row.range[0]}")

    def t1(self, v, x, h):
        """T1 on a value or a block of values; NaN in gives NaN out."""
        return KINDS[self.kind].t1(v, x, h, self.param)

    def t2(self, v, x, h):
        """T2 on a diffusion column."""
        row = KINDS[self.kind]
        return row.t1(v, x, h, self.param) if row.tames_diffusion else v

    @property
    def declared_h3(self):
        """(r1, r2, r3) consistency exponents, or None where not declared."""
        return KINDS[self.kind].h3

    @property
    def label(self) -> str:
        """Filesystem-safe form of the config-file name, e.g. 'te_a1' for te(1)."""
        row = KINDS[self.kind]
        return row.name if row.default is None else f"{row.name}_{row.param[0]}{self.param:g}"

    @property
    def subject(self) -> str:
        """Name in assumption-check reports, e.g. 'tanh(alpha=1)'."""
        param = KINDS[self.kind].param
        return self.kind if param is None else f"{self.kind}({param}={self.param:g})"


def parse_taming(text: str, model_rho: float | None = None) -> TamingOperator:
    """Build an operator from its config-file name, e.g. 'me' or 'te(0.5)'.

    'fte' takes its growth exponent from the model, passed as model_rho.
    """
    text = text.strip().lower()
    name, arg = text, None
    if text.endswith(")") and "(" in text:
        name, rest = text[:-1].split("(", 1)
        name, rest = name.strip(), rest.strip()
        if rest:
            try:
                arg = float(rest)
            except ValueError:
                raise ValueError(f"bad taming parameter in '{text}'") from None
    if name not in SCHEMES:
        raise ValueError(f"unknown taming operator '{text}'")
    kind, param, default = SCHEMES[name]
    if arg is not None and default is None:
        raise ValueError(f"'{name}' takes no parameter")
    if param is None:
        return TamingOperator(kind)
    if default is None:  # the model's exponent
        if model_rho is None:
            raise ValueError(f"'{name}' needs the model's growth exponent {param}")
        return TamingOperator(kind, model_rho)
    return TamingOperator(kind, default if arg is None else arg)
