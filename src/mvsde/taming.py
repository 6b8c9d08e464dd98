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

An operator is built as TamingOperator(kind, param), or from its config-file
name (see SCHEMES) by parse_taming.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import int_power

# The scheme vocabulary, declared once: config-file name -> (kind, name of its
# one parameter, default).  A parameter with a default is set in the config and
# shows in the label; fte's has none, as its exponent is the model's rho.
SCHEMES = {
    "identity": ("identity", None, None),
    "dte": ("drift_tamed", "lambda", 0.5),
    "me": ("modified", None, None),
    "te": ("tanh", "alpha", 1.0),
    "se": ("sin", "alpha", 1.0),
    "fte": ("fully_tamed", "rho", None),
}
_BY_KIND = {kind: (name, param, default) for name, (kind, param, default) in SCHEMES.items()}

# parameter name -> (its range as written, membership test)
_RANGES = {
    "lambda": ("(0, 1/2]", lambda p: 0.0 < p <= 0.5),
    "alpha": ("(0, 3/2)", lambda p: 0.0 < p < 1.5),
    "rho": ("[0, inf)", lambda p: p >= 0.0),
}

# step-consistency exponents (r1, r2, r3): |T1(v,h) - v| <= h^r1 |v|^r2 and
# |T2(v,h) - v| <= h^r3 |v|^r2 hold with constant 1 for these operators
_DECLARED_H3 = {
    "modified": (0.5, 2.0, 0.5),
    "tanh": (0.5, 2.0, 0.5),
    "sin": (0.5, 2.0, 0.5),
}


@dataclass(frozen=True)
class TamingOperator:
    kind: str
    param: float | None = None  # the kind's one parameter, if it has one

    def __post_init__(self):
        if self.kind not in _BY_KIND:
            raise ValueError(f"unknown taming kind '{self.kind}'")
        name = _BY_KIND[self.kind][1]
        if name is None:
            if self.param is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        elif self.param is None or not _RANGES[name][1](self.param):
            raise ValueError(f"{self.kind} requires {name} in {_RANGES[name][0]}")

    @property
    def declared_h3(self):
        """(r1, r2, r3) consistency exponents, or None where not declared."""
        return _DECLARED_H3.get(self.kind)

    @property
    def label(self) -> str:
        """Filesystem-safe form of the config-file name, e.g. 'te_a1' for te(1)."""
        name, param, default = _BY_KIND[self.kind]
        return name if default is None else f"{name}_{param[0]}{self.param:g}"

    @property
    def subject(self) -> str:
        """Name in assumption-check reports, e.g. 'tanh(alpha=1)'."""
        param = _BY_KIND[self.kind][1]
        return self.kind if param is None else f"{self.kind}({param}={self.param:g})"


def _vec_norm(v):
    # Euclidean norm along the coordinate axis, kept broadcastable; np.sum's
    # own reduction, without its wrapper
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))


def _t1_raw(op: TamingOperator, v, x, h):
    """T1 on a value or a block of values; NaN in gives NaN out."""
    kind = op.kind
    if kind == "identity":
        return v
    if kind == "drift_tamed":
        return v / (1.0 + h**op.param * _vec_norm(v))
    if kind == "modified":
        return v / (1.0 + h * np.add.reduce(v * v, axis=-1, keepdims=True))
    if kind == "tanh":
        ha = h**op.param
        return np.tanh(ha * v) / ha
    if kind == "sin":
        ha = h**op.param
        return np.sin(ha * v) / ha
    # fully_tamed: damping driven by the state, not the coefficient
    p = 4.0 * op.param
    norm = _vec_norm(x)
    damp = int_power(norm, int(p)) if p >= 1.0 and p.is_integer() else norm**p
    return v / (1.0 + np.sqrt(h) * damp)


def _t2_raw(op: TamingOperator, v, x, h):
    """T2; drift_tamed leaves the diffusion untouched."""
    if op.kind == "drift_tamed":
        return v
    return _t1_raw(op, v, x, h)


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
