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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteCoefficient
from .models import int_power

KINDS = ("identity", "drift_tamed", "modified", "tanh", "sin", "fully_tamed")

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
    lam: float | None = None  # drift_tamed exponent, in (0, 1/2]
    alpha: float | None = None  # tanh/sin exponent, in (0, 3/2)
    rho: float | None = None  # fully_tamed growth exponent, >= 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown taming kind '{self.kind}'")
        if self.kind == "drift_tamed":
            if self.lam is None or not 0.0 < self.lam <= 0.5:
                raise ValueError("drift_tamed requires lambda in (0, 1/2]")
        elif self.lam is not None:
            raise ValueError("lambda only applies to drift_tamed")
        if self.kind in ("tanh", "sin"):
            if self.alpha is None or not 0.0 < self.alpha < 1.5:
                raise ValueError(f"{self.kind} requires alpha in (0, 3/2)")
        elif self.alpha is not None:
            raise ValueError("alpha only applies to tanh/sin")
        if self.kind == "fully_tamed":
            if self.rho is None or self.rho < 0:
                raise ValueError("fully_tamed requires the model's rho >= 0")
        elif self.rho is not None:
            raise ValueError("rho only applies to fully_tamed")

    @property
    def declared_h3(self):
        """(r1, r2, r3) consistency exponents, or None where not declared."""
        return _DECLARED_H3.get(self.kind)

    @property
    def label(self) -> str:
        """Filesystem-safe form of the config-file name, e.g. 'te_a1' for te(1)."""
        if self.kind == "drift_tamed":
            return f"dte_l{self.lam:g}"
        if self.kind == "tanh":
            return f"te_a{self.alpha:g}"
        if self.kind == "sin":
            return f"se_a{self.alpha:g}"
        return {"identity": "identity", "modified": "me", "fully_tamed": "fte"}[self.kind]


def identity() -> TamingOperator:
    return TamingOperator("identity")


def drift_tamed(lam: float = 0.5) -> TamingOperator:
    return TamingOperator("drift_tamed", lam=lam)


def modified() -> TamingOperator:
    return TamingOperator("modified")


def tanh_op(alpha: float = 1.0) -> TamingOperator:
    return TamingOperator("tanh", alpha=alpha)


def sin_op(alpha: float = 1.0) -> TamingOperator:
    return TamingOperator("sin", alpha=alpha)


def fully_tamed(rho: float) -> TamingOperator:
    return TamingOperator("fully_tamed", rho=rho)


def _vec_norm(v):
    # Euclidean norm along the coordinate axis, kept broadcastable
    return np.sqrt(np.sum(v * v, axis=-1, keepdims=True))


def _t1_raw(op: TamingOperator, v, x, h):
    """T1 without input validation; NaN in gives NaN out."""
    kind = op.kind
    if kind == "identity":
        return v
    if kind == "drift_tamed":
        return v / (1.0 + h**op.lam * _vec_norm(v))
    if kind == "modified":
        return v / (1.0 + h * np.sum(v * v, axis=-1, keepdims=True))
    if kind == "tanh":
        ha = h**op.alpha
        return np.tanh(ha * v) / ha
    if kind == "sin":
        ha = h**op.alpha
        return np.sin(ha * v) / ha
    # fully_tamed: damping driven by the state, not the coefficient
    p = 4.0 * op.rho
    norm = _vec_norm(x)
    damp = int_power(norm, int(p)) if p >= 1.0 and p.is_integer() else norm**p
    return v / (1.0 + np.sqrt(h) * damp)


def _t2_raw(op: TamingOperator, v, x, h):
    """T2 without input validation; drift_tamed leaves the diffusion untouched."""
    if op.kind == "drift_tamed":
        return v
    return _t1_raw(op, v, x, h)


def _validated(op, v, x, h, raw):
    if not 0.0 < h < 1.0:
        raise ValueError(f"step size h={h} outside (0, 1)")
    v = np.asarray(v, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NonFiniteCoefficient("non-finite coefficient value passed to taming", value=v)
    if op.kind == "fully_tamed" and not np.all(np.isfinite(x)):
        raise NonFiniteCoefficient("non-finite state passed to taming", x=x)
    return np.asarray(raw(op, v, x, h), dtype=np.float64)


def apply_t1(op: TamingOperator, v, x, h):
    """Tame a raw drift value; v and x are (d,) or (N, d), h in (0, 1)."""
    return _validated(op, v, x, h, _t1_raw)


def apply_t2(op: TamingOperator, v, x, h):
    """Tame a raw diffusion-column value; same conventions as apply_t1."""
    return _validated(op, v, x, h, _t2_raw)


# config-file names: identity | dte(lambda) | me | te(alpha) | se(alpha) | fte;
# the parametrized ones take their default parameter from the factory
_PARAMETRIZED = {"dte": drift_tamed, "te": tanh_op, "se": sin_op}
_PLAIN = {"identity": identity, "me": modified}


def parse_taming(text: str, model_rho: float | None = None) -> TamingOperator:
    """Build an operator from its config-file name, e.g. 'me' or 'te(0.5)'.

    'fte' takes its growth exponent from the model, passed as model_rho.
    """
    text = text.strip().lower()
    name, arg = text, None
    if text.endswith(")") and "(" in text:
        name, rest = text.split("(", 1)
        name = name.strip()
        rest = rest[:-1].strip()
        if rest:
            try:
                arg = float(rest)
            except ValueError:
                raise ValueError(f"bad taming parameter in '{text}'") from None
    if name in _PARAMETRIZED:
        factory = _PARAMETRIZED[name]
        return factory() if arg is None else factory(arg)
    if name in _PLAIN:
        if arg is not None:
            raise ValueError(f"'{name}' takes no parameter")
        return _PLAIN[name]()
    if name == "fte":
        if arg is not None:
            raise ValueError("'fte' takes its exponent from the model")
        if model_rho is None:
            raise ValueError("'fte' needs the model's growth exponent rho")
        return fully_tamed(model_rho)
    raise ValueError(f"unknown taming operator '{text}'")
