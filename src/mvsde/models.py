"""Mean-field SDE model abstraction and the built-in benchmark models.

A model bundles a drift ``b(t, x, mu)``, diffusion columns
``sigma_r(t, x, mu)``, a growth exponent ``rho`` (the drift-increment bound
is polynomial of degree ``2*rho + 1``) and a sampler for the initial law.
Coefficient callables are vectorized over particles: ``x`` has shape
``(N, d)``, or ``(B, N, d)`` for B independent particle systems, and the
return value must match.  The measure argument ``mu`` is a MeasureView of
the current empirical measures, one per system; during a run it is the
stepper's input Ensemble itself, frozen for the whole step.  A measure
functional reduces axis -2 (the particles of one system) and keeps that axis
for a batch, so it broadcasts against ``x``.  All built-in models consume
only the cached raw moments, but the read-only particle block ``mu.states``
stays reachable for user models that need general measure functionals.

Coefficients must be deterministic, pure functions of their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class MeasureView:
    """Empirical measure of N particles: the read-only (N, d) block `states`
    and its moments, cached on first use; or of B such systems, with states
    of shape (B, N, d).  A C-contiguous float64 input is used in
    place, so that array becomes read-only too.

    The stepper builds one per time step, as its Ensemble subclass.  Moments
    are accumulated with single numpy reductions over the particle axis,
    giving one fixed summation order per system size: a system's moments
    have the same bits alone and in a batch.
    """

    __slots__ = ("states", "_moments")

    def __init__(self, states):
        states = np.ascontiguousarray(states, dtype=np.float64)
        if states.ndim not in (2, 3):
            raise ValueError(f"states have shape {states.shape}, expected (N, d) or (B, N, d)")
        states.flags.writeable = False  # the cached moments rely on it
        self.states = states
        self._moments = {}

    @property
    def n_particles(self) -> int:
        return self.states.shape[-2]

    @property
    def mean(self) -> np.ndarray:
        """First raw moment, shape (d,), or (B, 1, d) for a batch."""
        return self.raw_moment(1)

    def raw_moment(self, k: int):
        """Per-coordinate k-th raw moment, read-only: a (d,) vector, or
        (B, 1, d) for a batch, one row per system."""
        mom = self._moments.get(k)  # only valid orders are cached
        if mom is None:
            if k < 1 or k != int(k):
                raise ValueError("moment order must be a positive integer")
            # np.mean's own reduction and division, without its wrapper
            states = self.states
            power = int_power(states, int(k))
            mom = np.add.reduce(power, axis=-2, keepdims=states.ndim > 2) / states.shape[-2]
            mom.flags.writeable = False
            self._moments[int(k)] = mom
        return mom

    @property
    def w2sq_to_dirac0(self) -> float:
        """Squared 2-Wasserstein distance to the Dirac at the origin of one
        (N, d) system, (1/N) * sum_i |x_i|^2, the coordinate sum of the
        second raw moment."""
        return float(np.sum(self.raw_moment(2)))


def int_power(x, k: int):
    """x**k for an integer k >= 1 by square-and-multiply.

    On float64 arrays with negative entries libm ``pow`` costs ~70x a
    product; the products agree with it to a few ulp, and exactly for k = 1
    and 2.  k = 1 returns x itself.
    """
    result = None
    while True:
        if k & 1:
            result = x if result is None else result * x
        k >>= 1
        if not k:
            return result
        x = x * x


def dirac(point: float, d: int = 1) -> MeasureView:
    """Single-particle measure at (point, ..., point) in R^d (moments point^k)."""
    return MeasureView(np.full((1, d), float(point)))


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one mean-field SDE.

    drift(t, x, mu) and diffusion_col(t, x, mu, r) take x of shape (N, d),
    or (B, N, d) for B particle systems, and return the same shape; r is
    1-based and at most m.  A functional of the measure mu reduces axis -2,
    as MeasureView.raw_moment does.  initial_sampler(stream) returns the
    (N, d) initial states of one system from the deterministic draw source.
    The optional drift_dx(t, x, mu) returns the Jacobian d b / d x with mu
    frozen, shape (N, d, d) or (B, N, d, d); the split-step Newton uses it,
    and falls back to a forward-difference Jacobian when it is None.
    """

    name: str
    d: int
    m: int
    drift: Callable
    diffusion_col: Callable
    rho: float
    initial_sampler: Callable
    params: dict = field(default_factory=dict)
    drift_dx: Callable | None = None

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError("state and Brownian dimensions must be positive")
        if self.rho < 0:
            raise ValueError("growth exponent rho must be nonnegative")


# ---------------------------------------------------------------------------
# built-in benchmark models (all scalar: d = m = 1)
# ---------------------------------------------------------------------------


def _start_at_zero(stream):
    return np.zeros(stream.shape)


def cubic_interaction_model() -> ModelSpec:
    """dX = (X - X^3 + c E[X]) dt + gamma (1 - X^2) dW with gamma = 0.5, c = 1.

    Deterministic start at 0; drift-increment growth degree 3 (rho = 1).
    """
    c, gamma = 1.0, 0.5

    def drift(t, x, mu):
        return x - x * x * x + c * mu.mean

    def drift_dx(t, x, mu):
        return (1.0 - 3.0 * (x * x))[..., None]

    def diffusion(t, x, mu, r):
        return gamma * (1.0 - x * x)

    return ModelSpec(
        name="cubic",
        d=1,
        m=1,
        drift=drift,
        diffusion_col=diffusion,
        rho=1.0,
        initial_sampler=_start_at_zero,
        params={"c": c, "gamma": gamma},
        drift_dx=drift_dx,
    )


def quintic_interaction_model() -> ModelSpec:
    """dX = (1 - X^5 + X^3 + c E[X]) dt + (gamma X^2 + 1) dW with c = 1, gamma = 0.01.

    Deterministic start at 0; drift-increment growth degree 5 (rho = 2).
    """
    c, gamma = 1.0, 0.01

    def drift(t, x, mu):
        x2 = x * x
        return 1.0 - x2 * x2 * x + x2 * x + c * mu.mean

    def drift_dx(t, x, mu):
        x2 = x * x
        return (-5.0 * (x2 * x2) + 3.0 * x2)[..., None]

    def diffusion(t, x, mu, r):
        return gamma * (x * x) + 1.0

    return ModelSpec(
        name="quintic",
        d=1,
        m=1,
        drift=drift,
        diffusion_col=diffusion,
        rho=2.0,
        initial_sampler=_start_at_zero,
        params={"c": c, "gamma": gamma},
        drift_dx=drift_dx,
    )


def double_well_model(mu0: float = 0.0, sigma0sq: float = 1.0) -> ModelSpec:
    """Double-well mean-field model with linear multiplicative noise.

    dX = (-(5/4) X^3 + 3 X^2 E[X] - 3 X E[X^2] + E[X^3]) dt + X dW,
    X_0 ~ Normal(mu0, sigma0sq).  The two standard settings are (0, 1) and
    (3, 9).
    """
    if sigma0sq < 0:
        raise ValueError("initial variance sigma0sq must be nonnegative")
    mu0 = float(mu0)
    sigma0 = float(np.sqrt(sigma0sq))

    def drift(t, x, mu):
        m1 = mu.raw_moment(1)
        m2 = mu.raw_moment(2)
        m3 = mu.raw_moment(3)
        x2 = x * x
        return -1.25 * (x2 * x) + 3.0 * x2 * m1 - 3.0 * x * m2 + m3

    def drift_dx(t, x, mu):
        m1 = mu.raw_moment(1)
        m2 = mu.raw_moment(2)
        return (-3.75 * (x * x) + 6.0 * x * m1 - 3.0 * m2)[..., None]

    def diffusion(t, x, mu, r):
        return x.copy()

    def init(stream):
        return mu0 + sigma0 * stream.normals()

    return ModelSpec(
        name="doublewell",
        d=1,
        m=1,
        drift=drift,
        diffusion_col=diffusion,
        rho=1.0,
        initial_sampler=init,
        params={"mu0": mu0, "sigma0sq": float(sigma0sq)},
        drift_dx=drift_dx,
    )


BUILTIN_MODELS = {
    "cubic": cubic_interaction_model,
    "quintic": quintic_interaction_model,
    "doublewell": double_well_model,
}


def make_model(name: str, **params) -> ModelSpec:
    """Construct a registered model by its config-file name."""
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_MODELS))
        raise ValueError(f"unknown model '{name}' (available: {known})") from None
    return factory(**params)


def register_model(name: str, factory: Callable, overwrite: bool = False):
    """Register a user model factory under a config-file name.

    The factory takes keyword parameters and returns a ModelSpec.  Built-in
    names cannot be replaced unless overwrite is set.
    """
    if name in BUILTIN_MODELS and not overwrite:
        raise ValueError(f"model name '{name}' is already registered")
    BUILTIN_MODELS[name] = factory
