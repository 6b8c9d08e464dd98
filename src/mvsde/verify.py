"""Numerical certification of the structural assumptions behind the schemes.

Every check is a sampled refutation test, not a proof: a pass certifies "no
violation on the documented grid".  The grids probe both asymptotic regimes
of each inequality (coefficient magnitudes log-spaced far beyond the h^-2
caps, step sizes down to 2^-20, mean-field measures of varying spread).
Violations are normalized by (1 + right-hand side) so reports are comparable
across assumptions with wildly different scales.  Each check evaluates the
coefficients once on its whole sample block and reports as witness the first
sample in sweep order that reaches the largest violation.  The sweep order is
(h, magnitude, direction, state probe, T1 before T2) for H1-H3, (h,
magnitude, sign, measure) for EX35_BOUND, and (measure or measure pair,
(x, y) pair) for the model checks.  A NaN violation never wins.

Checked inequalities, with L and the exponents supplied as test inputs:

    H1         |T1(v,h)| <= min{L h^-2, |v|},  |T2(v,h)| <= min{L h^-3/2, |v|}
    H2         |T1(v,h) - v| <= L h^r1 |v|^r2
    H3         H2 plus |T2(v,h) - v| <= L h^r3 |v|^r2   (r1, r3 >= 1/2)
    EX35_BOUND |T1(b(t,x,mu),h)| <= min{L h^-1/4 (1+|x|) + W2(mu,d0), |b|}
    A2         2<x,b> + (2 p0 - 1)||s||^2 <= L (1 + |x|^2 + W2^2(mu, d0))
    A3 / A5    one-sided Lipschitz pair condition (A5 carries the 2 p1 - 1
               weight on the diffusion difference)
    A6         |b(t,x,mu)-b(t,y,nu)| <= L (1+|x|^2rho+|y|^2rho)|x-y| + L W2(mu,nu)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import MeasureView, ModelSpec, dirac
from .stats import rmse, w2_1d_quantile
from .taming import TamingOperator, _t1_raw, _t2_raw, _vec_norm

OP_ASSUMPTIONS = ("H1", "H2", "H3", "EX35_BOUND")
MODEL_ASSUMPTIONS = ("A2", "A3", "A5", "A6")

_L_SWEEP = [2.0**k for k in range(0, 11)]

# a pass tolerates rounding of the check's own evaluation: where a bound is
# mathematically tight, |T1(v) - v| computed in doubles can exceed it by an
# ulp-level amount; genuine violations sit many orders of magnitude higher
PASS_ROUNDING_TOL = 1e-12


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling grid for assumption checks."""

    seed: int = 20240801
    h_exponents: tuple = tuple(range(1, 21))  # h = 2^-e
    n_magnitudes: int = 19  # log-spaced |v| decades per h
    n_directions: int = 3  # random unit directions per magnitude
    dim: int = 1  # coefficient-space dimension for operator checks
    n_pairs: int = 48  # (x, y) pairs per scale for model checks
    pair_scales: tuple = (0.3, 1.0, 3.0, 30.0, 300.0)
    measure_size: int = 8  # particles per synthetic empirical measure
    measure_scales: tuple = (0.5, 2.0)

    def h_values(self):
        return [2.0 ** (-e) for e in self.h_exponents]

    def directions(self, rng):
        if self.dim == 1:
            return np.array([[1.0], [-1.0]])
        dirs = rng.standard_normal((self.n_directions, self.dim))
        return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@dataclass
class AssumptionReport:
    """Outcome of one sampled inequality check."""

    assumption_id: str
    subject: str
    tested_constants: dict
    samples: int
    max_violation: float  # <= 0 means no violation found
    witness: dict = field(default_factory=dict)
    caveat: str = ""

    @property
    def passed(self) -> bool:
        return self.max_violation <= PASS_ROUNDING_TOL

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.subject} / {self.assumption_id}: "
            f"max_violation={self.max_violation:.3e} over {self.samples} samples"
        )


def _worst(lhs, rhs, **inputs):
    """Largest normalized violation (lhs - rhs) / (1 + |rhs|) and its witness.

    lhs and rhs hold one entry per sample, laid out in sweep order; each input
    broadcasts against them and is reported at the winning sample.  The first
    sample in sweep order wins a tie, and a NaN violation never wins; with no
    winner the result is (-inf, {}).
    """
    with np.errstate(invalid="ignore"):
        viol = (lhs - rhs) / (1.0 + np.abs(rhs))
    viol = np.where(np.isnan(viol), -np.inf, viol)
    if not viol.size or viol.max() == -np.inf:
        return -np.inf, {}
    at = np.unravel_index(np.argmax(viol), viol.shape)
    witness = {"lhs": float(lhs[at]), "rhs": float(rhs[at])}
    for key, value in inputs.items():
        witness[key] = np.broadcast_to(value, viol.shape)[at].item()
    return float(viol[at]), witness


def _norm(v):
    """Euclidean norm along the last axis; for d = 1 it is |v| exactly."""
    return _vec_norm(v)[..., 0]


def compute_G(rho: float, r1: float, r2: float) -> float:
    """Moment-bound constant max{6 rho, ((2 rho + 1) r2 - 1) / r1}."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if r1 <= 0 or r2 <= 0:
        raise ValueError("r1 and r2 must be positive")
    return max(6.0 * rho, ((2.0 * rho + 1.0) * r2 - 1.0) / r1)


@dataclass(frozen=True)
class TheoryConstants:
    """Computable theory-side constants for a (rho, r1, r2, p_bar) choice.

    p_max_lemma is the largest moment order p for which the discrete-time
    moment bound applies, (2 p_bar - G) / (2 + 4 G).
    """

    rho: float
    r1: float
    r2: float
    p_bar: float
    G: float = 0.0
    p_max_lemma: float = 0.0

    def __post_init__(self):
        g = compute_G(self.rho, self.r1, self.r2)
        object.__setattr__(self, "G", g)
        object.__setattr__(self, "p_max_lemma", (2.0 * self.p_bar - g) / (2.0 + 4.0 * g))


def _magnitude_grid(spec: SampleSpec, h: float) -> np.ndarray:
    # probe from tiny values out past the h^-2 cap, where H1 must clip
    top = 1e6 * max(1.0, h**-2)
    return np.geomspace(1e-3, top, spec.n_magnitudes)


def _synthetic_measures(spec: SampleSpec, rng, d=1):
    out = []
    for scale in spec.measure_scales:
        pts = scale * rng.standard_normal((spec.measure_size, d))
        out.append(MeasureView(pts))
    out.append(dirac(0.0, d))
    return out


def check_taming(
    op: TamingOperator,
    assumption: str,
    constants: dict | None = None,
    sample_spec: SampleSpec | None = None,
    model: ModelSpec | None = None,
) -> AssumptionReport:
    """Sweep one operator assumption over the documented (v, x, h) grid.

    constants may supply L (default 1) and, for H2/H3, the exponents
    r1/r2/r3 (defaulting to the operator's declared triple).  EX35_BOUND
    needs a model for the drift and sweeps L when none is given.
    """
    if assumption not in OP_ASSUMPTIONS:
        raise ValueError(f"unknown operator assumption '{assumption}'")
    spec = sample_spec or SampleSpec()
    constants = dict(constants or {})
    rng = np.random.default_rng(spec.seed)
    dirs = spec.directions(rng)

    if assumption == "EX35_BOUND":
        return _check_ex35(op, constants, spec, model, rng)

    L = float(constants.get("L", 1.0))
    declared = op.declared_h3 or (0.5, 2.0, 0.5)
    r1 = float(constants.get("r1", declared[0]))
    r2 = float(constants.get("r2", declared[1]))
    r3 = float(constants.get("r3", declared[2]))
    tested = {"L": L}
    if assumption in ("H2", "H3"):
        tested.update({"r1": r1, "r2": r2})
    if assumption == "H3":
        tested["r3"] = r3

    # samples in sweep order: (h, magnitude, direction, state probe, part)
    xs = np.zeros((1, spec.dim))
    if op.kind == "fully_tamed":
        xs = np.array([np.zeros(spec.dim), np.full(spec.dim, 1.0), np.full(spec.dim, 1e3)])
    n_parts = 1 if assumption == "H2" else 2
    h_values = spec.h_values()
    lhs, rhs, nv = [], [], []
    for h in h_values:
        v = _magnitude_grid(spec, h)[:, None, None] * dirs
        v = np.broadcast_to(v[:, :, None, :], v.shape[:2] + xs.shape)
        nv.append(_norm(v))
        t1, t2 = _t1_raw(op, v, xs, h), _t2_raw(op, v, xs, h)
        if assumption == "H1":
            lhs_h = (_norm(t1), _norm(t2))
            rhs_h = (np.minimum(L * h**-2, nv[-1]), np.minimum(L * h**-1.5, nv[-1]))
        else:  # H2, and H3 adds the T2 bound
            growth = np.float_power(nv[-1], r2)
            lhs_h = (_norm(t1 - v), _norm(t2 - v))
            rhs_h = (L * h**r1 * growth, L * h**r3 * growth)
        lhs.append(np.stack(lhs_h[:n_parts], axis=-1))
        rhs.append(np.stack(rhs_h[:n_parts], axis=-1))
    inputs = {
        "part": np.array(["T1", "T2"][:n_parts]),
        "h": np.reshape(h_values, (-1, 1, 1, 1, 1)),
        "|v|": np.stack(nv)[..., None],
    }
    if op.kind == "fully_tamed":
        inputs["|x|"] = _norm(xs)[:, None]
    lhs, rhs = np.stack(lhs), np.stack(rhs)
    value, witness = _worst(lhs, rhs, **inputs)
    return AssumptionReport(
        assumption_id=assumption,
        subject=op.subject,
        tested_constants=tested,
        samples=lhs.size,
        max_violation=value,
        witness=witness,
    )


def _check_ex35(op, constants, spec, model, rng):
    if model is None:
        raise ValueError("EX35_BOUND needs a model supplying the drift")
    measures = _synthetic_measures(spec, rng, model.d)
    w2 = np.array([np.sqrt(mu.w2sq_to_dirac0) for mu in measures])
    # samples in sweep order: (h, magnitude, sign, measure); the drift does
    # not depend on L, so it is evaluated once and L sweeps the bound only
    h_values = spec.h_values()
    lhs, nb, nx = [], [], []
    for h in h_values:
        mags = _magnitude_grid(spec, h)
        x = (mags[:, None] * (1.0, -1.0)).reshape(-1, 1).repeat(model.d, axis=1)
        with np.errstate(all="ignore"):
            b = np.stack([model.drift(0.0, x, mu) for mu in measures], axis=1)
            lhs.append(_norm(_t1_raw(op, b, x[:, None, :], h)))
            nb.append(_norm(b))
        nx.append(_norm(x)[:, None])
    nb, nx = np.stack(nb), np.stack(nx)
    finite = np.isfinite(nb)  # outside double range the bound is void: drop
    lhs = np.where(finite, np.stack(lhs), np.nan)
    scale = np.reshape([h**-0.25 for h in h_values], (-1, 1, 1))
    h_col = np.reshape(h_values, (-1, 1, 1))
    sweep = [float(constants["L"])] if "L" in constants else _L_SWEEP
    for L in sweep:
        rhs = np.minimum(L * scale * (1.0 + nx) + w2, nb)
        value, witness = _worst(lhs, rhs, h=h_col, **{"|x|": nx, "W2": w2})
        if value <= 0:
            break
    return AssumptionReport(
        assumption_id="EX35_BOUND",
        subject=f"{op.subject}|{model.name}",
        tested_constants={"L": L},
        samples=int(finite.sum()),
        max_violation=value,
        witness=witness,
    )


def check_model(
    model: ModelSpec,
    assumption: str,
    constants: dict | None = None,
    sample_spec: SampleSpec | None = None,
) -> AssumptionReport:
    """Sweep one coefficient assumption over sampled states and measures.

    The candidate constant L is swept over {2^0..2^10} when not supplied;
    the report echoes the smallest sampled L that passes (or the largest
    tried, with its violation, when none does).  p0/p1 default to 2.  W2
    between the synthetic measures is exact for d = 1 models; for d > 1 the
    coupled upper bound is used and the report carries a caveat.
    """
    if assumption not in MODEL_ASSUMPTIONS:
        raise ValueError(f"unknown model assumption '{assumption}'")
    spec = sample_spec or SampleSpec()
    constants = dict(constants or {})
    rng = np.random.default_rng(spec.seed)
    p0 = float(constants.get("p0", 2.0))
    p1 = float(constants.get("p1", 2.0))
    rho = float(constants.get("rho", model.rho))

    caveat = ""
    if model.d > 1:
        caveat = "W2 between measures is the coupled upper bound (d > 1)"

    xy = np.concatenate(
        [scale * rng.standard_normal((spec.n_pairs, 2, model.d)) for scale in spec.pair_scales]
    )
    x, y = xy[:, 0], xy[:, 1]
    measures = _synthetic_measures(spec, rng, model.d)
    mpairs = [(i, j) for i in range(len(measures)) for j in range(len(measures))]

    def w2_measures(mu, nu):
        if model.d == 1:
            return w2_1d_quantile(mu.states, nu.states)
        if mu.n_particles == nu.n_particles:
            return rmse(mu.states, nu.states)
        return float(np.sqrt(mu.w2sq_to_dirac0) + np.sqrt(nu.w2sq_to_dirac0))

    def sq_norm(v):
        return np.sum(v * v, axis=-1)

    def diffusion(z, mu):
        return [model.diffusion_col(0.0, z, mu, r) for r in range(1, model.m + 1)]

    # samples in sweep order: (measure or measure pair, pair).  The
    # coefficients do not depend on L, so they are evaluated once per measure
    # and L sweeps the right-hand side only: the sum of L * each rhs term
    nx, ny = _norm(x), _norm(y)
    with np.errstate(all="ignore"):
        bx = [model.drift(0.0, x, mu) for mu in measures]
        if assumption == "A2":
            inputs = {"x": nx}
            lhs = [
                2.0 * np.sum(x * b, axis=-1)
                + (2.0 * p0 - 1.0) * sum(sq_norm(s) for s in diffusion(x, mu))
                for b, mu in zip(bx, measures)
            ]
            rhs_terms = [np.stack([1.0 + sq_norm(x) + mu.w2sq_to_dirac0 for mu in measures])]
        else:
            inputs = {"x": nx, "y": ny}
            by = [model.drift(0.0, y, nu) for nu in measures]
            w2 = [w2_measures(measures[i], measures[j]) for i, j in mpairs]
            bdiff = [bx[i] - by[j] for i, j in mpairs]
            if assumption == "A6":
                lhs = [_norm(d) for d in bdiff]
                growth = 1.0 + np.float_power(nx, 2 * rho) + np.float_power(ny, 2 * rho)
                rhs_terms = [growth * _norm(x - y), np.reshape(w2, (-1, 1))]
            else:  # A3 / A5
                weight = 1.0 if assumption == "A3" else 2.0 * p1 - 1.0
                sx = [diffusion(x, mu) for mu in measures]
                sy = [diffusion(y, nu) for nu in measures]
                lhs = [
                    2.0 * np.sum((x - y) * d, axis=-1)
                    + weight * sum(sq_norm(a - c) for a, c in zip(sx[i], sy[j]))
                    for (i, j), d in zip(mpairs, bdiff)
                ]
                rhs_terms = [sq_norm(x - y) + np.reshape([w**2 for w in w2], (-1, 1))]
    lhs = np.stack(lhs)
    sweep = [float(constants["L"])] if "L" in constants else _L_SWEEP
    for L in sweep:
        rhs = sum(L * term for term in rhs_terms)
        value, witness = _worst(lhs, rhs, **inputs)
        if value <= 0:
            break

    tested = {"L": L}
    if assumption == "A2":
        tested["p0"] = p0
    if assumption == "A5":
        tested["p1"] = p1
    if assumption == "A6":
        tested["rho"] = rho
    return AssumptionReport(
        assumption_id=assumption,
        subject=model.name,
        tested_constants=tested,
        samples=lhs.size,
        max_violation=value,
        witness=witness,
        caveat=caveat,
    )


def doublewell_equilibria_oracle(scan_lo=-5.0, scan_hi=5.0, scan_step=1e-3):
    """Roots of the Dirac self-consistency map of the double-well drift.

    Scans c -> b(0, c, delta_c) on [scan_lo, scan_hi] with a dense grid and
    refines each sign change by bisection; no analytic simplification of the
    implemented drift is assumed.  Use compare_equilibria to report the root
    set against externally expected stable states.
    """
    from .models import double_well_model

    model = double_well_model()

    def g(c):
        return float(model.drift(0.0, np.array([[c]]), dirac(c))[0, 0])

    grid = np.arange(scan_lo, scan_hi + scan_step / 2, scan_step)
    vals = np.array([g(c) for c in grid])
    roots = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(grid[i]))
        elif a * b < 0:
            lo, hi = float(grid[i]), float(grid[i + 1])
            g_lo = a  # g(lo), kept until lo moves
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                g_mid = g(mid)
                if g_lo * g_mid <= 0:
                    hi = mid
                else:
                    lo, g_lo = mid, g_mid
            roots.append(0.5 * (lo + hi))
    if len(vals) and vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    # collapse near-duplicates from adjacent brackets
    merged = []
    for r in sorted(roots):
        if not merged or abs(r - merged[-1]) > 10 * scan_step:
            merged.append(r)
    return merged


def compare_equilibria(roots, expected=(-2.0, 0.0, 2.0), tol=1e-6) -> dict:
    """Match an oracle root set against expected stable states.

    Discrepancies are reported, never silently reconciled: the result lists
    matched states, expected states with no root nearby, and surplus roots.
    """
    roots = list(roots)
    matched, missing = [], []
    used = set()
    for e in expected:
        hit = next((i for i, r in enumerate(roots) if i not in used and abs(r - e) <= tol), None)
        if hit is None:
            missing.append(float(e))
        else:
            used.add(hit)
            matched.append(float(e))
    extra = [float(r) for i, r in enumerate(roots) if i not in used]
    return {
        "matched": matched,
        "missing_expected": missing,
        "extra_roots": extra,
        "consistent": not missing and not extra,
    }
