"""Numerical certification of the structural assumptions behind the schemes.

Every check is a sampled refutation test, not a proof: a pass certifies "no
violation on the documented grid".  The grids probe both asymptotic regimes
of each inequality (coefficient magnitudes log-spaced far beyond the h^-2
caps, step sizes down to 2^-20, mean-field measures of varying spread).
Violations are normalized by (1 + right-hand side) so reports are comparable
across assumptions with wildly different scales, and the worst witness is
kept with deterministic (lexicographic) tie-breaking.

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
from .taming import TamingOperator, _t1_raw, _t2_raw

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


class _Worst:
    """Tracks the largest normalized violation with a deterministic witness."""

    def __init__(self):
        self.value = -np.inf
        self.witness = {}
        self.count = 0

    def update(self, lhs, rhs, **inputs):
        self.count += 1
        v = (lhs - rhs) / (1.0 + abs(rhs))
        if v > self.value:
            self.value = float(v)
            self.witness = {"lhs": float(lhs), "rhs": float(rhs), **inputs}


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


def _subject_name(op: TamingOperator) -> str:
    parts = [op.kind]
    if op.lam is not None:
        parts.append(f"lambda={op.lam:g}")
    if op.alpha is not None:
        parts.append(f"alpha={op.alpha:g}")
    if op.rho is not None:
        parts.append(f"rho={op.rho:g}")
    return parts[0] if len(parts) == 1 else f"{parts[0]}({', '.join(parts[1:])})"


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

    worst = _Worst()
    x_zero = np.zeros(spec.dim)
    x_probes = [x_zero, np.full(spec.dim, 1.0), np.full(spec.dim, 1e3)]
    for h in spec.h_values():
        for mag in _magnitude_grid(spec, h):
            for u in dirs:
                v = mag * u
                nv = float(np.linalg.norm(v))
                for x in x_probes if op.kind == "fully_tamed" else [x_zero]:
                    t1 = _t1_raw(op, v, x, h)
                    t2 = _t2_raw(op, v, x, h)
                    inputs = {"h": h, "|v|": nv}
                    if op.kind == "fully_tamed":
                        inputs["|x|"] = float(np.linalg.norm(x))
                    if assumption == "H1":
                        worst.update(
                            float(np.linalg.norm(t1)), min(L * h**-2, nv), part="T1", **inputs
                        )
                        worst.update(
                            float(np.linalg.norm(t2)), min(L * h**-1.5, nv), part="T2", **inputs
                        )
                    else:  # H2, and H3 adds the T2 bound
                        worst.update(
                            float(np.linalg.norm(t1 - v)), L * h**r1 * nv**r2, part="T1", **inputs
                        )
                        if assumption == "H3":
                            bound = L * h**r3 * nv**r2
                            worst.update(float(np.linalg.norm(t2 - v)), bound, part="T2", **inputs)
    return AssumptionReport(
        assumption_id=assumption,
        subject=_subject_name(op),
        tested_constants=tested,
        samples=worst.count,
        max_violation=worst.value,
        witness=worst.witness,
    )


def _check_ex35(op, constants, spec, model, rng):
    if model is None:
        raise ValueError("EX35_BOUND needs a model supplying the drift")
    measures = _synthetic_measures(spec, rng, model.d)
    sweep = [float(constants["L"])] if "L" in constants else _L_SWEEP
    best = None
    for L in sweep:
        worst = _Worst()
        for h in spec.h_values():
            for mag in _magnitude_grid(spec, h):
                for sgn in (1.0, -1.0):
                    x = np.full((1, model.d), sgn * mag)
                    for mu in measures:
                        with np.errstate(all="ignore"):
                            b = np.asarray(model.drift(0.0, x, mu), dtype=np.float64)
                        nb = float(np.linalg.norm(b))
                        if not np.isfinite(nb):
                            continue  # outside double range; bound is void there
                        w2 = np.sqrt(mu.w2sq_to_dirac0)
                        lhs = float(np.linalg.norm(_t1_raw(op, b, x, h)))
                        rhs = min(L * h**-0.25 * (1.0 + mag) + w2, nb)
                        worst.update(lhs, rhs, h=h, **{"|x|": mag, "W2": float(w2)})
        best = worst
        if worst.value <= 0:
            break
    return AssumptionReport(
        assumption_id="EX35_BOUND",
        subject=f"{_subject_name(op)}|{model.name}",
        tested_constants={"L": L},
        samples=best.count,
        max_violation=best.value,
        witness=best.witness,
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

    pairs = []
    for scale in spec.pair_scales:
        block = scale * rng.standard_normal((spec.n_pairs, 2, model.d))
        pairs.extend((block[i, 0], block[i, 1]) for i in range(spec.n_pairs))
    measures = _synthetic_measures(spec, rng, model.d)
    mpairs = [(mu, nu) for mu in measures for nu in measures]

    def w2_measures(mu, nu):
        if model.d == 1:
            return w2_1d_quantile(mu.particles, nu.particles)
        if mu.n_particles == nu.n_particles:
            return rmse(mu.particles, nu.particles)
        return float(np.sqrt(mu.w2sq_to_dirac0) + np.sqrt(nu.w2sq_to_dirac0))

    sweep = [float(constants["L"])] if "L" in constants else _L_SWEEP
    best = None
    chosen = None
    for L in sweep:
        worst = _Worst()
        with np.errstate(all="ignore"):
            if assumption == "A2":
                for mu in measures:
                    w2sq = mu.w2sq_to_dirac0
                    for x, _ in pairs:
                        xb = x[None, :]
                        b = model.drift(0.0, xb, mu)[0]
                        s2 = sum(
                            float(np.sum(model.diffusion_col(0.0, xb, mu, r)[0] ** 2))
                            for r in range(1, model.m + 1)
                        )
                        lhs = 2.0 * float(x @ b) + (2.0 * p0 - 1.0) * s2
                        rhs = L * (1.0 + float(x @ x) + w2sq)
                        worst.update(lhs, rhs, x=float(np.linalg.norm(x)))
            elif assumption in ("A3", "A5"):
                weight = 1.0 if assumption == "A3" else 2.0 * p1 - 1.0
                for mu, nu in mpairs:
                    w2sq = w2_measures(mu, nu) ** 2
                    for x, y in pairs:
                        xb, yb = x[None, :], y[None, :]
                        bdiff = model.drift(0.0, xb, mu)[0] - model.drift(0.0, yb, nu)[0]
                        sdiff = sum(
                            float(
                                np.sum(
                                    (
                                        model.diffusion_col(0.0, xb, mu, r)[0]
                                        - model.diffusion_col(0.0, yb, nu, r)[0]
                                    )
                                    ** 2
                                )
                            )
                            for r in range(1, model.m + 1)
                        )
                        lhs = 2.0 * float((x - y) @ bdiff) + weight * sdiff
                        rhs = L * (float(np.sum((x - y) ** 2)) + w2sq)
                        worst.update(
                            lhs, rhs, x=float(np.linalg.norm(x)), y=float(np.linalg.norm(y))
                        )
            else:  # A6
                for mu, nu in mpairs:
                    w2 = w2_measures(mu, nu)
                    for x, y in pairs:
                        xb, yb = x[None, :], y[None, :]
                        bdiff = model.drift(0.0, xb, mu)[0] - model.drift(0.0, yb, nu)[0]
                        nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
                        lhs = float(np.linalg.norm(bdiff))
                        rhs = L * (
                            (1.0 + nx ** (2 * rho) + ny ** (2 * rho))
                            * float(np.linalg.norm(x - y))
                        ) + L * w2
                        worst.update(lhs, rhs, x=nx, y=ny)
        best, chosen = worst, L
        if worst.value <= 0:
            break

    tested = {"L": chosen}
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
        samples=best.count,
        max_violation=best.value,
        witness=best.witness,
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
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if g(lo) * g(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
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
        hit = None
        for i, r in enumerate(roots):
            if i not in used and abs(r - e) <= tol:
                hit = i
                break
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
