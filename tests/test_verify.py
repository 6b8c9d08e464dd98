import dataclasses
import math

import numpy as np
import pytest

from mvsde import (
    ModelSpec,
    SampleSpec,
    TheoryConstants,
    check_model,
    check_taming,
    compare_equilibria,
    compute_G,
    cubic_interaction_model,
    double_well_model,
    doublewell_equilibria_oracle,
    quintic_interaction_model,
)
from mvsde.models import dirac
from mvsde.stats import rmse, w2_1d_quantile
from mvsde.taming import (
    _t1_raw,
    _t2_raw,
    fully_tamed,
    identity,
    modified,
    parse_taming,
    sin_op,
    tanh_op,
)
from mvsde.verify import (
    _L_SWEEP,
    _magnitude_grid,
    _synthetic_measures,
    _worst,
)

FAST = SampleSpec(h_exponents=tuple(range(1, 21, 2)), n_magnitudes=11)


def planar_model():
    """A d = 2, m = 2 user model, row-wise like the built-ins."""

    def drift(t, x, mu):
        return x - x * x * x + 0.5 * x[:, ::-1] + mu.mean

    def diffusion(t, x, mu, r):
        return 0.3 * (1.0 - x * x) if r == 1 else 0.2 * x[:, ::-1] + 0.1

    return ModelSpec(
        name="planar",
        d=2,
        m=2,
        drift=drift,
        diffusion_col=diffusion,
        rho=1.0,
        initial_sampler=lambda stream: np.zeros(stream.shape),
    )


# ---------------------------------------------------------------------------
# Reference: the per-sample loop form the array checks replaced, with its
# running maximum.  Its np.linalg.norm and `@` run through BLAS dot, which may
# fuse multiply-adds for d > 1; with one element both are exact, so d = 1
# samples use them as written and d > 1 samples the sum of products.
# ---------------------------------------------------------------------------


def _norm1(v):
    v = np.ravel(v)
    return float(np.linalg.norm(v)) if v.size == 1 else float(np.sqrt(np.sum(v * v)))


def _dot1(a, b):
    a, b = np.ravel(a), np.ravel(b)
    return float(a @ b) if a.size == 1 else float(np.sum(a * b))


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


def _loop_check_taming(op, assumption, constants, spec, model=None):
    rng = np.random.default_rng(spec.seed)
    dirs = spec.directions(rng)
    if assumption == "EX35_BOUND":
        return _loop_check_ex35(op, constants, spec, model, rng)
    L = float(constants.get("L", 1.0))
    declared = op.declared_h3 or (0.5, 2.0, 0.5)
    r1 = float(constants.get("r1", declared[0]))
    r2 = float(constants.get("r2", declared[1]))
    r3 = float(constants.get("r3", declared[2]))
    worst = _Worst()
    x_zero = np.zeros(spec.dim)
    x_probes = [x_zero, np.full(spec.dim, 1.0), np.full(spec.dim, 1e3)]
    for h in spec.h_values():
        for mag in _magnitude_grid(spec, h):
            for u in dirs:
                v = mag * u
                nv = _norm1(v)
                for x in x_probes if op.kind == "fully_tamed" else [x_zero]:
                    t1 = _t1_raw(op, v, x, h)
                    t2 = _t2_raw(op, v, x, h)
                    inputs = {"h": h, "|v|": nv}
                    if op.kind == "fully_tamed":
                        inputs["|x|"] = _norm1(x)
                    if assumption == "H1":
                        worst.update(_norm1(t1), min(L * h**-2, nv), part="T1", **inputs)
                        worst.update(_norm1(t2), min(L * h**-1.5, nv), part="T2", **inputs)
                    else:
                        worst.update(_norm1(t1 - v), L * h**r1 * nv**r2, part="T1", **inputs)
                        if assumption == "H3":
                            bound = L * h**r3 * nv**r2
                            worst.update(_norm1(t2 - v), bound, part="T2", **inputs)
    return worst.value, worst.witness, worst.count, L


def _loop_check_ex35(op, constants, spec, model, rng):
    measures = _synthetic_measures(spec, rng, model.d)
    sweep = [float(constants["L"])] if "L" in constants else _L_SWEEP
    for L in sweep:
        worst = _Worst()
        for h in spec.h_values():
            for mag in _magnitude_grid(spec, h):
                for sgn in (1.0, -1.0):
                    x = np.full((1, model.d), sgn * mag)
                    for mu in measures:
                        with np.errstate(all="ignore"):
                            b = np.asarray(model.drift(0.0, x, mu), dtype=np.float64)
                        nb = _norm1(b)
                        if not np.isfinite(nb):
                            continue
                        w2 = np.sqrt(mu.w2sq_to_dirac0)
                        lhs = _norm1(_t1_raw(op, b, x, h))
                        rhs = min(L * h**-0.25 * (1.0 + mag) + w2, nb)
                        worst.update(lhs, rhs, h=h, **{"|x|": mag, "W2": float(w2)})
        if worst.value <= 0:
            break
    return worst.value, worst.witness, worst.count, L


def _loop_check_model(model, assumption, constants, spec):
    rng = np.random.default_rng(spec.seed)
    p0 = float(constants.get("p0", 2.0))
    p1 = float(constants.get("p1", 2.0))
    rho = float(constants.get("rho", model.rho))
    pairs = []
    for scale in spec.pair_scales:
        block = scale * rng.standard_normal((spec.n_pairs, 2, model.d))
        pairs.extend((block[i, 0], block[i, 1]) for i in range(spec.n_pairs))
    measures = _synthetic_measures(spec, rng, model.d)
    mpairs = [(mu, nu) for mu in measures for nu in measures]

    def w2_measures(mu, nu):
        if model.d == 1:
            return w2_1d_quantile(mu.states, nu.states)
        if mu.n_particles == nu.n_particles:
            return rmse(mu.states, nu.states)
        return float(np.sqrt(mu.w2sq_to_dirac0) + np.sqrt(nu.w2sq_to_dirac0))

    def s_sq(x, mu, y=None, nu=None):
        total = 0
        for r in range(1, model.m + 1):
            col = model.diffusion_col(0.0, x[None, :], mu, r)[0]
            if y is not None:
                col = col - model.diffusion_col(0.0, y[None, :], nu, r)[0]
            total = total + float(np.sum(col**2))
        return total

    sweep = [float(constants["L"])] if "L" in constants else _L_SWEEP
    for L in sweep:
        worst = _Worst()
        with np.errstate(all="ignore"):
            if assumption == "A2":
                for mu in measures:
                    for x, _ in pairs:
                        b = model.drift(0.0, x[None, :], mu)[0]
                        lhs = 2.0 * _dot1(x, b) + (2.0 * p0 - 1.0) * s_sq(x, mu)
                        rhs = L * (1.0 + _dot1(x, x) + mu.w2sq_to_dirac0)
                        worst.update(lhs, rhs, x=_norm1(x))
            else:
                for mu, nu in mpairs:
                    w2 = w2_measures(mu, nu)
                    for x, y in pairs:
                        bdiff = model.drift(0.0, x[None, :], mu)[0] - model.drift(
                            0.0, y[None, :], nu
                        )[0]
                        nx, ny = _norm1(x), _norm1(y)
                        if assumption == "A6":
                            lhs = _norm1(bdiff)
                            rhs = L * (
                                (1.0 + nx ** (2 * rho) + ny ** (2 * rho)) * _norm1(x - y)
                            ) + L * w2
                        else:
                            weight = 1.0 if assumption == "A3" else 2.0 * p1 - 1.0
                            lhs = 2.0 * _dot1(x - y, bdiff) + weight * s_sq(x, mu, y, nu)
                            rhs = L * (float(np.sum((x - y) ** 2)) + w2**2)
                        worst.update(lhs, rhs, x=nx, y=ny)
        if worst.value <= 0:
            break
    return worst.value, worst.witness, worst.count, L


def _assert_same(rep, ref):
    value, witness, samples, L = ref
    assert rep.max_violation == value
    assert rep.witness == witness
    assert list(rep.witness) == list(witness)
    assert rep.samples == samples
    assert rep.tested_constants["L"] == L


_OP_ROWS = [
    ("fte", "H1", {"L": 1.0}, FAST),  # three state probes
    ("te(1)", "H3", {"L": 1.0}, FAST),
] + [
    (text, a, {"L": 1.0}, dataclasses.replace(FAST, dim=2))
    for text in ("identity", "dte(0.5)", "me", "te(1)", "se(1)", "fte")
    for a in ("H1", "H2", "H3")
]


@pytest.mark.parametrize("text,assumption,constants,spec", _OP_ROWS)
def test_operator_checks_match_loop_reference(text, assumption, constants, spec):
    op = parse_taming(text, model_rho=1.0)
    rep = check_taming(op, assumption, constants, spec)
    _assert_same(rep, _loop_check_taming(op, assumption, constants, spec))


def test_ex35_matches_loop_reference():
    model = quintic_interaction_model()
    op = fully_tamed(model.rho)
    rep = check_taming(op, "EX35_BOUND", None, FAST, model=model)
    _assert_same(rep, _loop_check_taming(op, "EX35_BOUND", {}, FAST, model=model))


_MODEL_ROWS = [
    (cubic_interaction_model, "A2", {}),
    (double_well_model, "A5", {}),
    (quintic_interaction_model, "A6", {"rho": 1.0}),  # a failing row
] + [(planar_model, a, {}) for a in ("A2", "A3", "A5", "A6")]


@pytest.mark.parametrize("factory,assumption,constants", _MODEL_ROWS)
def test_model_checks_match_loop_reference(factory, assumption, constants):
    model = factory()
    rep = check_model(model, assumption, constants, FAST)
    _assert_same(rep, _loop_check_model(model, assumption, constants, FAST))
    assert (model.d > 1) == ("coupled upper bound" in rep.caveat)


def _reference_worst(lhs, rhs, **inputs):
    worst = _Worst()
    for i in range(len(lhs)):
        worst.update(lhs[i], rhs[i], **{k: v[i] for k, v in inputs.items()})
    return worst.value, worst.witness


_SELECTION_CASES = {
    "tie keeps the first": ([1.0, 3.0, 3.0, 2.0], [0.0, 1.0, 1.0, 0.0]),
    "signed-zero tie keeps the first": ([1.0, 2.0, 0.0], [1.0, 2.0, 0.0]),
    "NaN never wins": ([np.nan, 1.0, 5.0, np.nan], [0.0, 0.5, np.nan, 0.0]),
    "infinite lhs wins once": ([1.0, np.inf, np.inf], [0.0, 0.0, 0.0]),
    "-inf never wins": ([-np.inf, -np.inf], [0.0, 1.0]),
    "all NaN": ([np.nan, np.nan], [0.0, np.nan]),
    "empty": ([], []),
}


@pytest.mark.parametrize("case", sorted(_SELECTION_CASES))
def test_selection_matches_running_maximum(case):
    lhs, rhs = (np.array(a, dtype=np.float64) for a in _SELECTION_CASES[case])
    tag = np.arange(len(lhs)) * 10.0
    value, witness = _worst(lhs, rhs, tag=tag)
    ref_value, ref_witness = _reference_worst(lhs, rhs, tag=tag)
    assert value == ref_value and math.copysign(1.0, value) == math.copysign(1.0, ref_value)
    assert witness == ref_witness and list(witness) == list(ref_witness)
    if case in ("all NaN", "empty", "-inf never wins"):
        assert (value, witness) == (-np.inf, {})


class TestComputeG:
    def test_frozen_examples(self):
        assert compute_G(1.0, 1.0, 3.0) == 8.0
        assert compute_G(1.0, 0.5, 2.0) == 10.0
        assert compute_G(2.0, 1.0, 1.0) == 12.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compute_G(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            compute_G(1.0, 0.0, 1.0)

    def test_monotonicity_on_grid(self):
        rhos = np.linspace(0.0, 3.0, 10)
        r1s = np.linspace(0.1, 2.0, 10)
        r2s = np.linspace(0.1, 4.0, 10)
        for r1 in r1s:
            for r2 in r2s:
                vals = [compute_G(rho, r1, r2) for rho in rhos]
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        for rho in rhos:
            for r1 in r1s:
                vals = [compute_G(rho, r1, r2) for r2 in r2s]
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
            for r2 in r2s:
                vals = [compute_G(rho, r1, r2) for r1 in r1s]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestTheoryConstants:
    def test_invariants(self):
        tc = TheoryConstants(rho=1.0, r1=0.5, r2=2.0, p_bar=30.0)
        assert tc.G >= 6.0 * tc.rho
        assert tc.G >= ((2 * tc.rho + 1) * tc.r2 - 1) / tc.r1
        assert tc.p_max_lemma == pytest.approx((2 * 30.0 - tc.G) / (2 + 4 * tc.G))


class TestCheckTaming:
    def test_h1_passes_for_modified_tanh_sin(self):
        for op in (modified(), tanh_op(1.0), sin_op(1.0)):
            rep = check_taming(op, "H1", {"L": 1.0}, FAST)
            assert rep.passed, rep

    def test_h1_fails_for_identity_with_witness(self):
        rep = check_taming(identity(), "H1", {"L": 1.0}, FAST)
        assert not rep.passed
        assert rep.witness["lhs"] > rep.witness["rhs"]
        assert rep.witness["|v|"] > rep.witness["h"] ** -2

    def test_h1_fails_for_fully_tamed(self):
        rep = check_taming(fully_tamed(1.0), "H1", {"L": 1.0}, FAST)
        assert not rep.passed
        assert rep.witness["|x|"] == 0.0  # undamped at the origin state

    def test_h2_modified_with_r2_three(self):
        rep = check_taming(modified(), "H2", {"L": 1.0, "r1": 1.0, "r2": 3.0}, FAST)
        assert rep.passed, rep

    def test_h3_passes_with_declared_exponents(self):
        for op in (modified(), tanh_op(1.0), sin_op(1.0)):
            rep = check_taming(op, "H3", {"L": 1.0}, FAST)
            assert rep.tested_constants["r1"] == 0.5
            assert rep.tested_constants["r3"] == 0.5
            assert rep.passed, rep

    def test_ex35_bound_holds_for_fully_tamed_on_builtins(self):
        for model in (cubic_interaction_model(), quintic_interaction_model()):
            op = fully_tamed(model.rho)
            rep = check_taming(op, "EX35_BOUND", None, FAST, model=model)
            assert rep.passed, rep

    def test_ex35_witness_is_the_norm_of_the_probed_state(self):
        # the probes are x = (s m, s m): |x| = sqrt(2) m, not m
        rep = check_taming(fully_tamed(1.0), "EX35_BOUND", None, FAST, model=planar_model())
        w = rep.witness
        mags = _magnitude_grid(FAST, w["h"])
        assert any(w["|x|"] == pytest.approx(math.sqrt(2.0) * m, rel=1e-15) for m in mags)

    def test_ex35_needs_model(self):
        with pytest.raises(ValueError):
            check_taming(fully_tamed(1.0), "EX35_BOUND", None, FAST)

    def test_reports_deterministic(self):
        a = check_taming(modified(), "H1", {"L": 1.0}, FAST)
        b = check_taming(modified(), "H1", {"L": 1.0}, FAST)
        assert a.max_violation == b.max_violation
        assert a.witness == b.witness
        assert a.samples == b.samples

    def test_unknown_assumption(self):
        with pytest.raises(ValueError):
            check_taming(modified(), "H9", None, FAST)


class TestCheckModel:
    def test_a6_cubic_passes_with_swept_constant(self):
        rep = check_model(cubic_interaction_model(), "A6", None, FAST)
        assert rep.passed
        assert rep.tested_constants["L"] <= 2.0**10

    def test_a6_quintic_fails_with_undersized_rho(self):
        rep = check_model(quintic_interaction_model(), "A6", {"rho": 1.0}, FAST)
        assert not rep.passed
        assert max(rep.witness["x"], rep.witness["y"]) > 10.0

    def test_a6_quintic_passes_with_its_rho(self):
        rep = check_model(quintic_interaction_model(), "A6", None, FAST)
        assert rep.passed, rep

    def test_a3_degenerate_pair_no_violation(self):
        # x = y and mu = nu: both sides vanish
        model = cubic_interaction_model()
        rep = check_model(model, "A3", None, FAST)
        assert rep.passed

    def test_a2_passes_for_builtins(self):
        for model in (cubic_interaction_model(), quintic_interaction_model()):
            rep = check_model(model, "A2", None, FAST)
            assert rep.passed, rep

    def test_a5_passes_for_builtins(self):
        for model in (cubic_interaction_model(), quintic_interaction_model()):
            rep = check_model(model, "A5", None, FAST)
            assert rep.passed, rep


def _counted_double_well(monkeypatch):
    """Make the oracle's model count its drift calls; returns the counter
    and the model."""
    model = double_well_model()
    calls = [0]

    def drift(t, x, mu):
        calls[0] += 1
        return model.drift(t, x, mu)

    counted = dataclasses.replace(model, drift=drift)
    monkeypatch.setattr("mvsde.models.double_well_model", lambda: counted)
    return calls, counted


def _oracle_re_evaluating_lo(model, scan_lo=-5.0, scan_hi=5.0, scan_step=1e-3):
    """The oracle's former bisection, which called g(lo) on every step;
    returns its roots and the number of brackets it refined."""

    def g(c):
        return float(model.drift(0.0, np.array([[c]]), dirac(c))[0, 0])

    grid = np.arange(scan_lo, scan_hi + scan_step / 2, scan_step)
    vals = np.array([g(c) for c in grid])
    roots, brackets = [], 0
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(grid[i]))
        elif a * b < 0:
            brackets += 1
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
    merged = []
    for r in sorted(roots):
        if not merged or abs(r - merged[-1]) > 10 * scan_step:
            merged.append(r)
    return merged, brackets


class TestEquilibriaOracle:
    @pytest.mark.parametrize("scan", [(-5.0, 5.0, 1e-3), (-3.0, 2.5, 0.07)])
    def test_bisection_keeps_g_lo(self, monkeypatch, scan):
        calls, model = _counted_double_well(monkeypatch)
        roots = doublewell_equilibria_oracle(*scan)
        new_calls, calls[0] = calls[0], 0
        old_roots, brackets = _oracle_re_evaluating_lo(model, *scan)
        assert brackets >= 1
        assert roots == old_roots
        assert calls[0] - new_calls == 80 * brackets

    def test_root_at_zero_found(self):
        roots = doublewell_equilibria_oracle()
        assert any(abs(r) < 1e-6 for r in roots)

    def test_roots_symmetric(self):
        roots = doublewell_equilibria_oracle()
        for r in roots:
            assert any(abs(r + s) < 1e-6 for s in roots)

    def test_comparison_against_expected_states_reports_discrepancy(self):
        # the Dirac self-consistency map of the implemented drift has a
        # single root at 0; the expected stable states -2 and 2 are NOT
        # roots of that map, and the comparison must surface this rather
        # than silently matching
        roots = doublewell_equilibria_oracle()
        report = compare_equilibria(roots, expected=(-2.0, 0.0, 2.0))
        assert 0.0 in report["matched"]
        assert report["missing_expected"] == [-2.0, 2.0]
        assert not report["consistent"]

    def test_comparison_consistent_case(self):
        report = compare_equilibria([-2.0, 0.0, 2.0])
        assert report["consistent"]
        assert report["extra_roots"] == []
