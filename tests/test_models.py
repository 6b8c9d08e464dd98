import numpy as np
import pytest

from mvsde import (
    InitStream,
    MeasureView,
    cubic_interaction_model,
    dirac,
    double_well_model,
    make_model,
    quintic_interaction_model,
)
from mvsde.models import int_power
from mvsde.stats import w2_1d_quantile


def measure_with_mean(value):
    # two-point measure centred so that E[X] = value
    return MeasureView(np.array([[value - 0.5], [value + 0.5]]))


class TestCubic:
    def test_drift_at_origin(self):
        m = cubic_interaction_model()
        assert m.drift(0.0, np.array([0.0])[None, :], dirac(0.0))[0][0] == 0.0

    def test_drift_formula(self):
        m = cubic_interaction_model()
        # x - x^3 + E[X] at x=2, E[X]=1: 2 - 8 + 1
        out = m.drift(0.0, np.array([2.0])[None, :], measure_with_mean(1.0))[0]
        assert out[0] == pytest.approx(-5.0)

    def test_diffusion_vanishes_at_one(self):
        m = cubic_interaction_model()
        out = m.diffusion_col(0.0, np.array([1.0])[None, :], dirac(3.0), 1)[0]
        assert out[0] == 0.0

    def test_initial_law_is_point_mass_at_zero(self):
        m = cubic_interaction_model()
        x0 = m.initial_sampler(InitStream(1, 8, 1))
        assert np.array_equal(x0, np.zeros((8, 1)))
        assert m.rho == 1.0


class TestQuintic:
    def test_drift_values(self):
        m = quintic_interaction_model()
        assert m.drift(0.0, np.array([0.0])[None, :], dirac(0.0))[0][0] == 1.0
        # 1 - 1 + 1 + 0 at x=1, E[X]=0
        assert m.drift(0.0, np.array([1.0])[None, :], measure_with_mean(0.0))[0][0] == 1.0

    def test_diffusion_at_origin(self):
        m = quintic_interaction_model()
        assert m.diffusion_col(0.0, np.array([0.0])[None, :], dirac(0.0), 1)[0][0] == 1.0
        assert m.rho == 2.0


class TestDoubleWell:
    def test_drift_at_dirac_zero(self):
        m = double_well_model()
        assert m.drift(0.0, np.array([0.0])[None, :], dirac(0.0))[0][0] == 0.0

    def test_drift_at_dirac_two(self):
        m = double_well_model()
        # -(5/4)*8 + 3*4*2 - 3*2*4 + 8 = -10 + 24 - 24 + 8
        out = m.drift(0.0, np.array([2.0])[None, :], dirac(2.0))[0]
        assert out[0] == pytest.approx(-2.0)

    def test_drift_with_stable_state_moments(self):
        m = double_well_model()
        mu = dirac(2.0)
        assert mu.raw_moment(1, 0) == 2.0
        assert mu.raw_moment(2, 0) == 4.0
        assert mu.raw_moment(3, 0) == 8.0
        assert m.drift(0.0, np.array([2.0])[None, :], mu)[0][0] == pytest.approx(-2.0)

    def test_initial_law(self):
        m = double_well_model(mu0=3.0, sigma0sq=9.0)
        x0 = m.initial_sampler(InitStream(5, 20_000, 1))
        assert abs(x0.mean() - 3.0) < 0.1
        assert abs(x0.var() - 9.0) < 0.3

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            double_well_model(mu0=0.0, sigma0sq=-1.0)


def test_registry_names():
    assert make_model("cubic").name == "cubic"
    assert make_model("quintic").name == "quintic"
    assert make_model("doublewell", mu0=3, sigma0sq=9).params["mu0"] == 3.0
    with pytest.raises(ValueError):
        make_model("nope")


def test_coefficients_are_pure():
    m = double_well_model()
    x = np.array([[0.3], [-1.2], [2.5]])
    mu = MeasureView(x)
    a = m.drift(0.0, x, mu)
    b = m.drift(0.0, x, mu)
    assert np.array_equal(a, b)
    sa = m.diffusion_col(0.0, x, mu, 1)
    sb = m.diffusion_col(0.0, x, mu, 1)
    assert np.array_equal(sa, sb)


class TestMeasureView:
    def test_mean_equals_first_raw_moment(self):
        rng = np.random.default_rng(0)
        mu = MeasureView(rng.standard_normal((50, 3)))
        assert np.array_equal(mu.mean, mu.raw_moment(1))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (100, 1), (7, 2)])
    def test_moments_bitwise_equal_to_np_mean(self, shape):
        rng = np.random.default_rng(sum(shape))
        states = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        blocks = [states]
        if shape[0] > 1:  # rows with NaN and +-inf
            special = states.copy()
            special[0, 0] = np.nan
            special[-1, -1] = np.inf
            blocks.append(special)
            special = states.copy()
            special[1, 0] = -np.inf
            blocks.append(special)
        else:
            blocks += [np.full(shape, np.nan), np.full(shape, np.inf), np.full(shape, -np.inf)]
        for block in blocks:
            mu = MeasureView(block.copy())
            assert mu.mean.tobytes() == np.mean(block, axis=0).tobytes()
            for k in (1, 2, 3, 4):
                expected = np.mean(int_power(block, k), axis=0)
                assert mu.raw_moment(k).tobytes() == expected.tobytes()

    def test_w2sq_to_dirac0_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            states = rng.standard_normal((17, 2)) * rng.uniform(0.1, 10)
            mu = MeasureView(states)
            direct = np.mean(np.sum(states**2, axis=1))
            assert mu.w2sq_to_dirac0 == pytest.approx(direct, rel=1e-12)
            by_moments = float(np.sum(mu.raw_moment(2)))
            assert mu.w2sq_to_dirac0 == pytest.approx(by_moments, rel=1e-12)

    def test_particles_read_only(self):
        mu = MeasureView(np.zeros((4, 1)))
        with pytest.raises(ValueError):
            mu.states[0, 0] = 1.0


def test_one_sided_condition_admits_finite_sampled_constant():
    # (A3)-style report: the sampled ratio lhs / (|x-y|^2 + W2^2) is finite
    # for every builtin model; the constant is reported, not pinned
    rng = np.random.default_rng(7)
    for factory in (cubic_interaction_model, quintic_interaction_model, double_well_model):
        model = factory()
        worst = 0.0
        for _ in range(200):
            x, y = rng.standard_normal(2) * rng.uniform(0.1, 5.0)
            pa = rng.standard_normal((6, 1))
            pb = rng.standard_normal((6, 1))
            mu, nu = MeasureView(pa), MeasureView(pb)
            bx = model.drift(0.0, np.array([[x]]), mu)[0, 0]
            by = model.drift(0.0, np.array([[y]]), nu)[0, 0]
            sx = model.diffusion_col(0.0, np.array([[x]]), mu, 1)[0, 0]
            sy = model.diffusion_col(0.0, np.array([[y]]), nu, 1)[0, 0]
            lhs = 2 * (x - y) * (bx - by) + (sx - sy) ** 2
            w2 = w2_1d_quantile(pa, pb)
            denom = (x - y) ** 2 + w2**2
            if denom > 1e-12:
                worst = max(worst, lhs / denom)
        assert np.isfinite(worst)


def test_growth_bound_with_module_computed_constant():
    # K is fitted on a coarse grid, then the bound must also hold on a
    # finer/wider probe grid (growth condition for b)
    for factory, rho in ((cubic_interaction_model, 1.0), (quintic_interaction_model, 2.0)):
        model = factory()
        mu = MeasureView(np.array([[0.5], [-1.0], [2.0]]))
        w2 = np.sqrt(mu.w2sq_to_dirac0)

        def envelope(x):
            return 1.0 + abs(x) ** (2 * rho + 1) + w2

        train = np.geomspace(1e-2, 1e4, 40)
        train = np.concatenate([-train[::-1], [0.0], train])
        k_fit = max(
            abs(model.drift(0.0, np.array([[x]]), mu)[0, 0]) / envelope(x) for x in train
        )
        probe = np.geomspace(1e-3, 1e5, 173)
        probe = np.concatenate([-probe[::-1], probe])
        for x in probe:
            b = abs(model.drift(0.0, np.array([[x]]), mu)[0, 0])
            assert b <= 1.05 * k_fit * envelope(x)


BUILTIN_FACTORIES = {
    "cubic": cubic_interaction_model,
    "quintic": quintic_interaction_model,
    "doublewell": lambda: double_well_model(mu0=3.0, sigma0sq=9.0),
}


def _state_and_measure(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, (200, 1))
    return x, MeasureView(1.0 + rng.standard_normal((50, 1)))


@pytest.mark.parametrize("name", sorted(BUILTIN_FACTORIES))
def test_drift_dx_matches_central_difference(name):
    model = BUILTIN_FACTORIES[name]()
    x, mu = _state_and_measure(11)
    step = 1e-5 * (1.0 + np.abs(x))
    central = (model.drift(0.0, x + step, mu) - model.drift(0.0, x - step, mu)) / (2.0 * step)
    jac = model.drift_dx(0.0, x, mu)
    assert jac.shape == (200, 1, 1)
    np.testing.assert_allclose(jac[:, :, 0], central, rtol=1e-6, atol=1e-6)


def _pow_drift(name, x, mu):
    # the drifts as written with libm pow before they became products, and
    # the sum of their terms' magnitudes
    ax = np.abs(x)
    if name == "cubic":
        return x - x**3 + mu.mean, ax + ax**3 + np.abs(mu.mean)
    if name == "quintic":
        return 1.0 - x**5 + x**3 + mu.mean, 1.0 + ax**5 + ax**3 + np.abs(mu.mean)
    m1, m2, m3 = (np.mean(mu.states**k, axis=0) for k in (1, 2, 3))
    drift = -1.25 * x**3 + 3.0 * x**2 * m1 - 3.0 * x * m2 + m3
    return drift, 1.25 * ax**3 + 3.0 * ax**2 * abs(m1) + 3.0 * ax * m2 + abs(m3)


@pytest.mark.parametrize("name", sorted(BUILTIN_FACTORIES))
def test_product_drifts_match_pow_formulas(name):
    model = BUILTIN_FACTORIES[name]()
    x, mu = _state_and_measure(12)
    old, scale = _pow_drift(name, x, mu)
    # relative to the largest term, since the terms cancel near the roots
    assert np.all(np.abs(model.drift(0.0, x, mu) - old) <= 1e-14 * scale)


def test_raw_moment_products_match_pow():
    rng = np.random.default_rng(13)
    states = rng.standard_normal((1000, 2)) * np.array([0.5, 3.0])
    mu = MeasureView(states)
    for k in range(1, 6):
        old = np.mean(states**k, axis=0)
        if k <= 2:
            assert np.array_equal(mu.raw_moment(k), old)
        else:
            tol = 1e-14 * np.mean(np.abs(states) ** k, axis=0)
            assert np.all(np.abs(mu.raw_moment(k) - old) <= tol)
    assert np.array_equal(mu.raw_moment(3.0), mu.raw_moment(3))
    for bad in (0, 2.5):
        with pytest.raises(ValueError):
            mu.raw_moment(bad)
