import math
import weakref

import numpy as np
import pytest

from mvsde import brownian, experiments, models
from mvsde.config import ExperimentConfig, build_scheme
from mvsde.errors import ConfigError
from mvsde.experiments import (
    fit_loglog,
    run_convergence,
    run_density,
    run_moments,
    run_nscaling,
    run_paths,
)
from mvsde.stats import w2_1d_quantile
from mvsde.stepper import simulate


@pytest.fixture
def grid_calls(monkeypatch):
    """Records the (seed, n, T, N, m) of every grid a study draws."""
    calls = []
    generate = experiments.brownian.generate

    def counted(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(experiments.brownian, "generate", counted)
    return calls


@pytest.fixture
def oscillating_cubic_decay():
    """b = -x^3, sigma = 0, X0 = 3: explicit Euler diverges iff h x^2 > 2,
    so h = 0.25 oscillates to overflow while finer steps decay to 0."""

    def build():
        return models.ModelSpec(
            name="cubicdecay",
            d=1,
            m=1,
            drift=lambda t, x, mu: -(x**3),
            diffusion_col=lambda t, x, mu, r: np.zeros_like(x),
            rho=1.0,
            initial_sampler=lambda s: np.full(s.shape, 3.0),
        )

    models.BUILTIN_MODELS["cubicdecay"] = build
    yield "cubicdecay"
    del models.BUILTIN_MODELS["cubicdecay"]


def test_fit_loglog_recovers_exact_power():
    hs = [2.0**-k for k in range(3, 9)]
    ys = [5.0 * h**0.5 for h in hs]
    slope, intercept, r2 = fit_loglog(hs, ys)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log2(5.0), abs=1e-12)
    assert r2 == pytest.approx(1.0)
    # converge and nscaling fit only three or more usable rows
    assert all(math.isnan(v) for v in fit_loglog(hs[:2], ys[:2]))


class TestConvergence:
    def small_cfg(self, **kw):
        base = dict(
            model_name="cubic",
            schemes=["me"],
            T=1.0,
            N=16,
            seed=5,
            h_ref=2.0**-8,
            h_list=[2.0**-4, 2.0**-5, 2.0**-6],
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_self_comparison_is_exactly_zero(self):
        cfg = self.small_cfg(h_list=[2.0**-8], schemes=["me", "te(1)", "ssm"])
        for rep in run_convergence(cfg):
            assert rep.rows[0].rmse == 0.0

    def test_rows_sorted_descending_h(self):
        rep = run_convergence(self.small_cfg())[0]
        hs = [r.h for r in rep.rows]
        assert hs == sorted(hs, reverse=True)

    def test_deterministic_across_runs(self):
        cfg = self.small_cfg(schemes=["me", "se(1)"])
        a = run_convergence(cfg)
        b = run_convergence(cfg)
        for ra, rb in zip(a, b):
            assert ra.scheme == rb.scheme
            assert [r.rmse for r in ra.rows] == [r.rmse for r in rb.rows]
            assert ra.slope == rb.slope

    def test_requires_grid_invariants(self):
        with pytest.raises(ConfigError):
            run_convergence(self.small_cfg(h_list=[0.3]))  # 0.3 / 2^-8 not integral
        with pytest.raises(ConfigError):
            run_convergence(self.small_cfg(h_ref=0.3))  # T / 0.3 not integral
        with pytest.raises(ConfigError):
            run_convergence(self.small_cfg(h_ref=None))

    def test_diverged_rows_flagged_and_others_unchanged(self, oscillating_cubic_decay):
        cfg = ExperimentConfig(
            model_name=oscillating_cubic_decay,
            schemes=["identity"],
            T=2.0,
            N=4,
            seed=3,
            h_ref=2.0**-6,
            h_list=[0.25, 2.0**-4, 2.0**-5],
        )
        rep = run_convergence(cfg)[0]
        assert rep.rows[0].diverged and math.isnan(rep.rows[0].rmse)
        assert not rep.rows[1].diverged and not rep.rows[2].diverged
        # excluding the diverged row does not change the remaining rows
        cfg2 = ExperimentConfig(
            model_name=oscillating_cubic_decay,
            schemes=["identity"],
            T=2.0,
            N=4,
            seed=3,
            h_ref=2.0**-6,
            h_list=[2.0**-4, 2.0**-5],
        )
        rep2 = run_convergence(cfg2)[0]
        assert [r.rmse for r in rep.rows[1:]] == [r.rmse for r in rep2.rows]
        # fewer than 3 usable points leaves the fit undefined
        assert rep2.n_fit == 2 and math.isnan(rep2.slope)

    def test_deterministic_drift_first_order(self):
        def build():
            return models.ModelSpec(
                name="lindecay",
                d=1,
                m=1,
                drift=lambda t, x, mu: -x,
                diffusion_col=lambda t, x, mu, r: np.zeros_like(x),
                rho=0.0,
                initial_sampler=lambda s: np.ones(s.shape),
            )

        models.BUILTIN_MODELS["lindecay"] = build
        try:
            cfg = ExperimentConfig(
                model_name="lindecay",
                schemes=["identity"],
                T=1.0,
                N=2,
                seed=1,
                h_ref=2.0**-12,
                h_list=[2.0**-k for k in range(5, 10)],
            )
            rep = run_convergence(cfg)[0]
            assert 0.9 <= rep.slope <= 1.1
        finally:
            del models.BUILTIN_MODELS["lindecay"]


class TestDensity:
    def cfg(self, **kw):
        base = dict(
            model_name="doublewell",
            model_params={"mu0": 0.0, "sigma0sq": 1.0},
            schemes=["te(1)"],
            T=1.0,
            N=64,
            seed=9,
            h_values=[0.05],
            record_times=[0.5, 1.0],
            reference_scheme="ssm",
            reference_h=0.01,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_entries_per_scheme_and_time(self):
        entries = run_density(self.cfg())
        labels = {(e.scheme, e.time) for e in entries}
        assert ("te_a1", 0.5) in labels and ("te_a1", 1.0) in labels
        assert ("ssm_ref", 0.5) in labels and ("ssm_ref", 1.0) in labels
        for e in entries:
            assert e.curve is not None
            assert 0.9 <= np.trapezoid(e.curve.values, e.curve.grid) <= 1.1

    def test_point_mass_model_peaks_at_start(self):
        cfg = self.cfg(model_name="cubic", model_params={}, reference_scheme=None, reference_h=None)
        entries = run_density(cfg)
        # cubic starts at 0 with drift pushing right; density mass is finite
        for e in entries:
            assert e.curve.n_source == 64

    def test_requires_h(self):
        with pytest.raises(ConfigError):
            run_density(self.cfg(h_values=[]))

    def test_one_grid_per_step_size(self, grid_calls):
        cfg = self.cfg(schemes=["me", "te(1)", "se(1)"])
        entries = run_density(cfg)
        # the three schemes share the h = 0.05 grid, the reference draws its own
        assert [args[1] for args in grid_calls] == [20, 100]
        labels = [e.scheme for e in entries]
        assert labels == ["me", "me", "te_a1", "te_a1", "se_a1", "se_a1", "ssm_ref", "ssm_ref"]
        # a shared grid gives the bits of a run on its own
        alone = run_density(self.cfg(reference_scheme=None, reference_h=None))
        for a, b in zip(alone, entries[2:4]):
            assert (a.scheme, a.time) == (b.scheme, b.time)
            assert np.array_equal(a.curve.values, b.curve.values)


class TestPaths:
    def test_summary_fields(self):
        cfg = ExperimentConfig(
            model_name="doublewell",
            model_params={"mu0": 3.0, "sigma0sq": 9.0},
            schemes=["te(1)"],
            T=1.0,
            N=32,
            seed=11,
            h_values=[0.05],
            trace_particles=[0, 5, 31],
            trace_stride=4,
        )
        cell = run_paths(cfg)[0]
        assert cell.particle_ids == (0, 5, 31)
        assert cell.values.shape == (20 // 4 + 1, 3, 1)
        assert cell.max_abs_recorded > 0
        assert cell.first_nonfinite_time is None
        assert not cell.diverged

    def test_one_cell_per_scheme_h_pair(self):
        cfg = ExperimentConfig(
            model_name="cubic",
            schemes=["me", "identity"],
            T=1.0,
            N=8,
            seed=2,
            h_values=[0.25, 0.125],
        )
        assert len(run_paths(cfg)) == 4

    def test_one_grid_per_step_size(self, grid_calls):
        cfg = ExperimentConfig(
            model_name="cubic",
            schemes=["me", "te(1)"],
            T=1.0,
            N=8,
            seed=2,
            h_values=[0.25, 0.125],
        )
        cells = run_paths(cfg)
        assert [args[1] for args in grid_calls] == [4, 8]
        # cells stay in config order: schemes outer, h inner
        assert [(c.scheme, c.h) for c in cells] == [
            ("me", 0.25), ("me", 0.125), ("te_a1", 0.25), ("te_a1", 0.125)
        ]


class TestMoments:
    def test_moments_constant_for_frozen_dynamics(self):
        def build():
            return models.ModelSpec(
                name="frozen",
                d=1,
                m=1,
                drift=lambda t, x, mu: np.zeros_like(x),
                diffusion_col=lambda t, x, mu, r: np.zeros_like(x),
                rho=0.0,
                initial_sampler=lambda s: np.full(s.shape, 1.5),
            )

        models.BUILTIN_MODELS["frozen"] = build
        try:
            cfg = ExperimentConfig(
                model_name="frozen", schemes=["identity"], T=1.0, N=8, seed=1,
                h_values=[0.125], orders=[2, 4],
            )
            cell = run_moments(cfg)[0]
            assert np.all(cell.moments[2] == 1.5**2)
            assert np.all(cell.moments[4] == 1.5**4)
            assert not cell.exceeded and not cell.nonfinite
        finally:
            del models.BUILTIN_MODELS["frozen"]

    def test_nonfinite_flag_on_oscillating_divergence(self, oscillating_cubic_decay):
        cfg = ExperimentConfig(
            model_name=oscillating_cubic_decay,
            schemes=["identity"],
            T=2.0,
            N=4,
            seed=3,
            h_values=[0.25],
        )
        cell = run_moments(cfg)[0]
        assert cell.nonfinite
        m2 = cell.moments[2]
        assert np.max(m2[np.isfinite(m2)]) > 0  # finite prefix exists


class TestNScaling:
    def cfg(self, **kw):
        base = dict(
            model_name="cubic",
            schemes=["me"],
            T=1.0,
            seed=42,
            h_values=[2.0**-5],
            n_list=[16, 32, 64],
            proxy_n=256,
            repetitions=4,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_error_zero_when_n_matches_proxy_with_shared_seed(self):
        rep = run_nscaling(self.cfg(n_list=[256], repetitions=1))
        assert rep.rows[0].mean_w2 == 0.0

    def test_two_rows_leave_the_slope_undefined(self):
        rep = run_nscaling(self.cfg(n_list=[16, 32]))
        assert all(r.mean_w2 > 0 for r in rep.rows) and math.isnan(rep.slope)

    def test_error_decreases_with_n(self):
        rep = run_nscaling(self.cfg(repetitions=8))
        assert rep.rows[0].mean_w2 > rep.rows[-1].mean_w2
        assert rep.slope < 0

    def test_sem_shrinks_with_more_repetitions(self):
        # quadrupling R roughly halves the standard error of the mean
        sems4 = run_nscaling(self.cfg(n_list=[32], repetitions=4)).rows[0].sem_w2
        sems16 = run_nscaling(self.cfg(n_list=[32], repetitions=16)).rows[0].sem_w2
        assert 0.2 <= sems16 / sems4 <= 0.9

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run_nscaling(self.cfg(h_values=[0.25, 0.125]))
        with pytest.raises(ConfigError):
            run_nscaling(self.cfg(n_list=[]))
        with pytest.raises(ConfigError):
            run_nscaling(self.cfg(schemes=["me", "te(1)"]))


@pytest.mark.parametrize(
    "run, keys",
    [
        (run_convergence, dict(h_ref=2.0**-6, h_list=[2.0**-4])),
        (run_density, dict(h_values=[0.25])),
        (run_paths, dict(h_values=[0.25])),
        (run_moments, dict(h_values=[0.25])),
        (run_nscaling, dict(h_values=[0.25], n_list=[4], proxy_n=8)),
    ],
    ids=["converge", "density", "paths", "moments", "nscaling"],
)
def test_no_schemes_is_config_error(run, keys, grid_calls):
    with pytest.raises(ConfigError, match="no schemes configured"):
        run(ExperimentConfig(schemes=[], **keys))
    assert not grid_calls


class TestRunner:
    def test_convergence_draws_one_root(self, grid_calls):
        cfg = ExperimentConfig(
            model_name="cubic", schemes=["me", "se(1)"], N=8, seed=5,
            h_ref=2.0**-6, h_list=[2.0**-3, 2.0**-4],
        )
        run_convergence(cfg)
        assert len(grid_calls) == 1

    def test_nscaling_repetition_shares_the_proxy_draw(self, grid_calls):
        cfg = ExperimentConfig(
            model_name="cubic", schemes=["me"], T=1.0, seed=42,
            h_values=[2.0**-5], n_list=[16, 64], proxy_n=64, repetitions=3,
        )
        rep = run_nscaling(cfg)
        # the proxy, 3 repetitions at N = 16 and 2 at N = 64: repetition 0
        # at N = proxy_n has the proxy's seed and runs on its draw
        assert len(grid_calls) == 6
        # the rows of one grid per run
        model = models.make_model("cubic")
        scheme = build_scheme("me", model)

        def terminal(r, n):
            grid = brownian.generate(brownian.derive_seed(42, r), 32, 1.0, n, model.m)
            return simulate(model, scheme, grid, [1.0]).final.states[:, 0]

        proxy = terminal(0, 64)
        for row, n in zip(rep.rows, cfg.n_list):
            vals = np.array([w2_1d_quantile(terminal(r, n), proxy) for r in range(3)])
            assert row.mean_w2 == float(vals.mean())
            assert row.sem_w2 == float(vals.std(ddof=1) / np.sqrt(3))
        assert rep.rows[1].mean_w2 > 0 and not rep.diverged

    def test_each_root_released_before_the_next_draw(self, monkeypatch):
        generate = brownian.generate
        roots = []

        def tracked(*args, **kwargs):
            assert all(root() is None for root in roots), "a previous root is still alive"
            grid = generate(*args, **kwargs)
            roots.append(weakref.ref(grid._root))
            return grid

        monkeypatch.setattr(experiments.brownian, "generate", tracked)
        cfg = ExperimentConfig(
            model_name="doublewell", schemes=["me", "te(1)"], T=1.0, N=16, seed=9,
            h_values=[0.05], reference_scheme="ssm", reference_h=0.01,
        )
        run_density(cfg)
        assert len(roots) == 2
