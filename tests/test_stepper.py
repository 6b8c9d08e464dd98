import dataclasses

import numpy as np
import pytest

from mvsde import (
    NewtonNonConvergence,
    SchemeConfig,
    cubic_interaction_model,
    double_well_model,
    generate,
    quintic_interaction_model,
    simulate,
)
from mvsde.models import ModelSpec
from mvsde.stepper import (
    Ensemble,
    euler_step,
    grid_floor_step,
    split_step,
)
from mvsde.taming import identity, modified, tanh_op


def make_model(drift, diffusion, init=0.0, d=1, m=1, rho=1.0, name="test"):
    return ModelSpec(
        name=name,
        d=d,
        m=m,
        drift=drift,
        diffusion_col=diffusion,
        rho=rho,
        initial_sampler=lambda s: np.full(s.shape, init),
    )


def zero_drift(t, x, mu):
    return np.zeros_like(x)


def zero_diffusion(t, x, mu, r):
    return np.zeros_like(x)


def unit_diffusion(t, x, mu, r):
    return np.ones_like(x)


EM = SchemeConfig(identity())
ME = SchemeConfig(modified())
SSM = SchemeConfig()


class TestEulerStep:
    def test_zero_dynamics_identity(self):
        model = make_model(zero_drift, zero_diffusion)
        ens = Ensemble(np.array([[1.0], [-2.0]]))
        out = euler_step(ens, model, EM, 0.25, np.zeros((2, 1)))
        assert np.array_equal(out.states, ens.states)
        assert out.t == 0.25 and out.step_index == 1

    def test_pure_noise_step(self):
        model = make_model(zero_drift, unit_diffusion)
        ens = Ensemble(np.zeros((3, 1)))
        w = np.array([[0.3], [-0.1], [0.7]])
        out = euler_step(ens, model, EM, 0.5, w)
        assert np.array_equal(out.states, w)

    def test_cubic_hand_steps(self):
        model = cubic_interaction_model()
        # single particle at 0: all terms vanish
        out = euler_step(Ensemble(np.zeros((1, 1))), model, EM, 0.5, np.zeros((1, 1)))
        assert out.states[0, 0] == 0.0
        # single particle at 1, mu = delta_1: X' = 1 + (1-1+1)*0.5 + 0
        out = euler_step(Ensemble(np.ones((1, 1))), model, EM, 0.5, np.zeros((1, 1)))
        assert out.states[0, 0] == pytest.approx(1.5)

    def test_measure_frozen_within_step(self):
        seen = []

        def drift(t, x, mu):
            seen.append(mu)
            return np.zeros_like(x)

        def diffusion(t, x, mu, r):
            seen.append(mu)
            return np.zeros_like(x)

        model = make_model(drift, diffusion, m=2)
        ens = Ensemble(np.array([[1.0], [2.0]]))
        euler_step(ens, model, EM, 0.1, np.zeros((2, 2)))
        assert len(seen) == 3
        assert all(mu is ens for mu in seen)

    def test_matches_straight_line_euler_maruyama(self):
        # independent oracle with the same left-to-right accumulation
        model = cubic_interaction_model()
        rng = np.random.default_rng(12)
        states = rng.standard_normal((6, 1))
        for _ in range(10):
            ens = Ensemble(states)
            h = 0.25
            w = rng.standard_normal((6, 1)) * np.sqrt(h)
            out = euler_step(ens, model, EM, h, w)

            mu_mean = states.mean(axis=0)
            b = states - states**3 + mu_mean
            s = 0.5 * (1.0 - states**2)
            expected = states + b * h
            expected = expected + s * w
            assert np.array_equal(out.states, expected)
            states = out.states

    def test_permutation_equivariance(self):
        # dyadic states and increments make every reduction exact, so the
        # permuted run agrees bitwise
        model = cubic_interaction_model()
        states = np.array([[0.5], [1.0], [-1.5], [2.0]])
        w = np.array([[0.25], [-0.5], [0.125], [0.0]])
        perm = [2, 0, 3, 1]
        out = euler_step(Ensemble(states), model, EM, 0.5, w)
        out_p = euler_step(Ensemble(states[perm]), model, EM, 0.5, w[perm])
        assert np.array_equal(out.states[perm], out_p.states)

    def test_divergence_flagged_and_clamped(self):
        def drift(t, x, mu):
            out = np.zeros_like(x)
            out[1] = np.inf
            return out

        model = make_model(drift, zero_diffusion)
        ens = Ensemble(np.zeros((3, 1)))
        out = euler_step(ens, model, EM, 0.5, np.zeros((3, 1)))
        assert out.diverged
        assert out.first_nonfinite == (1, 1)
        assert np.isnan(out.states[1, 0])
        assert np.all(np.isfinite(out.states[[0, 2]]))
        # the flag and first event survive subsequent steps
        again = euler_step(out, model, EM, 0.5, np.zeros((3, 1)))
        assert again.diverged and again.first_nonfinite == (1, 1)

    def test_requires_explicit_config(self):
        model = make_model(zero_drift, zero_diffusion)
        with pytest.raises(ValueError):
            euler_step(Ensemble(np.zeros((1, 1))), model, SSM, 0.1, np.zeros((1, 1)))


def bisect_root(f, lo, hi, tol=1e-14, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestSplitStep:
    def test_zero_drift_reduces_to_diffusion(self):
        model = make_model(zero_drift, unit_diffusion)
        ens = Ensemble(np.array([[1.0], [2.0]]))
        w = np.array([[0.5], [-0.25]])
        out = split_step(ens, model, SSM, 0.1, w)
        assert np.allclose(out.states, ens.states + w)

    def test_linear_drift_closed_form(self):
        # Y = X + h*(-Y) at X=1, h=0.5 gives Y = 2/3 exactly
        model = make_model(lambda t, x, mu: -x, zero_diffusion)
        ens = Ensemble(np.ones((1, 1)))
        out = split_step(ens, model, SSM, 0.5, np.zeros((1, 1)))
        assert out.states[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_cubic_implicit_matches_bisection_oracle(self):
        # Y + 0.1*Y^3 = 1, solved independently by bisection
        model = make_model(lambda t, x, mu: -(x**3), zero_diffusion)
        ens = Ensemble(np.ones((1, 1)))
        out = split_step(ens, model, SSM, 0.1, np.zeros((1, 1)))
        root = bisect_root(lambda y: y + 0.1 * y**3 - 1.0, 0.0, 1.0)
        assert out.states[0, 0] == pytest.approx(root, abs=1e-10)

    def test_linear_drift_closed_form_d2(self):
        # b(y) = A y: Y = x + h A Y, so Y = (I - h A)^-1 x; the d > 1 Newton
        # branch solves the (N, d, d) system from finite-difference columns
        A = np.array([[-1.0, 0.5], [0.25, -2.0]])
        model = make_model(lambda t, x, mu: x @ A.T, zero_diffusion, d=2)
        x = np.array([[1.0, -2.0], [0.5, 3.0], [-4.0, 0.25]])
        h = 0.5
        out = split_step(Ensemble(x), model, SSM, h, np.zeros((3, 1)))
        expected = np.linalg.solve(np.eye(2) - h * A, x.T).T
        assert np.allclose(out.states, expected, rtol=0.0, atol=1e-12)

    def test_analytic_jacobian_matches_finite_differences(self):
        model = double_well_model(mu0=3.0, sigma0sq=9.0)
        rng = np.random.default_rng(3)
        ens = Ensemble(3.0 + 3.0 * rng.standard_normal((500, 1)))
        dW = np.sqrt(1e-3) * rng.standard_normal((500, 1))
        out = split_step(ens, model, SSM, 1e-3, dW)
        fd = split_step(ens, dataclasses.replace(model, drift_dx=None), SSM, 1e-3, dW)
        assert np.allclose(out.states, fd.states, rtol=0.0, atol=1e-12)

    def test_analytic_jacobian_one_drift_call_per_iteration(self):
        model = double_well_model(mu0=3.0, sigma0sq=9.0)
        calls = {"drift": 0, "drift_dx": 0}

        def counted(name):
            fn = getattr(model, name)

            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        counting = dataclasses.replace(model, drift=counted("drift"), drift_dx=counted("drift_dx"))
        rng = np.random.default_rng(4)
        ens = Ensemble(3.0 + 3.0 * rng.standard_normal((500, 1)))
        split_step(ens, counting, SSM, 1e-3, np.zeros((500, 1)))
        iterations = calls["drift_dx"]
        assert iterations >= 1
        assert calls["drift"] == iterations + 1

    def test_rejects_taming_operator(self):
        model = make_model(zero_drift, zero_diffusion)
        with pytest.raises(ValueError, match="no taming operator"):
            split_step(Ensemble(np.zeros((1, 1))), model, ME, 0.1, np.zeros((1, 1)))

    def test_newton_non_convergence_raises(self):
        # Y = 3 + 0.5 (2 + 2 Y^2) has no real root
        model = make_model(lambda t, x, mu: 2.0 + 2.0 * x**2, zero_diffusion)
        with pytest.raises(NewtonNonConvergence) as err:
            split_step(Ensemble(np.full((2, 1), 3.0)), model, SSM, 0.5, np.zeros((2, 1)))
        assert err.value.particle in (0, 1)
        assert err.value.residual > 0


class TestSimulate:
    def test_record_time_zero_only(self):
        model = cubic_interaction_model()
        grid = generate(3, 8, 1.0, 4, 1)
        traj = simulate(model, EM, grid, [0.0])
        assert len(traj.records) == 1
        rt, ens = traj.records[0]
        assert rt == 0.0 and ens.step_index == 0
        assert np.array_equal(ens.states, np.zeros((4, 1)))

    def test_records_floor_grid_point(self):
        assert grid_floor_step(0.6, 1.0, 4) == 2
        assert grid_floor_step(0.5, 1.0, 4) == 2
        assert grid_floor_step(1.0, 1.0, 4) == 4
        assert grid_floor_step(0.3, 1.0, 10) == 3
        model = cubic_interaction_model()
        grid = generate(3, 4, 1.0, 2, 1)
        traj = simulate(model, EM, grid, [0.6])
        assert traj.records[0][1].step_index == 2

    def test_bitwise_deterministic(self):
        model = quintic_interaction_model()
        grid = generate(5, 32, 1.0, 8, 1)
        t1 = simulate(model, ME, grid, [0.5, 1.0])
        t2 = simulate(model, ME, grid, [0.5, 1.0])
        assert np.array_equal(t1.final.states, t2.final.states)
        for (ra, ea), (rb, eb) in zip(t1.records, t2.records):
            assert ra == rb and ea.step_index == eb.step_index
            assert np.array_equal(ea.states, eb.states)

    def test_rejects_out_of_range_record_times(self):
        model = cubic_interaction_model()
        grid = generate(3, 4, 1.0, 2, 1)
        with pytest.raises(ValueError):
            simulate(model, EM, grid, [2.0])

    def test_initial_sampler_shape_checked(self):
        model = make_model(zero_drift, zero_diffusion)
        bad = ModelSpec(
            name="bad",
            d=1,
            m=1,
            drift=zero_drift,
            diffusion_col=zero_diffusion,
            rho=0.0,
            initial_sampler=lambda s: np.zeros((1, 1)),
        )
        grid = generate(3, 4, 1.0, 2, 1)
        with pytest.raises(ValueError):
            simulate(bad, EM, grid, [1.0])

    def test_moment_boundedness_across_step_sizes(self):
        # tamed schemes keep 2nd/4th moments under one fixed ceiling as h halves
        model = quintic_interaction_model()
        TE = SchemeConfig(tanh_op(1.0))
        for cfg in (ME, TE):
            for n in (16, 32, 64, 128):
                grid = generate(9, n, 1.0, 64, 1)
                traj = simulate(model, cfg, grid, [k / 8 for k in range(9)])
                for _, ens in traj.records:
                    m2 = float(np.mean(ens.states**2))
                    m4 = float(np.mean(ens.states**4))
                    assert np.isfinite(m2) and m2 < 50.0
                    assert np.isfinite(m4) and m4 < 50.0

    def test_split_step_trajectory_on_cubic(self):
        model = cubic_interaction_model()
        grid = generate(11, 16, 1.0, 8, 1)
        traj = simulate(model, SSM, grid, [1.0])
        assert traj.complete and not traj.diverged
        assert np.all(np.isfinite(traj.final.states))

    def test_newton_failure_truncates(self):
        # the first implicit stage, Y = 3 + 0.5 (2 + 2 Y^2), has no real root
        model = make_model(lambda t, x, mu: 2.0 + 2.0 * x**2, zero_diffusion, init=3.0)
        grid = generate(2, 2, 1.0, 2, 1)
        traj = simulate(model, SSM, grid, [1.0])
        assert not traj.complete and traj.diverged
        assert traj.newton_failure is not None and traj.newton_failure[0] == 1
        assert traj.records == []
