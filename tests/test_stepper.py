import dataclasses
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from mvsde import (
    NewtonNonConvergence,
    brownian,
    coarsen,
    cubic_interaction_model,
    double_well_model,
    generate,
    quintic_interaction_model,
    simulate,
    stepper,
)
from mvsde.brownian import InitStream
from mvsde.config import ExperimentConfig
from mvsde.experiments import run_convergence
from mvsde.models import ModelSpec
from mvsde.stats import rmse
from mvsde.stepper import (
    Ensemble,
    Trajectory,
    euler_step,
    grid_floor_step,
    split_step,
)
from mvsde.taming import KINDS, TamingOperator, parse_taming


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


EM = TamingOperator("identity")
ME = TamingOperator("modified")
SSM = None  # the split step


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
        out = split_step(ens, model, 0.1, w)
        assert np.allclose(out.states, ens.states + w)

    def test_linear_drift_closed_form(self):
        # Y = X + h*(-Y) at X=1, h=0.5 gives Y = 2/3 exactly
        model = make_model(lambda t, x, mu: -x, zero_diffusion)
        ens = Ensemble(np.ones((1, 1)))
        out = split_step(ens, model, 0.5, np.zeros((1, 1)))
        assert out.states[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_cubic_implicit_matches_bisection_oracle(self):
        # Y + 0.1*Y^3 = 1, solved independently by bisection
        model = make_model(lambda t, x, mu: -(x**3), zero_diffusion)
        ens = Ensemble(np.ones((1, 1)))
        out = split_step(ens, model, 0.1, np.zeros((1, 1)))
        root = bisect_root(lambda y: y + 0.1 * y**3 - 1.0, 0.0, 1.0)
        assert out.states[0, 0] == pytest.approx(root, abs=1e-10)

    def test_linear_drift_closed_form_d2(self):
        # b(y) = A y: Y = x + h A Y, so Y = (I - h A)^-1 x; the d > 1 Newton
        # branch solves the (N, d, d) system from finite-difference columns
        A = np.array([[-1.0, 0.5], [0.25, -2.0]])
        model = make_model(lambda t, x, mu: x @ A.T, zero_diffusion, d=2)
        x = np.array([[1.0, -2.0], [0.5, 3.0], [-4.0, 0.25]])
        h = 0.5
        out = split_step(Ensemble(x), model, h, np.zeros((3, 1)))
        expected = np.linalg.solve(np.eye(2) - h * A, x.T).T
        assert np.allclose(out.states, expected, rtol=0.0, atol=1e-12)

    def test_analytic_jacobian_matches_finite_differences(self):
        model = double_well_model(mu0=3.0, sigma0sq=9.0)
        rng = np.random.default_rng(3)
        ens = Ensemble(3.0 + 3.0 * rng.standard_normal((500, 1)))
        dW = np.sqrt(1e-3) * rng.standard_normal((500, 1))
        out = split_step(ens, model, 1e-3, dW)
        fd = split_step(ens, dataclasses.replace(model, drift_dx=None), 1e-3, dW)
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
        split_step(ens, counting, 1e-3, np.zeros((500, 1)))
        iterations = calls["drift_dx"]
        assert iterations >= 1
        assert calls["drift"] == iterations + 1

    def test_newton_non_convergence_raises(self):
        # Y = 3 + 0.5 (2 + 2 Y^2) has no real root
        model = make_model(lambda t, x, mu: 2.0 + 2.0 * x**2, zero_diffusion)
        with pytest.raises(NewtonNonConvergence) as err:
            split_step(Ensemble(np.full((2, 1), 3.0)), model, 0.5, np.zeros((2, 1)))
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
        TE = TamingOperator("tanh", 1.0)
        for op in (ME, TE):
            for n in (16, 32, 64, 128):
                grid = generate(9, n, 1.0, 64, 1)
                traj = simulate(model, op, grid, [k / 8 for k in range(9)])
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


# d = 2 with coupled coordinates and no drift_dx: the split step solves
# (N, 2, 2) systems from forward-difference Jacobians
COUPLED_D2 = make_model(
    lambda t, x, mu: 0.5 * x[..., ::-1] - x * x * x + mu.mean, unit_diffusion, init=0.5, d=2
)


def assert_same_run(batched, alone):
    """One system of a batch against its own simulate run, bit for bit."""
    assert batched.newton_failure == alone.newton_failure
    assert batched.first_nonfinite == alone.first_nonfinite
    assert batched.final.step_index == alone.final.step_index
    assert np.array_equal(batched.final.states, alone.final.states, equal_nan=True)
    assert [rt for rt, _ in batched.records] == [rt for rt, _ in alone.records]
    for (_, a), (_, b) in zip(batched.records, alone.records):
        assert a.step_index == b.step_index
        assert np.array_equal(a.states, b.states, equal_nan=True)


def run_batch(model, op, grids, times):
    """stepper.lockstep of one run over root grids of one shape, as one
    batch, read in blocks of 3 root steps (the last one shorter), so a
    Newton cut can leave the batch before a later block arrives."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stepper, "BLOCK_STEPS", 3)
        ((_, trajs),) = stepper.lockstep(model, grids, [(op, 1, times, None)])
    return trajs


def reference_run(model, op, grid, times):
    """The run of op on grid by a plain loop, independent of lockstep's
    blocks: stepper.step one step at a time over the grid's increments,
    drawn whole, recording each time at its grid_floor_step."""
    n = grid.n_steps
    ens = Ensemble(np.asarray(model.initial_sampler(InitStream(grid.seed, grid.N, model.d)), dtype=float))
    traj = Trajectory(grid.h, [], ens)
    for k in range(n + 1):
        if k:
            try:
                ens = stepper.step(ens, model, op, grid.h, grid.increments_block(k - 1, k)[0])
            except NewtonNonConvergence as err:
                traj.newton_failure = (k, err.particle, err.residual)
                break
        traj.records += [(rt, ens) for rt in sorted(times) if grid_floor_step(rt, grid.T, n) == k]
        traj.final = ens
    return traj


def run_both(model, op, seeds, n, N, times=(0.5, 1.0)):
    """stepper.lockstep over the seeds' grids and simulate of each grid alone."""
    batched = run_batch(model, op, [generate(s, n, 1.0, N, 1) for s in seeds], times)
    alone = [simulate(model, op, generate(s, n, 1.0, N, 1), times) for s in seeds]
    assert len(batched) == len(seeds)
    for a, b in zip(batched, alone):
        assert_same_run(a, b)
    return alone


class TestRecordOrder:
    # unsorted, repeated and off-grid times, 0.3 and 0.26 on one grid step;
    # equal times are told apart by type
    TIMES = [0.8, np.float64(0.3), 1, 0.0, 0.26, Fraction(1, 2), 1.0, 0.3, 0.5]
    ORDER = [3, 4, 1, 7, 5, 8, 0, 2, 6]  # ascending, equal times in input order

    def assert_ordered(self, traj, model, grid):
        got = [rt for rt, _ in traj.records]
        assert [type(rt) for rt in got] == [type(self.TIMES[i]) for i in self.ORDER]
        assert got == [self.TIMES[i] for i in self.ORDER]
        for rt, ens in traj.records:
            assert ens.step_index == grid_floor_step(rt, 1.0, 8)
            (_, alone), = simulate(model, ME, grid, [rt]).records
            assert np.array_equal(ens.states, alone.states)

    def test_simulate(self):
        model, grid = cubic_interaction_model(), generate(3, 8, 1.0, 8, 1)
        self.assert_ordered(simulate(model, ME, grid, self.TIMES), model, grid)

    def test_batch_run(self):
        model = cubic_interaction_model()
        grids = [generate(s, 8, 1.0, 8, 1) for s in (3, 5)]
        for traj, grid in zip(run_batch(model, ME, grids, self.TIMES), grids):
            self.assert_ordered(traj, model, grid)


class TestBatch:
    def test_ensemble_is_one_system_or_one_batch(self):
        # a second leading axis is refused when built, not met as an
        # IndexError once a state goes non-finite
        with pytest.raises(ValueError, match="expected"):
            Ensemble(np.zeros((2, 3, 4, 1)))

    @pytest.mark.parametrize("B", [1, 2, 16])
    @pytest.mark.parametrize("N", [1, 7, 100, 127, 128, 129, 1000, 4097])
    def test_raw_moment_per_system_bitwise(self, N, B):
        # axis -2 of a batch reduces each system as it is reduced alone
        rng = np.random.default_rng(N * 31 + B)
        states = rng.standard_normal((B, N, 1)) * 10.0 ** rng.uniform(-3, 3, (B, N, 1))
        batch = Ensemble(states)
        for k in (1, 2, 3, 4):
            mom = batch.raw_moment(k)
            assert mom.shape == (B, 1, 1)
            for b in range(B):
                assert np.array_equal(mom[b, 0], Ensemble(states[b].copy()).raw_moment(k))

    @pytest.mark.parametrize(
        "model, op",
        [(cubic_interaction_model(), ME), (cubic_interaction_model(), SSM),
         (double_well_model(3.0, 9.0), TamingOperator("tanh", 1.0)), (double_well_model(), SSM),
         (COUPLED_D2, ME), (COUPLED_D2, SSM)],
        ids=["cubic-me", "cubic-ssm", "doublewell-te", "doublewell-ssm", "d2-me", "d2-ssm-fd"],
    )
    def test_each_system_as_its_own_run(self, model, op):
        run_both(model, op, seeds=[4, 9, 4, 1], n=16, N=32)

    def test_newton_cut_system_leaves_the_batch(self):
        # doublewell, mu0 = 30: the first implicit stage fails to reach the
        # tolerance for most but not all initial draws
        model = double_well_model(30.0, 900.0)
        alone = run_both(model, SSM, seeds=range(12), n=4, N=4)
        cut = [traj.newton_failure is not None for traj in alone]
        assert any(cut) and not all(cut)
        assert all(traj.newton_failure[0] == 1 for traj in alone if traj.newton_failure)

    def test_nonfinite_system_flags_only_itself(self):
        # explicit Euler on the double well explodes for some initial draws
        alone = run_both(double_well_model(0.0, 4.0), EM, seeds=range(12), n=8, N=4)
        flagged = [traj.first_nonfinite is not None for traj in alone]
        assert any(flagged) and not all(flagged)

    def test_batch_error_names_the_failed_system(self):
        # at h = 0.1, Y = x + 0.1 (2 + 2 Y^2) has a root from x = -0.1 and
        # none from x = 3, so only the second system is still iterating
        model = make_model(lambda t, x, mu: 2.0 + 2.0 * x**2, zero_diffusion)
        states = np.stack([np.full((2, 1), -0.1), np.full((2, 1), 3.0)])
        with pytest.raises(NewtonNonConvergence) as err:
            split_step(Ensemble(states), model, 0.1, np.zeros((2, 2, 1)))
        assert err.value.replica == 1 and err.value.particle in (0, 1)


def _per_seed_start(stream):
    """X0 near 0.5, except seed 2 (20: the first implicit stage has no root)
    and seed 3 (-1000: the diffusion overflows at the first step)."""
    return {2: 20.0, 3: -1000.0}.get(stream.seed, 0.5) + 0.1 * stream.normals()


# b = -x + mean/10 below 5 and 2 + 2 x^2 above it, sigma = exp(-x)
CUT_OR_OVERFLOW = ModelSpec(
    name="cutoroverflow",
    d=1,
    m=1,
    drift=lambda t, x, mu: np.where(x > 5.0, 2.0 + 2.0 * x * x, 0.1 * mu.mean - x),
    diffusion_col=lambda t, x, mu, r: np.exp(-x),
    rho=1.0,
    initial_sampler=_per_seed_start,
)


class TestLockstep:
    def test_runs_match_the_reference_loop_system_by_system(self):
        # four systems and two runs (factors 1 and 2) on one pass of the
        # roots; the system of seed 2 is cut by Newton at step 1, that of
        # seed 3 goes non-finite at step 1 and Newton cuts its NaN states
        # at step 2
        seeds, times = [1, 2, 3, 4], [0.0, 0.5, 1.0]
        roots = [generate(s, 8, 1.0, 4, 1) for s in seeds]
        runs = [(SSM, 1, times, None), (SSM, 2, times, None)]
        ended = dict(stepper.lockstep(CUT_OR_OVERFLOW, roots, runs))
        assert sorted(ended) == [0, 1]
        for r, (_, f, _, _) in enumerate(runs):
            views = [coarsen(generate(s, 8, 1.0, 4, 1, materialize=True), f) for s in seeds]
            alone = [reference_run(CUT_OR_OVERFLOW, SSM, view, times) for view in views]
            for batched, ref in zip(ended[r], alone):
                assert_same_run(batched, ref)
            assert [traj.newton_failure is not None for traj in alone] == [False, True, True, False]
            assert alone[1].newton_failure[0] == 1 and alone[1].first_nonfinite is None
            assert alone[2].first_nonfinite == (0, 1) and alone[2].newton_failure[0] == 2
            assert np.all(np.isfinite(alone[0].final.states)) and alone[0].final.step_index == 8 // f

    def test_each_system_traces_its_own_particles(self):
        # the system of seed 2 is cut by Newton at step 1: its trace rows
        # stay NaN from there, and seed 1's are those of its run alone
        seeds, runs = (2, 1), [(SSM, 1, [1.0], [0, 1])]
        ((_, batched),) = stepper.lockstep(CUT_OR_OVERFLOW, [generate(s, 8, 1.0, 4, 1) for s in seeds], runs)
        for s, traj in zip(seeds, batched):
            ((_, (alone,)),) = stepper.lockstep(CUT_OR_OVERFLOW, [generate(s, 8, 1.0, 4, 1)], runs)
            assert np.array_equal(traj.trace_times, alone.trace_times)
            assert np.array_equal(traj.trace_values, alone.trace_values, equal_nan=True)
        assert np.isnan(batched[0].trace_values[1:]).all()
        assert not np.isnan(batched[1].trace_values).any()

    def test_initial_data_drawn_once_per_root(self):
        # three runs on two roots draw two start blocks, and each run is the
        # run it would be alone
        seeds, times = (2, 4), [0.0, 1.0]
        drawn = []

        def counting(stream):
            drawn.append(stream.seed)
            return _per_seed_start(stream)

        model = dataclasses.replace(CUT_OR_OVERFLOW, initial_sampler=counting)
        runs = [(ME, 1, times, None), (ME, 2, times, None), (SSM, 1, times, None)]
        ended = dict(stepper.lockstep(model, [generate(s, 8, 1.0, 4, 1) for s in seeds], runs))
        assert drawn == list(seeds)
        for r, one in enumerate(runs):
            for s, batched in zip(seeds, ended[r]):
                ((_, (alone,)),) = stepper.lockstep(CUT_OR_OVERFLOW, [generate(s, 8, 1.0, 4, 1)], [one])
                assert_same_run(batched, alone)

    @pytest.mark.parametrize(
        "seeds, factor, op",
        [((1,), 1, ME), ((1, 4, 5), 1, ME), ((1, 4, 5), 4, ME), ((1, 2, 3, 4), 1, SSM)],
        ids=["one", "batch", "coarsened", "newton-cut"],
    )
    def test_each_step_reads_particles_at_unit_stride(self, monkeypatch, seeds, factor, op):
        # blocks are step-major, so the dW of every step is one contiguous
        # slice, also for the batch left after a Newton cut (seeds 2 and 3
        # are cut at steps 1 and 2) and across blocks of 3 root steps
        seen, step = [], stepper.step

        def spy(ens, model, op, h, dW):
            seen.append((len(dW), dW.flags.c_contiguous, all(w.flags.c_contiguous for w in dW)))
            return step(ens, model, op, h, dW)

        monkeypatch.setattr(stepper, "step", spy)
        monkeypatch.setattr(stepper, "BLOCK_STEPS", 3 * factor)
        roots = [generate(s, 16, 1.0, 5, 1) for s in seeds]
        ((_, trajs),) = stepper.lockstep(CUT_OR_OVERFLOW, roots, [(op, factor, [1.0], None)])
        assert all(per_system for _, _, per_system in seen)
        assert all(whole for _, whole, _ in seen)
        sizes = sorted({b for b, _, _ in seen}, reverse=True)
        assert sizes == ([4, 3, 2] if op is SSM else [len(seeds)])
        assert len(seen) == 16 // factor + (2 if op is SSM else 0)  # a retry per cut

    @pytest.mark.parametrize(
        "seeds, factor", [((1,), 1), ((1, 4, 5), 1), ((1, 4, 5), 3)], ids=["one", "batch", "factor-3"]
    )
    def test_run_is_sent_c_contiguous_step_major_blocks(self, monkeypatch, seeds, factor):
        # every block lockstep sends to run is C-contiguous (steps, B, N, m),
        # in blocks of 4 coarse steps, the last one shorter
        sent, run = [], stepper.run

        def spy(*args):
            steps = run(*args)
            got = next(steps)
            try:
                while True:
                    dw = yield got
                    sent.append((dw.shape, dw.flags.c_contiguous))
                    got = steps.send(dw)
            except StopIteration as stop:
                return stop.value

        monkeypatch.setattr(stepper, "run", spy)
        monkeypatch.setattr(stepper, "BLOCK_STEPS", 4 * factor)
        roots = [generate(s, 18, 1.0, 5, 1) for s in seeds]
        list(stepper.lockstep(cubic_interaction_model(), roots, [(ME, factor, [1.0], None)]))
        n = 18 // factor
        assert sent == [((min(4, n - k), len(seeds), 5, 1), True) for k in range(0, n, 4)]

    @pytest.mark.parametrize("op, factor", [(ME, 1), (SSM, 2)], ids=["me", "ssm-coarsened"])
    def test_a_block_is_released_before_the_next_is_drawn(self, monkeypatch, op, factor):
        # memory holds one block: no step's dW keeps the last block alive
        monkeypatch.setattr(stepper, "BLOCK_STEPS", 4)
        root = generate(1, 16, 1.0, 5, 1)
        draw, drawn = root.increments_block, []

        def spy(r0, r1, out=None):
            assert all(ref() is None for ref in drawn), "a block outlived its pass"
            drawn.append(weakref.ref(out.base))  # the block lockstep allocated
            return draw(r0, r1, out=out)

        monkeypatch.setattr(root, "increments_block", spy)
        list(stepper.lockstep(cubic_interaction_model(), [root], [(op, factor, [1.0], None)]))
        assert len(drawn) == 4

    def test_a_batch_holds_one_block(self):
        # B roots draw into the slots of one (steps, B, N, m) block: beyond
        # the start states, the peak allocation is that block plus the
        # tiles of one draw and a few state-sized arrays of the step
        B, N, n = 4, 1000, 64
        model = cubic_interaction_model()
        roots = [generate(s, n, 1.0, N, model.m) for s in range(B)]
        runs = [(ME, 1, [1.0], None)]
        list(stepper.lockstep(model, roots, runs))  # scipy and numpy warmed up
        block = n * B * N * model.m * 8
        states = B * N * model.d * 8
        tracemalloc.start()
        try:
            list(stepper.lockstep(model, roots, runs))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - states <= block + brownian.TILE_VALUES * 8 + 16 * states

    def test_a_nonfinite_system_leaves_its_neighbours_alone(self):
        # a system per scheme on one root: explicit Euler, in the middle,
        # goes non-finite at step 7, and the systems beside it keep the
        # records and traces of their runs alone
        model, times, ids = double_well_model(0.0, 4.0), [0.5, 1.0], [0, 3]
        ops = (ME, EM, TamingOperator("tanh", 1.0))
        ((_, shared),) = stepper.lockstep(model, [generate(0, 8, 1.0, 4, 1)], [(ops, 1, times, ids)])
        assert [traj.first_nonfinite for traj in shared] == [None, (0, 7), None]
        for op, traj in zip(ops, shared):
            ((_, (alone,)),) = stepper.lockstep(model, [generate(0, 8, 1.0, 4, 1)], [(op, 1, times, ids)])
            assert_same_run(traj, alone)
            assert np.array_equal(traj.trace_values, alone.trace_values, equal_nan=True)

    def test_a_shared_run_of_every_kind_is_each_reference_loop(self):
        # one system per row of taming.KINDS on one root, against the plain
        # loop of each operator's own t1/t2
        model, times = double_well_model(0.0, 4.0), [0.5, 1.0]
        ops = tuple(parse_taming(row.name, model_rho=model.rho) for row in KINDS.values())
        ((_, shared),) = stepper.lockstep(model, [generate(0, 8, 1.0, 4, 1)], [(ops, 1, times, None)])
        for op, traj in zip(ops, shared):
            assert_same_run(traj, reference_run(model, op, generate(0, 8, 1.0, 4, 1, materialize=True), times))

    def test_schemes_on_one_root_share_its_increments(self, monkeypatch):
        # one step call per step for all three systems, each reading the
        # root's (1, N, m) slice, broadcast
        seen, step = [], stepper.step

        def spy(ens, model, op, h, dW):
            seen.append((ens.states.shape, dW.shape))
            return step(ens, model, op, h, dW)

        monkeypatch.setattr(stepper, "step", spy)
        ops = (ME, EM, TamingOperator("sin", 1.0))
        list(stepper.lockstep(cubic_interaction_model(), [generate(1, 16, 1.0, 5, 1)], [(ops, 2, [1.0], None)]))
        assert seen == [((3, 5, 1), (1, 5, 1))] * 8

    @pytest.mark.parametrize(
        "ops, seeds, match",
        [((ME, SSM), (1,), "runs alone"), ((ME, EM), (1, 2, 3), "make no batch")],
        ids=["split-step-beside-explicit", "two-schemes-three-roots"],
    )
    def test_a_run_is_one_scheme_per_root_or_schemes_on_one_root(self, ops, seeds, match):
        roots = [generate(s, 8, 1.0, 4, 1) for s in seeds]
        with pytest.raises(ValueError, match=match):
            list(stepper.lockstep(cubic_interaction_model(), roots, [(ops, 1, [1.0], None)]))

    def test_a_factor_must_divide_the_root(self):
        roots = [generate(0, 10, 1.0, 4, 1)]
        with pytest.raises(ValueError, match="does not divide"):
            list(stepper.lockstep(cubic_interaction_model(), roots, [(ME, 3, [0.9], None)]))

    def test_convergence_matches_the_reference_loop_on_odd_factors(self):
        # factors 9 and 3: lockstep reads blocks of 1017 root steps, so they
        # start at Philox words that are not a multiple of 4, and the block
        # at 4068 crosses the 4096-step counter chunk
        cfg = ExperimentConfig(
            model_name="cubic", schemes=["me", "ssm"], N=8, seed=5, T=1.125,
            h_ref=2.0**-12, h_list=[9 * 2.0**-12, 3 * 2.0**-12],
        )
        model = cubic_interaction_model()
        root = generate(5, 4608, 1.125, 8, 1, materialize=True)
        for rep, op in zip(run_convergence(cfg), (ME, SSM)):
            ref = reference_run(model, op, root, [1.125]).final
            for row, f in zip(rep.rows, (9, 3)):
                coarse = reference_run(model, op, coarsen(root, f), [1.125]).final
                assert not row.diverged and row.rmse == rmse(coarse, ref) > 0
