"""Span tracer installed around the public entry points of each mvsde module.

Spans are recorded by wrapping names where the program looks them up:
``experiments`` binds ``simulate``, ``kde``, ``rmse`` and ``w2_1d_quantile``
at import and ``stepper.simulate`` calls its module-global ``step``, so both
bindings are wrapped.  A span's self time is its duration minus the time of
its child spans.  Nothing here changes what the program computes.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

LAYERS = ("brownian", "models", "stepper", "stats", "experiments", "output", "svgplot", "config", "cli")

# per-layer metric -> unit (the same names and units as BENCHMARK.json's per_layer)
PER_LAYER = {
    "brownian.generate_s": "s",
    "brownian.increments_s": "s",
    "brownian.ns_per_value": "ns",
    "brownian.values": "count",
    "brownian.init_s": "s",
    "models.drift_calls": "count",
    "models.drift_s": "s",
    "models.drift_ns_per_particle": "ns",
    "models.diffusion_s": "s",
    "models.measure_calls": "count",
    "models.measure_s": "s",
    "stepper.steps": "count",
    "stepper.step_us": "us",
    "stepper.step_self_us": "us",
    "stepper.particle_step_ns": "ns",
    "stepper.newton_evals_per_step": "count",
    "stepper.newton_failures": "count",
    "stepper.simulate_self_s": "s",
    "stats.kde_calls": "count",
    "stats.kde_s": "s",
    "stats.w2_calls": "count",
    "stats.w2_s": "s",
    "stats.rmse_s": "s",
    "experiments.self_s": "s",
    "experiments.grids_generated": "count",
    "experiments.grid_reuse_ratio": "ratio",
    "output.csv_s": "s",
    "output.write_s": "s",
    "output.bytes": "B",
    "svgplot.svg_s": "s",
    "config.load_s": "s",
    "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [span name, child seconds]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(float)  # work counters
        self.top_level_s = 0.0  # time covered by spans with no parent
        self.grids = set()

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; after(args, result, parent_name) runs on return."""
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_level_s += dt
            if after is not None:
                after(args, result, stack[-1][0] if stack else None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self):
        from mvsde import brownian, cli, experiments, models, output, stats, stepper, svgplot

        count = self.count

        def after_generate(args, grid, _):
            key = (grid.seed, grid.n_fine, grid.T, grid.N, grid.m)
            self.grids.add(key)
            count["grids_generated"] += 1
            if grid._root is not None:  # materialized now; on-demand grids count per block
                count["values"] += grid.N * grid.n_fine * grid.m

        def after_increments(args, block, _):
            grid, k0, k1 = args[0], args[1], args[2]
            if grid._root is None:
                values = grid.N * (k1 - k0) * grid.factor * grid.m
                count["values"] += values
                count["on_demand_values"] += values

        brownian.generate = self.wrap("brownian.generate", brownian.generate, after_generate)
        PathGrid = brownian.PathGrid
        PathGrid.increments_block = self.wrap(
            "brownian.increments", PathGrid.increments_block, after_increments
        )
        InitStream = brownian.InitStream
        InitStream.normals = self.wrap("brownian.init", InitStream.normals)
        InitStream.uniforms = self.wrap("brownian.init", InitStream.uniforms)

        def after_drift(args, _, parent):
            count["drift_particles"] += args[1].shape[0]
            if parent == "stepper.split_step":
                count["newton_evals"] += 1

        def traced_factory(factory):
            def build(*args, **kwargs):
                spec = factory(*args, **kwargs)
                return dataclasses.replace(
                    spec,
                    drift=self.wrap("models.drift", spec.drift, after_drift),
                    diffusion_col=self.wrap("models.diffusion", spec.diffusion_col),
                )

            return build

        for name, factory in list(models.BUILTIN_MODELS.items()):
            models.register_model(name, traced_factory(factory), overwrite=True)
        MeasureView = models.MeasureView
        MeasureView.mean = property(self.wrap("models.measure", MeasureView.mean.fget))
        MeasureView.raw_moment = self.wrap("models.measure", MeasureView.raw_moment)

        def after_step(args, _, __):
            count["particle_steps"] += args[0].n_particles

        def after_simulate(args, traj, _):
            if not traj.complete:
                count["newton_failures"] += 1

        stepper.step = self.wrap("stepper.step", stepper.step, after_step)
        stepper.euler_step = self.wrap("stepper.euler_step", stepper.euler_step)
        stepper.split_step = self.wrap("stepper.split_step", stepper.split_step)
        stepper.simulate = experiments.simulate = self.wrap(
            "stepper.simulate", stepper.simulate, after_simulate
        )

        for name, span in (("kde", "stats.kde"), ("rmse", "stats.rmse"), ("w2_1d_quantile", "stats.w2")):
            traced = self.wrap(span, getattr(stats, name))
            setattr(stats, name, traced)
            setattr(experiments, name, traced)

        for name in ("run_convergence", "run_density", "run_paths", "run_moments", "run_nscaling"):
            setattr(experiments, name, self.wrap("experiments.run", getattr(experiments, name)))

        for name in ("convergence_files", "density_files", "path_files", "moment_files",
                     "nscaling_files", "check_files"):
            setattr(output, name, self.wrap("output.csv", getattr(output, name)))

        def after_write(args, _, __):
            count["bytes"] += sum(len(b) for b in args[1].values())

        output.write_files = self.wrap("output.write", output.write_files, after_write)

        for name in ("convergence_svg", "density_svg", "paths_svg", "series_svg", "nscaling_svg"):
            setattr(svgplot, name, self.wrap("svgplot.svg", getattr(svgplot, name)))

        cli.load_config = self.wrap("config.load", cli.load_config)

    # ------------------------------------------------------------------
    # per-layer metrics
    # ------------------------------------------------------------------

    def layer_self_s(self) -> dict:
        """Self seconds per layer (module) name."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_time.items():
            out[name.split(".", 1)[0]] += value
        return out

    def metrics(self, import_s: float) -> dict:
        t, s, c, n = self.total, self.self_time, self.calls, self.count
        steps = c["stepper.step"]
        values = n["values"]
        brownian_gen = t["brownian.generate"] + t["brownian.increments"]
        step_self = s["stepper.step"] + s["stepper.euler_step"] + s["stepper.split_step"]
        return {
            "brownian.generate_s": t["brownian.generate"],
            "brownian.increments_s": t["brownian.increments"],
            "brownian.ns_per_value": brownian_gen * 1e9 / values if values else 0.0,
            "brownian.values": values,
            "brownian.init_s": t["brownian.init"],
            "models.drift_calls": c["models.drift"],
            "models.drift_s": s["models.drift"],
            "models.drift_ns_per_particle": (
                s["models.drift"] * 1e9 / n["drift_particles"] if n["drift_particles"] else 0.0
            ),
            "models.diffusion_s": s["models.diffusion"],
            "models.measure_calls": c["models.measure"],
            "models.measure_s": s["models.measure"],
            "stepper.steps": steps,
            "stepper.step_us": t["stepper.step"] * 1e6 / steps if steps else 0.0,
            "stepper.step_self_us": step_self * 1e6 / steps if steps else 0.0,
            "stepper.particle_step_ns": (
                t["stepper.step"] * 1e9 / n["particle_steps"] if n["particle_steps"] else 0.0
            ),
            "stepper.newton_evals_per_step": (
                n["newton_evals"] / c["stepper.split_step"] if c["stepper.split_step"] else 0.0
            ),
            "stepper.newton_failures": n["newton_failures"],
            "stepper.simulate_self_s": s["stepper.simulate"],
            "stats.kde_calls": c["stats.kde"],
            "stats.kde_s": t["stats.kde"],
            "stats.w2_calls": c["stats.w2"],
            "stats.w2_s": t["stats.w2"],
            "stats.rmse_s": t["stats.rmse"],
            "experiments.self_s": s["experiments.run"],
            "experiments.grids_generated": n["grids_generated"],
            "experiments.grid_reuse_ratio": (
                len(self.grids) / n["grids_generated"] if n["grids_generated"] else 1.0
            ),
            "output.csv_s": t["output.csv"],
            "output.write_s": t["output.write"],
            "output.bytes": n["bytes"],
            "svgplot.svg_s": t["svgplot.svg"],
            "config.load_s": t["config.load"],
            "cli.import_s": import_s,
        }
