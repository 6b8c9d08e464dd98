"""Particle-method simulation of mean-field (McKean-Vlasov) SDEs whose drift
and diffusion may grow super-linearly, using modified/tamed Euler schemes
with an implicit split-step reference method."""

from .brownian import InitStream, PathGrid, coarsen, derive_seed, generate
from .errors import ConfigError, MvsdeError, NewtonNonConvergence
from .experiments import (
    ConvergenceReport,
    NScalingReport,
    run_convergence,
    run_density,
    run_moments,
    run_nscaling,
    run_paths,
)
from .models import (
    BUILTIN_MODELS,
    MeasureView,
    ModelSpec,
    cubic_interaction_model,
    dirac,
    double_well_model,
    make_model,
    quintic_interaction_model,
    register_model,
)
from .stats import DensityCurve, kde, rmse, w2_1d_quantile
from .stepper import (
    Ensemble,
    SchemeConfig,
    Trajectory,
    euler_step,
    simulate,
    split_step,
)
from .taming import TamingOperator, parse_taming
from .verify import (
    AssumptionReport,
    SampleSpec,
    TheoryConstants,
    check_model,
    check_taming,
    compare_equilibria,
    compute_G,
    doublewell_equilibria_oracle,
)

__version__ = "0.1.0"
