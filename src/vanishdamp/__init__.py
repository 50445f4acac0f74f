"""Simulation and verification toolkit for gradient systems with
vanishing damping.

The package integrates x'' + a(t) x' + grad G(x) = 0 with an adaptive
embedded Runge-Kutta scheme, classifies the long-time behavior of the
runs, checks energy-decay envelopes against closed-form references, and
replays an averaged stochastic-approximation recursion whose
interpolation converges to the same family of systems.
"""

from .analyze import (
    DensityReport,
    LimitClassification,
    RateFit,
    UpperBoundResult,
    cesaro_mean,
    classify_limit,
    energy_gap_series,
    lower_bound_residual,
    occupation_density,
    omega_limit_extent,
    rate_fit,
    sign_change_gaps,
    upper_bound_check,
)
from .errors import (
    ConfigError,
    DomainError,
    HypothesisError,
    MaxStepsExceeded,
    NonFiniteState,
    SolverError,
    StepUnderflow,
    UnsupportedError,
    VanishDampError,
)
from .integrate import Events, SolverStats, SystemSpec, Trajectory, integrate
from .potential import (
    ConvexityCertificate,
    CriticalPoint,
    Custom as CustomPotential,
    DoubleWell,
    FlatBottom,
    Polynomial1D,
    Potential,
    PPower,
    Quadratic,
    Zero,
    check_base_inequality,
    check_strong_convexity_window,
    critical_points,
    plateau_interval,
)
from .schedule import (
    Constant,
    Custom as CustomSchedule,
    DampingSchedule,
    PowerLaw,
    ScheduleClassification,
    slow_log_example,
)
from .sgd import (
    DiscretePath,
    NoiseModel,
    OdeComparison,
    StepSchedule,
    compare_to_ode,
    run_recursion,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "VanishDampError",
    "DomainError",
    "UnsupportedError",
    "ConfigError",
    "HypothesisError",
    "SolverError",
    "MaxStepsExceeded",
    "StepUnderflow",
    "NonFiniteState",
    # schedules
    "DampingSchedule",
    "Constant",
    "PowerLaw",
    "CustomSchedule",
    "ScheduleClassification",
    "slow_log_example",
    # potentials
    "Potential",
    "Quadratic",
    "PPower",
    "DoubleWell",
    "FlatBottom",
    "Polynomial1D",
    "Zero",
    "CustomPotential",
    "CriticalPoint",
    "ConvexityCertificate",
    "critical_points",
    "check_base_inequality",
    "check_strong_convexity_window",
    "plateau_interval",
    # integration
    "SystemSpec",
    "Trajectory",
    "Events",
    "SolverStats",
    "integrate",
    # analysis
    "energy_gap_series",
    "lower_bound_residual",
    "upper_bound_check",
    "UpperBoundResult",
    "RateFit",
    "rate_fit",
    "cesaro_mean",
    "DensityReport",
    "occupation_density",
    "omega_limit_extent",
    "sign_change_gaps",
    "LimitClassification",
    "classify_limit",
    # stochastic recursion
    "StepSchedule",
    "NoiseModel",
    "DiscretePath",
    "OdeComparison",
    "run_recursion",
    "compare_to_ode",
]
