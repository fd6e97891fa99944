"""Self-scaled Broyden-family quasi-Newton minimization.

Six rank-two inverse-Hessian update variants (BFGS, DFP, and a
dynamically mixed update, each with and without per-iteration
self-scaling) behind a single driver with a strong-Wolfe zoom line
search, plus benchmark problems and a trace-emitting CLI.
"""

from .core import (
    DimensionMismatchError,
    EvaluationError,
    ObjectiveFunction,
)
from .linesearch import (
    LineSearchOutcome,
    LineSearchParams,
    LineSearchStatus,
    ScalarRestriction,
    search,
    wolfe_check,
)
from .problems import (
    PinnPoisson1D,
    QuadraticProblem,
    RosenbrockProblem,
    default_start,
    finite_difference_gradient,
    make_pinn1d,
    make_quadratic,
    make_rosenbrock,
)
from .solver import (
    ConvergenceTrace,
    Counters,
    IterationRecord,
    LineSearchStallError,
    SolverConfig,
    SolverState,
    convergence_check,
    init_state,
    solve,
    step,
)
from .updates import (
    VARIANT_ORDER,
    CurvatureError,
    LostPositiveDefinitenessError,
    ScalingDegeneracyError,
    SingularUpdateError,
    UpdateCoefficients,
    UpdateResult,
    UpdateVariant,
    apply_update,
    compute_base_coefficients,
    compute_tau,
    compute_theta,
    curvature_guard,
    propose_update,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceTrace",
    "Counters",
    "CurvatureError",
    "DimensionMismatchError",
    "EvaluationError",
    "IterationRecord",
    "LineSearchOutcome",
    "LineSearchParams",
    "LineSearchStallError",
    "LineSearchStatus",
    "LostPositiveDefinitenessError",
    "ObjectiveFunction",
    "PinnPoisson1D",
    "QuadraticProblem",
    "RosenbrockProblem",
    "ScalarRestriction",
    "ScalingDegeneracyError",
    "SingularUpdateError",
    "SolverConfig",
    "SolverState",
    "UpdateCoefficients",
    "UpdateResult",
    "UpdateVariant",
    "VARIANT_ORDER",
    "apply_update",
    "compute_base_coefficients",
    "compute_tau",
    "compute_theta",
    "convergence_check",
    "curvature_guard",
    "default_start",
    "finite_difference_gradient",
    "init_state",
    "make_pinn1d",
    "make_quadratic",
    "make_rosenbrock",
    "propose_update",
    "search",
    "solve",
    "step",
    "wolfe_check",
]
