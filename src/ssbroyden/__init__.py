"""Self-scaled Broyden-family quasi-Newton minimization.

Six rank-two inverse-Hessian update variants (BFGS, DFP, and a
dynamically mixed update, each with and without per-iteration
self-scaling) behind a single driver with a strong-Wolfe zoom line
search, plus benchmark problems and a trace-emitting CLI.

The package namespace holds the public API: the driver, its
configuration and results, the variants, the objective contract and its
errors, and the benchmark problems.  The pieces of one iteration (line
search, update chain, kernels) live in their submodules.
"""

from .core import (
    DimensionMismatchError,
    EvaluationError,
    ObjectiveFunction,
)
from .problems import (
    PinnPoisson1D,
    QuadraticProblem,
    RosenbrockProblem,
    default_start,
    make_pinn1d,
    make_quadratic,
    make_rosenbrock,
)
from .solver import (
    ConvergenceTrace,
    Counters,
    IterationRecord,
    SolverConfig,
    SolverState,
    init_state,
    solve,
)
from .updates import VARIANT_ORDER, UpdateVariant

__version__ = "0.1.0"

__all__ = [
    "ConvergenceTrace",
    "Counters",
    "DimensionMismatchError",
    "EvaluationError",
    "IterationRecord",
    "ObjectiveFunction",
    "PinnPoisson1D",
    "QuadraticProblem",
    "RosenbrockProblem",
    "SolverConfig",
    "SolverState",
    "UpdateVariant",
    "VARIANT_ORDER",
    "default_start",
    "init_state",
    "make_pinn1d",
    "make_quadratic",
    "make_rosenbrock",
    "solve",
]
