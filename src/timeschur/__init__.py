"""Parallel-in-time multilevel Schur-complement solvers for ODE systems.

The linear path is a direct method: per subdomain, an up-sweep over a tree
of the augmented step maps ``[[phi, g], [0, 1]]`` gives the coarse step and
reduces the block-bidiagonal time system level by level; the coarsest level
is solved sequentially, and a down-sweep from each inflow state reconstructs
exactly. Two nonlinear strategies wrap it: a global
Newton/Picard loop with the direct solver per iteration, and a nonlinear
Schur loop on a chosen level's interface values with nonlinear harmonic
extensions. A benchmark CLI (``timeschur``) runs weak-scaling experiments at
desk scale.
"""

from .errors import (
    NonconvergenceError,
    SingularStepError,
    TaskError,
    TimeSchurError,
    ValidationError,
)
from .integrators import (
    Scheme,
    linear_propagator,
    parse_scheme,
)
from .nonlinear import (
    LinearizationPolicy,
    global_residual,
    linearize_global,
    newton_schur_solve,
    nonlinear_harmonic_extension,
    nonlinear_schur_newton_solve,
    sequential_nonlinear_solve,
)
from .partition import (
    MultilevelPartition,
    build_adaptive_top,
    build_explicit,
    build_uniform,
)
from .problems import (
    OdeProblem,
    by_name,
    cosine_drive,
    forced_riccati,
    linear_decay,
    lotka_volterra,
    random_stable_linear,
    zero_operator,
)
from .runtime import (
    CostEstimate,
    SolverReport,
    WorkerPool,
    available_workers,
)
from .schur import (
    LevelSystem,
    build_linear_system,
    cost_model,
    level_maps,
    ml_solve,
    petrov_galerkin_assemble,
    sequential_solve,
)

__version__ = "0.1.0"

__all__ = [
    "CostEstimate",
    "LevelSystem",
    "LinearizationPolicy",
    "MultilevelPartition",
    "NonconvergenceError",
    "OdeProblem",
    "Scheme",
    "SingularStepError",
    "SolverReport",
    "TaskError",
    "TimeSchurError",
    "ValidationError",
    "WorkerPool",
    "available_workers",
    "build_adaptive_top",
    "build_explicit",
    "build_linear_system",
    "build_uniform",
    "by_name",
    "cosine_drive",
    "cost_model",
    "forced_riccati",
    "global_residual",
    "level_maps",
    "linear_decay",
    "linear_propagator",
    "linearize_global",
    "lotka_volterra",
    "ml_solve",
    "newton_schur_solve",
    "nonlinear_harmonic_extension",
    "nonlinear_schur_newton_solve",
    "parse_scheme",
    "petrov_galerkin_assemble",
    "random_stable_linear",
    "sequential_nonlinear_solve",
    "sequential_solve",
    "zero_operator",
]
