"""Budgeted allocation bandits: optimistic learning over discrete or
discretized-continuous per-resource budgets, with exact offline solving,
closed-form reward environments and regret bound evaluators."""

import os

# No code here calls into BLAS, yet on import numpy's OpenBLAS starts one
# worker thread per extra core, and each spins on CPU for a while. Pinning
# OpenBLAS to one thread before numpy is first imported starts none; a value
# the user has set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import (
    BoundParams,
    CoverageObserver,
    EnumerationInfeasibleError,
    GapReport,
    ReferenceInterval,
    RegretReport,
    ScalingReport,
    compute_continuous_reference,
    compute_gaps,
    compute_opt,
    dependent_regret_bound,
    independent_regret_bound,
    regret_series,
    scaling_check,
    split_discretization_regret,
)
from .continuous import DiscretizationPlan, plan_discretization, run_discretized
from .core import (
    ActionSpace,
    Allocation,
    ArmId,
    ProblemConfig,
    iter_feasible_levels,
)
from .environment import RewardModel
from .experiment import (
    ConfigurationError,
    ExperimentConfig,
    ExperimentSummary,
    ProblemParams,
    RewardParams,
    run_experiment,
)
from .learner import (
    ArmStats,
    RunTrace,
    run,
)
from .oracle import (
    CoinFlipOracle,
    ExactDpSolver,
    GreedySolver,
    OracleResult,
    OracleSpec,
    allocation_value,
    build_solver,
    solve_exact_dp,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSpace",
    "Allocation",
    "ArmId",
    "ArmStats",
    "BoundParams",
    "CoinFlipOracle",
    "ConfigurationError",
    "CoverageObserver",
    "DiscretizationPlan",
    "EnumerationInfeasibleError",
    "ExactDpSolver",
    "ExperimentConfig",
    "ExperimentSummary",
    "GapReport",
    "GreedySolver",
    "OracleResult",
    "OracleSpec",
    "ProblemConfig",
    "ProblemParams",
    "ReferenceInterval",
    "RegretReport",
    "RewardModel",
    "RewardParams",
    "RunTrace",
    "ScalingReport",
    "allocation_value",
    "build_solver",
    "compute_continuous_reference",
    "compute_gaps",
    "compute_opt",
    "dependent_regret_bound",
    "independent_regret_bound",
    "iter_feasible_levels",
    "plan_discretization",
    "regret_series",
    "run",
    "run_discretized",
    "run_experiment",
    "scaling_check",
    "solve_exact_dp",
    "split_discretization_regret",
    "__version__",
]
