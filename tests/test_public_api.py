"""The package's public surface: adding or dropping a name, or a parameter
of the functions pinned below, edits this file."""

import inspect

import pytest

import banditalloc

PUBLIC_NAMES = [
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


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from banditalloc import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def test_every_entry_resolves():
    for name in banditalloc.__all__:
        assert getattr(banditalloc, name) is not None, name


def test_all_is_pinned():
    assert banditalloc.__all__ == PUBLIC_NAMES


# Parameter names of entry points where every option has a caller outside
# the tests; a new option has to be added here too.
PARAMETERS = {
    "BoundParams": ["smoothness"],
    "CoinFlipOracle": ["base", "beta", "seed"],
    "compute_gaps": ["model", "cfg", "alpha"],
    "regret_series": ["trace", "opt"],
    "run": ["model", "solver", "cfg", "horizon", "observer", "record_history"],
    "run_discretized": ["model", "oracle_spec", "budget", "horizon"],
    "split_discretization_regret": ["trace", "grid_opt", "reference"],
}


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_parameters_are_pinned(name):
    signature = inspect.signature(getattr(banditalloc, name))
    assert list(signature.parameters) == PARAMETERS[name]
