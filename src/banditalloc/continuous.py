"""Continuous budgets via a horizon-tuned uniform grid.

When each resource can receive any budget in [0, Q], the interval is cut
into a uniform grid whose pitch balances per-arm learning cost against the
Lipschitz discretization error over the horizon: finer grids waste rounds
exploring near-duplicate levels, coarser ones leave value between grid
points. The learner then runs unchanged on the induced discrete instance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ActionSpace, ProblemConfig
from .environment import RewardModel
from .learner import Observer, RunTrace, Sink, run
from .oracle import OracleSpec, build_solver

# Hard ceiling on grid size; beyond this the per-arm exploration cost
# dominates anything the finer pitch could recover.
DEFAULT_MAX_LEVELS = 4096


@dataclass(frozen=True)
class DiscretizationPlan:
    """A horizon-tuned grid: the optimized pitch, the realized grid, and
    whether the level ceiling forced a coarser pitch than optimized."""

    pitch_target: float  # the optimizer's pitch before rounding to the grid
    pitch: float  # realized pitch Q / (levels - 1)
    levels: int
    grid: ActionSpace
    capped: bool


def plan_discretization(
    smoothness: float,
    budget: float,
    lipschitz: float,
    resources: int,
    horizon: int,
    max_levels: int = DEFAULT_MAX_LEVELS,
) -> DiscretizationPlan:
    """Choose the grid for a continuous-budget run.

    The target pitch is (B^2 Q^2 ln T / (L^2 K T))^(1/3), clamped to at most
    Q so the grid always has at least the two endpoint levels. The realized
    grid snaps to levels = ceil(Q / pitch - 1e-9) + 1 points spanning [0, Q]
    exactly, so the realized pitch is never coarser than the target (up to
    that epsilon) unless the max_levels ceiling bites, in which case the
    plan is marked capped and a warning is emitted.
    """
    if not (np.isfinite(smoothness) and smoothness > 0):
        raise ValueError(f"smoothness must be positive, got {smoothness}")
    if not (np.isfinite(budget) and budget > 0):
        raise ValueError(f"budget must be positive, got {budget}")
    if not (np.isfinite(lipschitz) and lipschitz > 0):
        raise ValueError(f"lipschitz must be positive, got {lipschitz}")
    if resources < 1:
        raise ValueError(f"resources must be >= 1, got {resources}")
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2 so ln T > 0, got {horizon}")
    if max_levels < 2:
        raise ValueError(f"max_levels must be >= 2, got {max_levels}")

    target = (
        smoothness**2 * budget**2 * math.log(horizon) / (lipschitz**2 * resources * horizon)
    ) ** (1.0 / 3.0)
    target = min(target, budget)
    levels = int(math.ceil(budget / target - 1e-9)) + 1
    capped = levels > max_levels
    if capped:
        warnings.warn(
            f"discretization wants {levels} levels; capping at {max_levels} "
            "(coarser pitch than optimized)",
            RuntimeWarning,
            stacklevel=2,
        )
        levels = max_levels
    pitch = budget / (levels - 1)
    return DiscretizationPlan(
        pitch_target=target,
        pitch=pitch,
        levels=levels,
        grid=ActionSpace.uniform_grid(levels, pitch),
        capped=capped,
    )


def run_discretized(
    model: RewardModel,
    oracle_spec: OracleSpec,
    budget: float,
    horizon: int,
    observer: Observer | None = None,
    sink: Sink | None = None,
) -> tuple[RunTrace, DiscretizationPlan]:
    """Plan a grid for the horizon and run the learner on it.

    The plan uses smoothness 1 and the model's own Lipschitz constant, whose
    lookup rejects table models. The hinge family carries its own budget,
    which must match ``budget``. The trace is identical to running the
    discrete learner on the planned grid with build_solver's default seed;
    this function only automates the grid choice. ``observer`` and ``sink``
    go to ``run`` unchanged.
    """
    lip = model.lipschitz_constant()
    if model.family == "hinge" and abs(model.budget - budget) > 1e-12:
        raise ValueError(
            f"hinge model was parameterized for budget {model.budget}, got {budget}"
        )
    plan = plan_discretization(1.0, budget, lip, model.k_count, horizon)
    cfg = ProblemConfig(resources=model.k_count, budget=budget, space=plan.grid)
    solver = build_solver(oracle_spec, cfg)
    trace = run(model, solver, cfg, horizon, observer=observer, sink=sink)
    return trace, plan
