"""Optimistic allocation learner over (resource, budget-level) base arms.

Each round t the learner inflates every arm's empirical mean by the
confidence radius sqrt(3 ln t / (2 count)), clamps the result into [0, 1],
asks the offline solver for the best allocation under those optimistic
values, plays it, and folds the observed per-resource rewards back into the
statistics (semi-bandit feedback: one observation per resource per round, not
one per round).

Untried arms have an infinite radius, so their optimistic value is the clamp
value 1. That does not make every arm get pulled: a tried arm whose clamped
value is also 1 ties with an untried one, and the solver's tie-break (fewest
budget units, then the lowest levels) can keep choosing the tried arm. On
the 3x4 reference instance of the acceptance tests (reward seed 7, 50,000
rounds) the second resource's level-0 arm has mean 0.979, its optimistic
value sits at 1, and its top level is never pulled: that resource's level
counts end at [49958, 22, 20, 0]. There is no initial round-robin over the
arms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ProblemConfig
from .environment import RewardModel
from .oracle import _SolverBase, allocation_value

# Rounds per batch of log evaluations in run().
_LOG_CHUNK = 1024


@dataclass
class ArmStats:
    """Pull counts and running empirical means, one cell per base arm."""

    counts: np.ndarray  # (K, n) int64, zero-initialized
    emp_means: np.ndarray  # (K, n) float64, 0 wherever the count is 0


def _radii_into(
    radii: np.ndarray, twice_counts: np.ndarray, tried: np.ndarray, scaled_log: float
) -> None:
    """Write sqrt(3 ln t / (2 count)) into ``radii`` for the arms ``tried``
    marks, given ``scaled_log`` = 3 ln t and the float ``twice_counts`` =
    2 count. The entries of untried arms must hold +inf already and keep it,
    so no division by zero happens (at t = 1 every arm is untried). Pass
    ``tried=True`` once every arm has a count."""
    np.divide(scaled_log, twice_counts, out=radii, where=tried)
    np.sqrt(radii, out=radii)


def _clamp_upper(emp_means, radii, out: np.ndarray) -> np.ndarray:
    """Write the optimistic values min(1, emp_mean + radius) into ``out``."""
    np.add(emp_means, radii, out=out)
    return np.minimum(out, 1.0, out=out)


def _fold(counts, emp_means, levels, rewards, twice_counts) -> int:
    """Fold one reward per resource into its pulled arm as the running mean
    mean += (reward - mean) / count, keeping the float twice_counts =
    2 count alongside; returns how many of those arms were untried. A round
    touches one cell per resource, so the cells are written one at a time
    rather than through fancy indexing."""
    first_pulls = 0
    for k, (a, reward) in enumerate(zip(levels, rewards)):
        seen = counts.item(k, a) + 1
        counts[k, a] = seen
        twice_counts[k, a] = 2.0 * seen
        prev = emp_means.item(k, a)
        emp_means[k, a] = prev + (reward - prev) / seen
        if seen == 1:
            first_pulls += 1
    return first_pulls


@dataclass
class RunTrace:
    """Round-by-round record of one learning run."""

    levels: np.ndarray  # (T, K) chosen level indices
    rewards: np.ndarray  # (T, K) observed per-resource rewards
    expected: np.ndarray  # (T,) true expected total reward of the played allocation
    config: ProblemConfig
    stats: ArmStats  # end-of-run counts and empirical means
    emp_snapshots: np.ndarray | None = None  # (T, K, n) start-of-round emp means
    radius_snapshots: np.ndarray | None = None  # (T, K, n) start-of-round radii

    def __len__(self) -> int:
        return self.expected.shape[0]


def _snapshot_observer(emp_snap, rad_snap, then=None):
    """An observer that copies round t's statistics into row t - 1 of the
    snapshot arrays, then calls ``then`` if one is given."""

    def observe(t: int, emp_means: np.ndarray, radii: np.ndarray) -> None:
        emp_snap[t - 1] = emp_means
        rad_snap[t - 1] = radii
        if then is not None:
            then(t, emp_means, radii)

    return observe


def run(
    model: RewardModel,
    solver: _SolverBase,
    cfg: ProblemConfig,
    horizon: int,
    record_internals: bool = False,
    observer: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> RunTrace:
    """Run the learner for ``horizon`` rounds against a reward model.

    Parameters
    ----------
    model, solver, cfg:
        Environment, offline solver and the instance both agree on.
    horizon:
        Number of rounds T >= 1.
    record_internals:
        Keep per-round empirical means and radii on the trace ((T, K, n)
        arrays, so reserve memory accordingly). They are copied by an
        observer that runs before ``observer``.
    observer:
        Optional callback observer(t, emp_means, radii) invoked with the
        start-of-round statistics before the allocation is chosen. The
        arrays are live views; observers must not mutate them. This is the
        hook for diagnostics that need the true means, which the learner
        itself never sees.

    Returns
    -------
    RunTrace
        Per-round allocations, rewards and true expected values. The
        expected-value channel is computed from the model's closed-form
        means purely for analysis; no decision depends on it.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if model.k_count != cfg.resources:
        raise ValueError(
            f"model covers {model.k_count} resources, instance has {cfg.resources}"
        )
    table = model.success_table(cfg.space)  # raises if the space does not fit
    if solver.cfg is not cfg and solver.cfg != cfg:
        raise ValueError("solver was built for a different instance")

    resources = cfg.resources
    n = cfg.space.n
    mean_mat = model.mean_matrix(cfg.space)

    counts = np.zeros((resources, n), dtype=np.int64)
    emp_means = np.zeros((resources, n))
    # The radii live in one buffer that starts at +inf; each round rewrites
    # the tried arms from 2 count (kept as floats) and 3 ln t, which is
    # evaluated per chunk of rounds: np.log over an array gives the same
    # doubles as np.log round by round.
    twice_counts = np.zeros((resources, n))
    tried = np.zeros((resources, n), dtype=bool)
    untried = tried.size
    radii = np.full((resources, n), np.inf)
    upper = np.empty((resources, n))

    level_hist = np.empty((horizon, resources), dtype=np.int64)
    reward_hist = np.empty((horizon, resources))
    emp_snap = rad_snap = None
    if record_internals:
        emp_snap = np.empty((horizon, resources, n))
        rad_snap = np.empty((horizon, resources, n))
        observer = _snapshot_observer(emp_snap, rad_snap, observer)

    for start in range(1, horizon + 1, _LOG_CHUNK):
        stop = min(start + _LOG_CHUNK, horizon + 1)
        scaled_logs = (3.0 * np.log(np.arange(start, stop, dtype=np.float64))).tolist()
        # Philox addressing gives a round the same uniforms in any block.
        uniforms = np.array(
            [model.uniform_block(k, start, stop - start) for k in range(1, resources + 1)]
        )
        for t, scaled_log in zip(range(start, stop), scaled_logs):
            _radii_into(radii, twice_counts, tried if untried else True, scaled_log)
            if observer is not None:
                observer(t, emp_means, radii)
            levels = solver.solve_levels(_clamp_upper(emp_means, radii, upper))
            rewards = model.rewards_from_uniforms(table, levels, uniforms[:, t - start])
            for reward in rewards:
                # Written so that NaN fails too.
                if not 0.0 <= reward <= 1.0:
                    raise AssertionError("environment produced a reward outside [0, 1]")
            first_pulls = _fold(counts, emp_means, levels.tolist(), rewards, twice_counts)
            if first_pulls:
                untried -= first_pulls
                np.greater(counts, 0, out=tried)
            level_hist[t - 1] = levels
            reward_hist[t - 1] = rewards

    return RunTrace(
        levels=level_hist,
        rewards=reward_hist,
        expected=allocation_value(mean_mat, level_hist),
        config=cfg,
        stats=ArmStats(counts=counts, emp_means=emp_means),
        emp_snapshots=emp_snap,
        radius_snapshots=rad_snap,
    )
