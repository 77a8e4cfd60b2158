"""Optimistic allocation learner over (resource, budget-level) base arms.

Each round t the learner inflates every arm's empirical mean by the
confidence radius sqrt(3 ln t / (2 count)), clamps the result into [0, 1],
asks the offline solver for the best allocation under those optimistic
values, plays it, and folds the observed per-resource rewards back into the
statistics (semi-bandit feedback: one observation per resource per round, not
one per round).

The pull counts are kept as floats (exact below 2**53; the end-of-run
statistics hold them as int64), so an untried arm's radius is
sqrt(x / 0) = +inf by IEEE division, with no mask, and its optimistic value
is the clamp value 1. That does not make every arm get pulled: a tried arm
whose clamped value is also 1 ties with an untried one, and the solver's
tie-break (fewest budget units, then the lowest levels) can keep choosing
the tried arm. On the 3x4 reference instance of the acceptance tests
(reward seed 7, 50,000 rounds) the second resource's level-0 arm has mean
0.979, its optimistic value sits at 1, and its top level is never pulled:
that resource's level counts end at [49958, 22, 20, 0]. There is no initial
round-robin over the arms.

run steps a block of independent runs ("lanes") of one instance in
lockstep, one model, solver and observer per lane: the statistics of all
lanes sit in (R, K, n) arrays, so the radii, the clamp and, when every lane
runs the exact DP, the solver's backward pass cost one set of numpy calls
per round for the whole block. The reward transform, the range check, the
fold, the observers and the coin flips stay per lane, in the one-lane
order, so every lane's trace equals the trace of that lane run alone. A
one-lane run is the same loop with R = 1.

A trace keeps the played levels, the rewards, the expected values and the
end-of-run statistics. The per-round empirical means and radii leave run
only through its observer, which may keep whatever it needs of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ProblemConfig
from .environment import RewardModel
from .oracle import _lane_solver, _SolverBase, allocation_value

# Rounds per chunk in run(): one batch of log evaluations, one block of
# drawn noise, one buffer of levels and one fold of expected values.
_CHUNK = 1024

# observer(t, emp_means, radii), called at the start of round t.
Observer = Callable[[int, np.ndarray, np.ndarray], None]


@dataclass
class ArmStats:
    """Pull counts and running empirical means, one cell per base arm."""

    counts: np.ndarray  # (K, n) int64, zero-initialized
    emp_means: np.ndarray  # (K, n) float64, 0 wherever the count is 0


def _fold(counts, emp_means, levels, rewards) -> None:
    """Fold one reward per resource into its pulled arm as the running mean
    mean += (reward - mean) / count, with the counts held as floats. A round
    touches one cell per resource, so the cells are written one at a time
    rather than through fancy indexing."""
    for k, (a, reward) in enumerate(zip(levels, rewards)):
        seen = counts.item(k, a) + 1
        counts[k, a] = seen
        prev = emp_means.item(k, a)
        emp_means[k, a] = prev + (reward - prev) / seen


@dataclass
class RunTrace:
    """Round-by-round record of one learning run."""

    levels: np.ndarray | None  # (T, K) chosen level indices, None unless recorded
    rewards: np.ndarray | None  # (T, K) observed per-resource rewards, likewise
    expected: np.ndarray  # (T,) true expected total reward of the played allocation
    config: ProblemConfig
    stats: ArmStats  # end-of-run counts and empirical means

    def __len__(self) -> int:
        return self.expected.shape[0]


def run(
    model: RewardModel | Sequence[RewardModel],
    solver: _SolverBase | Sequence[_SolverBase],
    cfg: ProblemConfig,
    horizon: int,
    observer: Observer | Sequence[Observer | None] | None = None,
    record_history: bool = True,
) -> RunTrace | list[RunTrace]:
    """Run the learner for ``horizon`` rounds against a reward model.

    Parameters
    ----------
    model, solver, cfg:
        Environment, offline solver and the instance both agree on. To run
        a block of lanes in lockstep, pass a sequence of R models and a
        sequence of R solvers, one per lane; the result is then a list of R
        traces, each equal to the trace of a one-lane run of that lane. A
        solver object listed for several lanes is called once per lane
        each round.
    horizon:
        Number of rounds T >= 1.
    observer:
        Optional callback observer(t, emp_means, radii) invoked with the
        start-of-round statistics before the allocation is chosen; with
        lanes, a sequence of R such callbacks (or None entries), each shown
        its own lane. The arrays are live views; observers must not mutate
        them, and copy what they keep. This is the one way to see the
        per-round statistics, and the hook for diagnostics that need the
        true means, which the learner itself never sees.
    record_history:
        Keep the (T, K) levels and rewards on the trace. Without them a
        trace holds its (T,) expected values and end-of-run statistics
        only, and ``levels`` and ``rewards`` are None.

    Returns
    -------
    RunTrace, or a list of them with lanes
        Per-round allocations, rewards and true expected values. The
        expected-value channel is computed from the model's closed-form
        means purely for analysis; no decision depends on it.
    """
    lanes = not isinstance(model, RewardModel)
    if lanes:
        models, solvers = list(model), list(solver)
        observers = [None] * len(models) if observer is None else list(observer)
    else:
        models, solvers, observers = [model], [solver], [observer]
    if not models or len(solvers) != len(models) or len(observers) != len(models):
        raise ValueError("lanes need one model, one solver and one observer slot each")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    tables = []
    for m, s in zip(models, solvers):
        if m.k_count != cfg.resources:
            raise ValueError(
                f"model covers {m.k_count} resources, instance has {cfg.resources}"
            )
        tables.append(m.success_table(cfg.space))  # raises if the space does not fit
        if s.cfg is not cfg and s.cfg != cfg:
            raise ValueError("solver was built for a different instance")
    # The clamp keeps every optimistic value in [0, 1], so the batched DP
    # may skip the finiteness check.
    solve = _lane_solver(solvers)

    width = len(models)
    resources = cfg.resources
    shape = (width, resources, cfg.space.n)

    # Every lane's statistics are one (K, n) slice of a (R, K, n) block, so
    # the radii and the clamp are computed for all lanes at once. The counts
    # are floats: each round divides 1.5 ln t by them, which equals
    # 3 ln t / (2 count) bit for bit (scaling both sides by 2 is exact), and
    # an untried arm's x / 0 is +inf. ln t is evaluated per chunk of rounds:
    # np.log over an array gives the same doubles as np.log round by round.
    counts = np.zeros(shape)
    emp_means = np.zeros(shape)
    radii = np.empty(shape)
    upper = np.empty(shape)

    means = [m.mean_matrix(cfg.space) for m in models]
    expected = [np.empty(horizon) for _ in models]
    # The levels of a chunk of rounds go to the history when it is kept,
    # and otherwise to a buffer of one chunk per lane, which is all the
    # expected values need.
    if record_history:
        level_hist = [np.empty((horizon, resources), dtype=np.int64) for _ in models]
        reward_hist = [np.empty((horizon, resources)) for _ in models]
    else:
        level_hist = reward_hist = [None] * width
        chunk_levels = [np.empty((_CHUNK, resources), dtype=np.int64) for _ in models]
    watched = [
        (o, e, r) for o, e, r in zip(observers, emp_means, radii) if o is not None
    ]

    for start in range(1, horizon + 1, _CHUNK):
        stop = min(start + _CHUNK, horizon + 1)
        chunk = slice(start - 1, stop - 1)
        half_logs = (1.5 * np.log(np.arange(start, stop, dtype=np.float64))).tolist()
        if start == 1:
            # Every arm is untried in round 1, where ln 1 = 0 would give 0 / 0.
            half_logs[0] = np.inf
        if record_history:
            played = [history[chunk] for history in level_hist]
        else:
            played = [buffer[: stop - start] for buffer in chunk_levels]
        # Philox addressing gives a round the same uniforms in any block;
        # row i of a lane's (rounds, K) uniforms belongs to round start + i.
        block = [
            (
                m,
                table,
                np.stack(
                    [
                        m.uniform_block(k, start, stop - start)
                        for k in range(1, resources + 1)
                    ],
                    axis=1,
                ),
                *lane,
            )
            for m, table, *lane in zip(
                models, tables, counts, emp_means, played, reward_hist
            )
        ]
        for t, half_log in zip(range(start, stop), half_logs):
            with np.errstate(divide="ignore"):
                np.divide(half_log, counts, out=radii)
            np.sqrt(radii, out=radii)
            for observe, lane_emp, lane_radii in watched:
                observe(t, lane_emp, lane_radii)
            np.add(emp_means, radii, out=upper)
            chosen = solve(np.minimum(upper, 1.0, out=upper))
            for lane, levels in zip(block, chosen):
                m, table, uniforms, lane_counts, lane_emp, lane_played, seen = lane
                rewards = m.rewards_from_uniforms(table, levels, uniforms[t - start])
                for reward in rewards:
                    # Written so that NaN fails too.
                    if not 0.0 <= reward <= 1.0:
                        raise AssertionError(
                            "environment produced a reward outside [0, 1]"
                        )
                lane_played[t - start] = levels
                if record_history:
                    seen[t - 1] = rewards
                _fold(lane_counts, lane_emp, levels.tolist(), rewards)
        # allocation_value folds each round's levels from the last resource
        # back, the same doubles whatever the chunking.
        for exp, lane_means, lane_played in zip(expected, means, played):
            exp[chunk] = allocation_value(lane_means, lane_played)

    traces = [
        RunTrace(
            levels=levels,
            rewards=rewards,
            expected=exp,
            config=cfg,
            stats=ArmStats(
                counts=lane_counts.astype(np.int64), emp_means=lane_emp.copy()
            ),
        )
        for levels, rewards, exp, lane_counts, lane_emp in zip(
            level_hist, reward_hist, expected, counts, emp_means
        )
    ]
    return traces if lanes else traces[0]
