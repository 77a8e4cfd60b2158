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

run steps a block of independent runs ("lanes") of one instance in lockstep,
one model and solver per lane: the statistics of all lanes sit in (R, K, n)
arrays, so the radii, the clamp and, when every lane runs the exact DP, the
solver's backward pass cost one set of numpy calls per round for the whole
block. The reward transform, the range check, the fold and the coin flips
stay per lane, in the one-lane order, so every lane's trace equals the trace
of that lane run alone. A one-lane run is the same loop with R = 1. run
holds nothing that grows with the horizon: a trace holds the end-of-run
statistics, the per-round means and radii leave the run only through its
one observer, and the played levels, rewards and expected values only
through its one sink, once per chunk; each is shown the whole block. Only a
sink makes run read the true means, for the expected values it is shown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ProblemConfig
from .environment import RewardModel
from .oracle import _lane_solver, _SolverBase, allocation_value

# Rounds per chunk in run(): one batch of log evaluations, one block of
# drawn noise, one list of levels and rewards per lane and one sink call.
_CHUNK = 1024

Observer = Callable[[int, np.ndarray, np.ndarray], None]  # see run
Sink = Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]


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
    """End-of-run statistics of one run; per-round values go to its sink."""

    config: ProblemConfig
    stats: ArmStats  # end-of-run counts and empirical means


def run(
    model: RewardModel | Sequence[RewardModel],
    solver: _SolverBase | Sequence[_SolverBase],
    cfg: ProblemConfig,
    horizon: int,
    observer: Observer | None = None,
    sink: Sink | None = None,
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
    observer, sink:
        Optional callables. observer(t, emp_means, radii) is called once per
        round with the start-of-round statistics, before the allocation is
        chosen; sink(start, levels, rewards, expected) after each chunk of
        up to 1024 rounds from round ``start`` on, with its level indices,
        rewards and expected values. A one-lane run shows them (K, n),
        (rounds, K) and (rounds,) arrays; with lanes each has a leading axis
        of the R lanes, in order. The arrays are views of buffers the run
        reuses; callbacks must not mutate them, and copy what they keep.
        They are the one way to see anything per round. The expected values
        are the true expected total rewards of the played allocations, read
        from the models' closed-form means for the sink alone: a run without
        a sink never reads those means, and no decision depends on them.

    Returns
    -------
    RunTrace, or a list of them with lanes
        End-of-run statistics.
    """
    lanes = not isinstance(model, RewardModel)
    models, solvers = (list(model), list(solver)) if lanes else ([model], [solver])
    if not models or len(solvers) != len(models):
        raise ValueError("lanes need one model and one solver each")
    for name, callback in (("observer", observer), ("sink", sink)):
        if callback is not None and not callable(callback):
            raise ValueError(f"{name} must be one callable, not {type(callback).__name__}")
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

    resources = cfg.resources
    resource_ids = range(1, resources + 1)
    shape = (len(models), resources, cfg.space.n)

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

    # With a sink, each lane keeps its levels and rewards of a chunk in flat
    # lists, converted once per chunk (cheaper than a row per round), and
    # the chunk's expected values are read from the lanes' true means.
    means = [m.mean_matrix(cfg.space) for m in models] if sink is not None else None
    # The callbacks see the block with lanes and lane 0 in a one-lane run.
    shown = slice(None) if lanes else 0
    shown_emp, shown_radii = emp_means[shown], radii[shown]

    for start in range(1, horizon + 1, _CHUNK):
        stop = min(start + _CHUNK, horizon + 1)
        rounds = stop - start
        half_logs = (1.5 * np.log(np.arange(start, stop, dtype=np.float64))).tolist()
        if start == 1:
            # Every arm is untried in round 1, where ln 1 = 0 would give 0 / 0.
            half_logs[0] = np.inf
        # Philox addressing gives a round the same uniforms in any block;
        # row i of a lane's (rounds, K) uniforms belongs to round start + i.
        block = [
            (m, table, m.uniform_block(resource_ids, start, rounds).T, *lane, [], [])
            for m, table, *lane in zip(models, tables, counts, emp_means)
        ]
        for i, half_log in enumerate(half_logs):
            with np.errstate(divide="ignore"):
                np.divide(half_log, counts, out=radii)
            np.sqrt(radii, out=radii)
            if observer is not None:
                observer(start + i, shown_emp, shown_radii)
            np.add(emp_means, radii, out=upper)
            chosen = solve(np.minimum(upper, 1.0, out=upper))
            for lane, levels in zip(block, chosen):
                m, table, uniforms, lane_counts, lane_emp, lane_played, lane_seen = lane
                rewards = m.rewards_from_uniforms(table, levels, uniforms[i])
                for reward in rewards:  # written so that NaN fails too
                    if not 0.0 <= reward <= 1.0:
                        raise AssertionError("environment produced a reward outside [0, 1]")
                if sink is not None:
                    lane_played.extend(levels)
                    lane_seen.extend(rewards)
                _fold(lane_counts, lane_emp, levels, rewards)
        if sink is not None:
            shape = (len(block), rounds, resources)
            played = np.array([lane[-2] for lane in block], dtype=np.int64).reshape(shape)
            rewards = np.array([lane[-1] for lane in block]).reshape(shape)
            # allocation_value folds each round's levels from the last
            # resource back, the same doubles whatever the chunking.
            expected = np.array([allocation_value(mu, lv) for mu, lv in zip(means, played)])
            sink(start, played[shown], rewards[shown], expected[shown])

    traces = [
        RunTrace(cfg, ArmStats(lane_counts.astype(np.int64), lane_emp.copy()))
        for lane_counts, lane_emp in zip(counts, emp_means)
    ]
    return traces if lanes else traces[0]
