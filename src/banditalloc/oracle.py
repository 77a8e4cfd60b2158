"""Offline allocation solvers.

Given a matrix of per-arm values, pick one budget level per resource so the
total budget stays within the cap and the summed value is maximal (the exact
dynamic program) or at least decent (the marginal-gain greedy). A wrapper
simulates oracles that only succeed with some probability beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import streams
from .core import Allocation, ProblemConfig

# Success coins CoinFlipOracle draws per refill of its buffer.
_COIN_BLOCK = 1024


@dataclass(frozen=True)
class OracleSpec:
    """Declared quality of an offline solver: with probability at least beta
    it returns an allocation worth at least alpha times the optimum."""

    alpha: float = 1.0
    beta: float = 1.0
    kind: str = "exact_dp"

    def __post_init__(self) -> None:
        if self.kind not in ("exact_dp", "greedy"):
            raise ValueError(f"unknown solver kind {self.kind!r}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        # The dynamic program is exact, so alpha < 1 would misdeclare it.
        # beta < 1 is allowed: it describes the coin-wrapped variant.
        if self.kind == "exact_dp" and self.alpha != 1.0:
            raise ValueError("the exact solver always has alpha = 1")


@dataclass(frozen=True)
class OracleResult:
    """Solver output: the chosen allocation and its value under the input
    matrix (not under any true means)."""

    allocation: Allocation
    value: float


def allocation_value(means: np.ndarray, levels) -> float:
    """Objective sum_k means[k, levels[k]].

    Accumulated from the last resource backwards, matching the dynamic
    program's internal fold bit for bit, so optimality checks against plain
    enumeration can use == instead of a tolerance. Given a (..., K) array
    of level vectors, returns the (...) values of its rows, folded the same
    way; one level vector gives a float.
    """
    total = 0.0
    for row, column in zip(means[::-1], np.asarray(levels).T[::-1]):
        total = total + row[column]
    return total if np.ndim(total) else float(total)


def _check_means(means: np.ndarray, cfg: ProblemConfig) -> np.ndarray:
    means = np.asarray(means, dtype=np.float64)
    want = (cfg.resources, cfg.space.n)
    if means.shape != want:
        raise ValueError(f"means must have shape {want}, got {means.shape}")
    if np.count_nonzero(np.isfinite(means)) != means.size:
        raise ValueError("means must be finite")
    return means


class _SolverBase:
    """Shared result plumbing. Concrete solvers implement _levels, which
    receives a matrix _check_means has already validated and returns a list
    of K levels, or override solve_levels; solve calls solve_levels, which
    validates the means and returns an int64 array."""

    def __init__(self, cfg: ProblemConfig, kind: str):
        self.cfg = cfg
        self.spec = OracleSpec(1.0, 1.0, kind)
        # No allocation can spend more than resources*(n-1) units, so larger
        # budgets buy nothing more.
        self._cap = min(cfg.capacity_units, cfg.resources * (cfg.space.n - 1))

    def _levels(self, means: np.ndarray) -> list[int]:
        raise NotImplementedError

    def solve_levels(self, means: np.ndarray) -> np.ndarray:
        return np.array(self._levels(_check_means(means, self.cfg)), dtype=np.int64)

    def solve(self, means: np.ndarray) -> OracleResult:
        levels = self.solve_levels(means)
        means = np.asarray(means, dtype=np.float64)
        alloc = Allocation(tuple(int(a) for a in levels))
        return OracleResult(alloc, allocation_value(means, levels))


class ExactDpSolver(_SolverBase):
    """Exact multiple-choice knapsack solver over integer budget units.

    Level i costs i units (one unit = the space pitch). Row k of the suffix
    table holds, at column c, the best value attainable from resources k..
    with c units left. Resource k with c units left gets the lowest level
    among the fewest-unit maximizers, so ties resolve toward the smaller
    total budget, then toward the lexicographically smallest level vector.
    The backward pass keeps every middle row's first maximizer at each
    column, and the forward pass picks each level from them at the one
    column it reaches: identical inputs give identical allocations.

    The units are read from the value rows, not kept in tables of their own:
    the fewest units among the maximizers at column c is the first column
    where the row reaches its value at c, row.searchsorted(row[c]). Every
    value is a fold over an allocation accumulated from the last resource
    backwards, independent of the capacity, and rounding is monotone, so
    m + max(x) == max(m + x): a row's value at c is exactly the largest fold
    among the allocations that spend at most c units. The row is
    nondecreasing, and an allocation with the fewest units u among those
    maximizers already reaches the value at column u, while no column
    before u does. So every maximizer at that first column spends exactly u
    units, and the choice at c is the first maximizer at column u.

    The tie order has one exception, where rounding absorbs a difference:
    two allocations whose tails differ can fold to the same total, and the
    forward pass then follows the tail with the larger row value, not the
    one with fewer units. With two resources, budget 2 and means
    [[1, 0, 0], [0, 0.5, nextafter(0.5, 1)]], 1 + 0.5 == 1 +
    nextafter(0.5, 1), so (0, 1) and (0, 2) tie on value, and the solver
    returns (0, 2).

    Only the rows of middle resources are built from full (cap + 1, n)
    candidate tables, read from the next row through a sliding-window view
    that copies nothing; the one candidate buffer is the solver's only
    table of that size. The last row is a running maximum of the last
    resource's values, because the row after it is all zeros. The first row
    is read only at column cap, so it is solved there alone, with the same
    tie-break.

    The learner solves a block of lanes at once: _levels_lanes takes an
    (R, K, n) stack of mean matrices and runs the backward pass's numpy
    calls once over all R, on buffers sized for the last lane count seen.
    Each lane's arithmetic is the one-matrix arithmetic, so lane r's
    allocation is _levels(means[r]).
    """

    def __init__(self, cfg: ProblemConfig):
        super().__init__(cfg, "exact_dp")
        n, cap = cfg.space.n, self._cap
        self._n = n
        self._resources = cfg.resources
        self._top = min(n - 1, cap)  # the first row's highest affordable level
        self._lanes = 0  # the lane count the buffers are sized for

    def _size_for(self, lanes: int) -> None:
        resources, n, cap = self._resources, self._n, self._cap
        # The suffix rows of resource k, one per lane, sit after n - 1
        # columns of -inf, the value of spending more units than are left;
        # rows[k] views them over columns 0..cap. window[k][r, c, a] is lane
        # r's row k at column c - a, the -inf pad where a > c: every DP
        # candidate is a level's mean plus a window entry. The first row is
        # solved at column cap alone, so only a single resource needs row 0.
        skip = min(1, resources - 1)
        suf = np.empty((resources - skip, lanes, cap + n))
        suf[:, :, : n - 1] = -np.inf
        rows = [None] * skip + list(suf[:, :, n - 1 :])
        window = [None] * skip + list(sliding_window_view(suf, n, axis=-1)[..., ::-1])
        self._rows = rows
        self._window = window
        self._lanes = lanes
        last_rows = rows[-1]
        if cap < n:
            self._last_out = last_rows
        else:
            # Past column n - 1 the last row repeats its value there.
            self._last_out = last_rows[:, :n]
            self._last_fill = (last_rows[:, n:], last_rows[:, n - 1 : n])
        if resources > 1:
            # The first row at column cap: candidates for levels 0..top read
            # the next row at cap, cap-1, ..., cap-top.
            top = self._top
            self._next_rev = window[1][:, cap, : top + 1]
            self._row0_cand = np.empty((lanes, top + 1))
            self._row0_rev = self._row0_cand[:, ::-1]
        if resources > 2:
            self._cand = np.empty((lanes, cap + 1, n))
            # maximizer[k, r, c]: the first maximizer of lane r's candidates
            # for middle resource k at column c.
            self._maximizer = np.empty((resources, lanes, cap + 1), dtype=np.int64)

    def _levels(self, means: np.ndarray) -> list[int]:
        return self._levels_lanes(means[None])[0]

    def _levels_lanes(self, means: np.ndarray) -> list[list[int]]:
        """The R allocations, as lists of K ints, of an (R, K, n) stack of
        finite mean matrices."""
        lanes = means.shape[0]
        if lanes != self._lanes:
            self._size_for(lanes)
        resources, n, cap = self._resources, self._n, self._cap
        rows = self._rows
        last = resources - 1
        # The last row: column c covers the last resource's levels
        # 0..min(c, n - 1).
        if cap < n:
            np.maximum.accumulate(means[:, last, : cap + 1], axis=1, out=self._last_out)
        else:
            np.maximum.accumulate(means[:, last], axis=1, out=self._last_out)
            np.copyto(*self._last_fill)

        for k in range(resources - 2, 0, -1):
            cand = np.add(self._window[k + 1], means[:, k, None], out=self._cand)
            cand.argmax(axis=2, out=self._maximizer[k])
            cand.max(axis=2, out=rows[k])

        if last:
            top = self._top
            cand_v = np.add(means[:, 0, : top + 1], self._next_rev, out=self._row0_cand)
            # argmax returns the first maximizer; on the reversed row, the last.
            firsts = cand_v.argmax(axis=1).tolist()
            lasts = self._row0_rev.argmax(axis=1).tolist()
        chosen = []
        for r in range(lanes):
            levels = []
            c = cap
            if last:
                a = firsts[r]
                if a != top - lasts[r]:
                    # Tied values: the fewest units spent wins, then the lowest level.
                    tied = (cand_v[r] == cand_v[r, a]).nonzero()[0]
                    next_row = rows[1][r]
                    tied_u = tied + next_row.searchsorted(next_row[c - tied])
                    a = int(tied[tied_u.argmin()])
                levels.append(a)
                c -= a
            for k in range(1, last):
                # The first maximizer at the first column reaching row[c].
                row = rows[k][r]
                a = self._maximizer.item(k, r, row.searchsorted(row[c]))
                levels.append(a)
                c -= a
            # Below the last resource nothing is spent, so its units are its
            # level: where the running maximum first reaches its value at c.
            row = rows[last][r]
            levels.append(int(row.searchsorted(row[c])))
            chosen.append(levels)
        return chosen


class GreedySolver(_SolverBase):
    """Upgrade greedy: repeatedly apply the single-resource level upgrade with
    the largest value gain per unit of budget, until no affordable upgrade has
    a strictly positive gain.

    Multi-level jumps count as one upgrade (gain divided by the full budget
    step), which lets the heuristic climb past locally flat stretches. Ties
    prefer the smaller resource index, then the smaller target level. No
    approximation ratio is claimed; measure it per instance against
    ExactDpSolver.

    ratios[k] and targets[k] hold resource k's best upgrade, the first
    maximizer of the ratio over its affordable target levels (ratio 0 and
    target levels[k] if no ratio is positive). An upgrade changes only the
    upgraded resource's candidates and shrinks everyone else's to a shorter
    prefix of target levels, so a kept upgrade stays the first maximizer while
    it remains affordable, and a resource with no positive ratio never gains
    one. Every resource starts out of reach and is scanned once; from then on
    only the upgraded resource and those whose target no longer fits the
    remaining budget are rescanned.
    """

    def __init__(self, cfg: ProblemConfig):
        super().__init__(cfg, "greedy")
        # steps[d]: the budget of a d-level upgrade.
        self._steps = [d * cfg.space.pitch for d in range(cfg.space.n)]

    def _levels(self, means: np.ndarray) -> list[int]:
        rows = means.tolist()
        top_level = self.cfg.space.n - 1
        steps = self._steps
        room = self._cap  # budget units not yet spent
        levels = [0] * len(rows)
        ratios = [0.0] * len(rows)
        targets = [room + 1] * len(rows)  # out of reach: scan every resource
        pick = -1
        while True:
            for k, row in enumerate(rows):
                cur = levels[k]
                if k != pick and targets[k] - cur <= room:
                    continue
                base = row[cur]
                best_ratio = 0.0
                best = cur
                for b in range(cur + 1, min(top_level, cur + room) + 1):
                    # A gain <= 0 (finite means make no NaN) never beats 0.0.
                    ratio = (row[b] - base) / steps[b - cur]
                    if ratio > best_ratio:
                        best_ratio = ratio
                        best = b
                ratios[k] = best_ratio
                targets[k] = best
            best_ratio = max(ratios)
            if best_ratio <= 0.0:
                return levels
            pick = ratios.index(best_ratio)
            room -= targets[pick] - levels[pick]
            levels[pick] = targets[pick]


class CoinFlipOracle(_SolverBase):
    """Simulates a solver that succeeds only with probability beta.

    Call number c (counted by ``calls``, from 1) flips a Bernoulli(beta) coin,
    the uniform draw at address (seed, streams.COIN_STREAM, c); on success
    it defers to the base solver, on failure it returns the all-zeros
    allocation. The coins are drawn in blocks of consecutive addresses with
    streams.uniform_block, which reproduces the pointwise draws, so runs
    replay exactly for a fixed seed.
    """

    def __init__(self, base: _SolverBase, beta: float, seed: int):
        self.base = base
        self.cfg = base.cfg
        # OracleSpec rejects a beta outside (0, 1].
        self.spec = OracleSpec(base.spec.alpha, float(beta), base.spec.kind)
        self._seed = int(seed)
        self.calls = 0
        # _coins[i] is the coin at address _first + i.
        self._first = 1
        self._coins: list[float] = []

    def _next_heads(self) -> bool:
        """Whether the coin of the next call succeeds; the call is counted
        only once it returns."""
        call = self.calls + 1
        i = call - self._first
        if not 0 <= i < len(self._coins):
            self._first = call
            self._coins = streams.uniform_block(
                self._seed, streams.COIN_STREAM, call, _COIN_BLOCK
            ).tolist()
            i = 0
        return self._coins[i] < self.spec.beta

    def solve_levels(self, means: np.ndarray) -> np.ndarray:
        # The base solver validates the means on success, _check_means on
        # failure; a call whose means are rejected spends no coin.
        if self._next_heads():
            levels = self.base.solve_levels(means)
        else:
            _check_means(means, self.cfg)
            levels = np.zeros(self.cfg.resources, dtype=np.int64)
        self.calls += 1
        return levels


def _lane_solver(solvers) -> Callable[[np.ndarray], list[list[int]]]:
    """A function that maps an (R, K, n) stack of mean matrices to the
    allocations solvers[r].solve_levels(means[r]) of its R lanes, as lists
    of K ints.

    When every lane runs the plain exact DP, one batched backward pass, on
    the first lane's buffers, serves them all, and the caller vouches that
    the means are finite. Any other solvers, coin-wrapped ones included,
    are called lane by lane."""
    if all(type(s) is ExactDpSolver for s in solvers):
        return solvers[0]._levels_lanes
    return lambda means: [s.solve_levels(m).tolist() for s, m in zip(solvers, means)]


def solve_exact_dp(means: np.ndarray, cfg: ProblemConfig) -> OracleResult:
    """One-shot exact solve; build an ExactDpSolver directly to amortize the
    table setup across calls."""
    return ExactDpSolver(cfg).solve(means)


def build_solver(spec: OracleSpec, cfg: ProblemConfig, seed: int = 0) -> _SolverBase:
    """Construct the solver a declared oracle describes, coin-wrapped when
    beta < 1; its spec is the declared one."""
    base: _SolverBase
    if spec.kind == "exact_dp":
        base = ExactDpSolver(cfg)
    else:
        base = GreedySolver(cfg)
    base.spec = OracleSpec(spec.alpha, 1.0, spec.kind)
    if spec.beta < 1.0:
        return CoinFlipOracle(base, spec.beta, seed)
    return base
