"""Regret accounting, instance gap structure, and bound evaluators.

Everything here consumes the expected values a run's sink is shown and
closed-form environment means; nothing feeds back into the learner. Regret
is measured against the benchmark the caller passes: the optimum for an
exact oracle, or the scaled alpha * beta * opt, the yardstick a
(alpha, beta)-limited offline solver can actually be held to.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import ActionSpace, ProblemConfig, iter_feasible_levels
from .environment import RewardModel
from .oracle import ExactDpSolver

#: Refuse to enumerate action spaces larger than this (n ** resources rows).
MAX_ENUMERATION = 10**7

_CHUNK_ROWS = 1 << 15

#: Ceiling on reference_memory_bytes for the continuous references of an
#: experiment config; a config above it is rejected before anything runs.
REFERENCE_MEMORY_CEILING = 1 << 30


class EnumerationInfeasibleError(ValueError):
    """The instance's action space is too large to enumerate exactly."""


@dataclass(frozen=True)
class BoundParams:
    """Constants the regret bounds depend on.

    smoothness bounds how much the expected total reward can move per unit
    of change in any arm mean (1 when the objective is a plain sum of arm
    means).
    """

    smoothness: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.smoothness) and self.smoothness > 0):
            raise ValueError(f"smoothness must be positive, got {self.smoothness}")


@dataclass(frozen=True)
class GapReport:
    """Suboptimality gap structure of one instance at solver quality alpha.

    Per-arm entries cover only allocations that play the arm AND have a
    strictly positive gap alpha * opt - r: arms never played suboptimally
    get +inf.
    """

    opt: float
    delta_min_per_arm: np.ndarray  # (K, n), +inf where no positive gap exists
    delta_min: float  # min over finite per-arm minima, +inf if none
    delta_max: float  # max positive gap, 0 if every allocation is optimal


@dataclass(frozen=True)
class RegretReport:
    """Cumulative scaled regret along one run."""

    series: np.ndarray  # (T,) cumulative benchmark - expected reward
    final: float
    term_learning: float | None = None  # on-grid part, for discretized runs
    term_discretization: float | None = None  # grid-vs-continuum part


@dataclass(frozen=True)
class ReferenceInterval:
    """Two-sided bracket of the continuous-budget optimum.

    lo is the exact optimum over a reference grid; the true optimum can
    exceed it by at most lipschitz * resources * pitch (rounding each
    continuous budget down to the grid loses at most pitch per resource),
    giving hi. Conservative regret statements measure against hi.
    """

    lo: float
    hi: float
    pitch: float


@dataclass(frozen=True)
class ScalingReport:
    """Regret-vs-horizon shape check against the T^(2/3) (ln T)^(1/3) law."""

    horizons: tuple[int, ...]
    normalized: tuple[float, ...]
    slack: float
    passed: bool


def compute_opt(model: RewardModel, cfg: ProblemConfig) -> float:
    """Best expected total reward of any feasible allocation."""
    return ExactDpSolver(cfg).solve(model.mean_matrix(cfg.space)).value


def compute_continuous_reference(
    model: RewardModel, budget: float, refinement: int
) -> ReferenceInterval:
    """Bracket the optimum over continuous budgets in [0, budget]^K.

    refinement is the number of reference pitches (the grid has
    refinement + 1 levels); the bracket width shrinks linearly in it.
    """
    if refinement < 2:
        raise ValueError(f"refinement must be >= 2, got {refinement}")
    # Raises for table models before any grid solver is built.
    lipschitz = model.lipschitz_constant()
    pitch = budget / refinement
    grid = ProblemConfig(
        resources=model.k_count,
        budget=budget,
        space=ActionSpace.uniform_grid(refinement + 1, pitch),
    )
    lo = compute_opt(model, grid)
    hi = lo + lipschitz * model.k_count * pitch
    return ReferenceInterval(lo=lo, hi=hi, pitch=pitch)


def reference_memory_bytes(resources: int, refinement: int) -> int:
    """Estimated peak memory of compute_continuous_reference, in bytes.

    Its grid has refinement + 1 levels and refinement budget units. With
    three or more resources the exact DP holds a float64 candidate table of
    (refinement + 1)^2 entries. Beside it sit the suffix rows, each after
    refinement columns of -inf, the mean matrix, the middle rows'
    maximizers and the first row's candidates. The fixed term covers
    numpy's iteration buffers; under tracemalloc the estimate stays above
    the peak, and within 5% of it from refinement 1024 on.
    """
    side = refinement + 1
    square = 8 * side * side if resources > 2 else 0
    rows = 8 * ((resources - 1) * (2 * side - 1) + (2 * resources + 1) * side)
    return square + rows + (160 << 10)


def compute_gaps(
    model: RewardModel, cfg: ProblemConfig, alpha: float = 1.0
) -> GapReport:
    """Enumerate every feasible allocation, _CHUNK_ROWS rows at a time from
    iter_feasible_levels, and collect the gap minima per arm and the largest
    gap.

    Exact but exponential: raises EnumerationInfeasibleError when
    n ** resources exceeds MAX_ENUMERATION.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    n = cfg.space.n
    resources = cfg.resources
    if n**resources > MAX_ENUMERATION:
        raise EnumerationInfeasibleError(
            f"{n}^{resources} allocations exceed the enumeration cap {MAX_ENUMERATION}"
        )
    means = model.mean_matrix(cfg.space)
    cols = np.arange(resources)

    def blocks():
        rows = iter_feasible_levels(cfg)
        while block := list(itertools.islice(rows, _CHUNK_ROWS)):
            flat = itertools.chain.from_iterable(block)
            yield np.fromiter(flat, np.int64, len(block) * resources).reshape(-1, resources)

    opt = -np.inf
    for levels in blocks():
        opt = max(opt, float(means[cols, levels].sum(axis=1).max()))

    delta_min = np.full((resources, n), np.inf)
    delta_max = 0.0
    for levels in blocks():
        gaps = alpha * opt - means[cols, levels].sum(axis=1)
        positive = gaps > 0
        if not positive.any():
            continue
        levels = levels[positive]
        gaps = gaps[positive]
        delta_max = max(delta_max, float(gaps.max()))
        for k in range(resources):
            np.minimum.at(delta_min[k], levels[:, k], gaps)

    finite = np.isfinite(delta_min)
    return GapReport(
        opt=opt,
        delta_min_per_arm=delta_min,
        delta_min=float(delta_min[finite].min()) if finite.any() else np.inf,
        delta_max=delta_max,
    )


def regret_series(expected: np.ndarray, opt: float) -> RegretReport:
    """Cumulative regret against a benchmark opt of a run whose (T,)
    per-round expected values, as its sink was shown them, are ``expected``.

    For an (alpha, beta) oracle pass alpha * beta * opt. Negative values are
    meaningful there (the run can beat the scaled benchmark) and are
    preserved, not clipped.
    """
    series = np.cumsum(opt - expected)
    return RegretReport(series=series, final=float(series[-1]))


def split_discretization_regret(
    expected: np.ndarray,
    grid_opt: float,
    reference: ReferenceInterval,
) -> RegretReport:
    """Regret against the conservative continuous benchmark, split into the
    on-grid learning part and the price of the grid itself.

    The series (and final) measure against reference.hi; term_learning
    measures against the grid optimum and term_discretization is
    T * (reference.hi - grid_opt). The two terms sum to the final value up to
    float rounding.
    """
    horizon = len(expected)
    report = regret_series(expected, reference.hi)
    learning = grid_opt * horizon - float(expected.sum())
    price = horizon * (reference.hi - grid_opt)
    return RegretReport(
        series=report.series,
        final=report.final,
        term_learning=learning,
        term_discretization=price,
    )


def dependent_regret_bound(
    gaps: GapReport,
    params: BoundParams,
    budget: float,
    resources: int,
    levels: int,
    horizon: int,
) -> float:
    """Logarithmic gap-dependent regret bound for the instance.

    Sums 48 B^2 Q ln T / delta_min over arms with a finite positive minimum
    gap, plus the constant terms 2 B K n and (pi^2 / 3) K n delta_max.
    Raises when no arm has a positive gap (the bound's premise fails; regret
    is identically zero there anyway).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    finite = np.isfinite(gaps.delta_min_per_arm)
    if not finite.any():
        raise ValueError("no positive gaps: the gap-dependent bound does not apply")
    smoothness = params.smoothness
    lead = float(
        np.sum(
            48.0
            * smoothness**2
            * budget
            * math.log(horizon)
            / gaps.delta_min_per_arm[finite]
        )
    )
    arms = resources * levels
    return (
        lead
        + 2.0 * smoothness * arms
        + (math.pi**2 / 3.0) * arms * gaps.delta_max
    )


def independent_regret_bound(
    params: BoundParams,
    budget: float,
    resources: int,
    levels: int,
    horizon: int,
    delta_max: float,
) -> float:
    """Gap-free sqrt(T) regret bound for the instance.

    14 B sqrt(Q K n T ln T) plus the same constant terms as the dependent
    bound. Valid for any gap structure; at horizon 1 the leading term
    vanishes because ln 1 = 0.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if delta_max < 0:
        raise ValueError(f"delta_max must be nonnegative, got {delta_max}")
    smoothness = params.smoothness
    arms = resources * levels
    lead = 14.0 * smoothness * math.sqrt(
        budget * arms * horizon * math.log(horizon)
    )
    return lead + 2.0 * smoothness * arms + (math.pi**2 / 3.0) * arms * delta_max


def _theorem2_rate(t: int) -> float:
    """Theorem 2's regret rate T^(2/3) (ln T)^(1/3)."""
    return t ** (2.0 / 3.0) * math.log(t) ** (1.0 / 3.0)


def scaling_check(
    final_regrets: Mapping[int, float], slack: float = 0.25
) -> ScalingReport:
    """Check that regret grows no faster than T^(2/3) (ln T)^(1/3).

    Normalizes each final regret by that law and requires the normalized
    sequence to be non-increasing in the horizon up to a multiplicative
    slack. Needs at least three horizons spanning two decades; anything less
    cannot distinguish the shape from linear growth.
    """
    if slack < 0:
        raise ValueError(f"slack must be nonnegative, got {slack}")
    horizons = sorted(final_regrets)
    if len(horizons) < 3:
        raise ValueError("need at least three horizons")
    if horizons[0] < 2:
        raise ValueError("horizons must be >= 2 so ln T > 0")
    if horizons[-1] < 100 * horizons[0]:
        raise ValueError("horizons must span at least two decades")
    normalized = tuple(final_regrets[t] / _theorem2_rate(t) for t in horizons)
    passed = all(
        later <= (1.0 + slack) * earlier
        for earlier, later in zip(normalized, normalized[1:])
    )
    return ScalingReport(
        horizons=tuple(horizons), normalized=normalized, slack=slack, passed=passed
    )


class CoverageObserver:
    """Count the rounds whose start-of-round statistics had some arm's
    empirical mean outside its confidence interval, |emp - true| >= radius.
    Untried arms have an infinite radius and never count.

    Attach as the runner's observer; nothing per round is stored. The theory
    predicts at most (pi^2 / 3) * arm_count such rounds in expectation,
    independent of the horizon. Holds the true means, so it lives strictly
    on the analysis side of the learner/analysis wall.

    ``count`` is an int for (K, n) statistics and an (R,) int64 array, one
    count per lane, for an (R, K, n) block. ``counts_at[h]`` is the count
    over rounds 1..h for each of the given ``horizons`` the run reaches, so
    one long run answers every shorter horizon.
    """

    def __init__(self, mean_matrix: np.ndarray, horizons: Iterable[int] = ()):
        self._mu = np.asarray(mean_matrix, dtype=np.float64)
        self._marks = frozenset(horizons)
        self.count = 0
        self.counts_at: dict[int, int | np.ndarray] = {}
        self._gap = None  # sized by the first round

    def __call__(self, t: int, emp_means: np.ndarray, radii: np.ndarray) -> None:
        if self._gap is None:
            # Buffers and per-lane means: no round allocates or broadcasts.
            # Out arguments go by position, which costs less than by keyword.
            shape = emp_means.shape
            self._mu = np.broadcast_to(self._mu, shape).copy()
            self._gap, self._outside = np.empty(shape), np.empty(shape, dtype=bool)
            self.count = np.zeros(shape[0], dtype=np.int64) if len(shape) > 2 else 0
        gap = np.abs(np.subtract(emp_means, self._mu, self._gap), self._gap)
        if np.count_nonzero(np.greater_equal(gap, radii, self._outside)):
            # count is replaced, never changed in place, so counts_at may
            # keep it; tolist() keeps a one-lane count a Python int.
            self.count = self.count + self._outside.any(axis=(-2, -1)).tolist()
        if t in self._marks:
            self.counts_at[t] = self.count
