"""Domain types shared by the discrete and discretized-continuous settings.

Everything here is an immutable value object: budget-level spaces, problem
instances, base arms (resource, level) and allocations. The only operations
are the budget in integer level units and the enumeration of the level
vectors that fit it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np

# Absolute tolerance when a grid budget is converted to integer level units;
# absorbs the float error in budget / pitch.
BUDGET_TOL = 1e-9


@dataclass(frozen=True)
class ActionSpace:
    """Budget levels available to every resource.

    Two flavors: native integer budgets 0..n-1 (pitch 1) and uniform grids
    {0, pitch, ..., (n-1)*pitch} produced by discretizing a continuous
    interval. Level 0 always carries zero budget, so the all-zeros allocation
    is feasible whatever the total budget.
    """

    n: int
    pitch: float = 1.0
    is_grid: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one level, got n={self.n}")
        if not (np.isfinite(self.pitch) and self.pitch > 0):
            raise ValueError(f"pitch must be positive and finite, got {self.pitch}")
        if not self.is_grid and self.pitch != 1.0:
            raise ValueError("native integer spaces have pitch 1")

    @classmethod
    def integer_levels(cls, n: int) -> "ActionSpace":
        """Native discrete space {0, 1, ..., n-1}."""
        return cls(n=int(n), pitch=1.0, is_grid=False)

    @classmethod
    def uniform_grid(cls, n: int, pitch: float) -> "ActionSpace":
        """Uniform grid {0, pitch, ..., (n-1)*pitch}."""
        return cls(n=int(n), pitch=float(pitch), is_grid=True)

    def value(self, level: int) -> float:
        """Budget carried by a level index."""
        if not 0 <= level < self.n:
            raise ValueError(f"level {level} outside 0..{self.n - 1}")
        return level * self.pitch

    @property
    def level_values(self) -> np.ndarray:
        return np.arange(self.n) * self.pitch

    @property
    def max_value(self) -> float:
        return (self.n - 1) * self.pitch


@dataclass(frozen=True)
class ArmId:
    """Base arm (k, a): give budget level a to resource k. k is 1-based."""

    k: int
    a: int


@dataclass(frozen=True)
class Allocation:
    """One level index per resource."""

    levels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class ProblemConfig:
    """An allocation instance: `resources` players splitting budget `budget`
    over one shared level space."""

    resources: int
    budget: float
    space: ActionSpace

    def __post_init__(self) -> None:
        if self.resources < 1:
            raise ValueError(f"resources must be >= 1, got {self.resources}")
        if not (np.isfinite(self.budget) and self.budget >= 0):
            raise ValueError(f"budget must be a nonnegative real, got {self.budget}")
        if not self.space.is_grid and self.space.n > self.budget + 1:
            raise ValueError(
                f"levels must satisfy levels <= budget + 1, got {self.space.n} "
                f"levels with budget {self.budget}"
            )

    @property
    def capacity_units(self) -> int:
        """Total budget in integer level units (level i costs i units)."""
        return int(np.floor(self.budget / self.space.pitch + BUDGET_TOL))

    @property
    def arm_count(self) -> int:
        return self.resources * self.space.n


def iter_feasible_levels(cfg: ProblemConfig) -> Iterator[tuple[int, ...]]:
    """Every feasible level vector, in lexicographic order.

    The first K - 1 resources are walked in Python; the last resource's
    levels are appended to each prefix by ``map`` over precomputed 1-tuples,
    so a row costs one tuple concatenation in C."""
    n = cfg.space.n
    last = cfg.resources - 1
    tails = [(a,) for a in range(n)]

    def rows(prefix: tuple[int, ...], remaining: int) -> Iterator[Iterator]:
        if len(prefix) == last:
            yield map(prefix.__add__, tails[: min(n - 1, remaining) + 1])
            return
        for a in range(min(n - 1, remaining) + 1):
            yield from rows(prefix + (a,), remaining - a)

    return chain.from_iterable(rows((), cfg.capacity_units))
