"""Stochastic reward environments with closed-form means.

Three families, all with rewards in [0, 1] by construction:

- ``table``: one Bernoulli success probability per (resource, level) cell;
  native integer level spaces only.
- ``hinge``: resource k draws a requirement X ~ Uniform[0, theta_k * Q] and
  budget v earns max(v - X, 0) / Q: nothing until the requirement is met,
  then linear growth, normalized by the total budget Q.
- ``concave_exp``: resource k succeeds with probability p_k and a success at
  budget v earns 1 - exp(-v / theta_k), a saturating return curve.

The noise for resource k at round t is a pure function of (rng_seed, k, t),
so two runs with the same seed face identical randomness no matter what they
play, and any round can be replayed in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import streams
from .core import ActionSpace, ArmId

_FAMILIES = ("table", "hinge", "concave_exp")


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RewardModel:
    """A reward distribution family plus its parameters and noise seed.

    Build instances through the ``table``, ``hinge`` and ``concave_exp``
    classmethods, which check the family-specific parameter ranges.
    """

    family: str
    rng_seed: int
    probs: np.ndarray | None = None  # table: (K, N) success probabilities
    thetas: np.ndarray | None = None  # hinge: scale in (0,1]; concave_exp: > 0
    success_probs: np.ndarray | None = None  # concave_exp: (K,) Bernoulli means
    budget: float | None = None  # hinge: the Q scaling requirements and rewards

    @classmethod
    def table(cls, probs, rng_seed: int) -> "RewardModel":
        probs = _frozen_array(probs)
        if probs.ndim != 2 or probs.shape[0] < 1 or probs.shape[1] < 1:
            raise ValueError("table needs a (resources, levels) probability matrix")
        if not np.all((probs >= 0) & (probs <= 1)):
            raise ValueError("probs entries must lie in [0, 1]")
        return cls(family="table", rng_seed=int(rng_seed), probs=probs)

    @classmethod
    def hinge(cls, thetas, budget: float, rng_seed: int) -> "RewardModel":
        thetas = _frozen_array(thetas)
        if thetas.ndim != 1 or thetas.size < 1:
            raise ValueError("hinge needs one theta per resource")
        if not np.all((thetas > 0) & (thetas <= 1)):
            raise ValueError("thetas must lie in (0, 1] for hinge")
        if not (np.isfinite(budget) and budget > 0):
            raise ValueError(f"family hinge needs a positive budget, got {budget}")
        return cls(
            family="hinge", rng_seed=int(rng_seed), thetas=thetas, budget=float(budget)
        )

    @classmethod
    def concave_exp(cls, success_probs, thetas, rng_seed: int) -> "RewardModel":
        success_probs = _frozen_array(success_probs)
        thetas = _frozen_array(thetas)
        if success_probs.ndim != 1 or thetas.shape != success_probs.shape:
            raise ValueError("thetas and success_probs must match in length")
        if not np.all((success_probs >= 0) & (success_probs <= 1)):
            raise ValueError("success_probs must lie in [0, 1]")
        if not np.all(np.isfinite(thetas) & (thetas > 0)):
            raise ValueError("thetas must be positive and finite")
        return cls(
            family="concave_exp",
            rng_seed=int(rng_seed),
            thetas=thetas,
            success_probs=success_probs,
        )

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown reward family {self.family!r}")

    @property
    def k_count(self) -> int:
        """Number of resources the model covers."""
        if self.family == "table":
            return self.probs.shape[0]
        return self.thetas.shape[0]

    def check_space(self, space: ActionSpace) -> None:
        """Raise if the model cannot produce rewards on this level space."""
        if self.family == "table":
            if space.is_grid:
                raise ValueError("table rewards are defined per native level only")
            if space.n != self.probs.shape[1]:
                raise ValueError(
                    f"probs must have one column per level, got "
                    f"{self.probs.shape[1]} columns for {space.n} levels"
                )
        elif self.family == "hinge":
            # Values past Q would push rewards above 1 and break the contract.
            if space.max_value > self.budget + 1e-9:
                raise ValueError(
                    f"hinge levels must stay within the budget {self.budget}, "
                    f"space reaches {space.max_value}"
                )

    # -- sampling ---------------------------------------------------------

    def sample_reward(self, arm: ArmId, space: ActionSpace, t: int) -> float:
        """Draw the reward of a single base arm at round t (t >= 1).

        A view of rewards_from_uniforms: every resource is handed this
        arm's level and uniform, and resource k's entry is returned, so the
        draw is the one the runner sees when it plays the arm at round t.
        """
        table = self.success_table(space)
        if t < 1:
            raise ValueError(f"round index starts at 1, got {t}")
        if not 1 <= arm.k <= self.k_count:
            raise ValueError(f"resource index {arm.k} out of range")
        space.value(arm.a)  # raises on a level outside the space
        u = streams.uniform_at(self.rng_seed, arm.k, t)
        resources = self.k_count
        rewards = self.rewards_from_uniforms(
            table, np.full(resources, arm.a), np.full(resources, u)
        )
        return rewards[arm.k - 1]

    def uniform_block(
        self, k: int | Sequence[int], start: int, count: int
    ) -> np.ndarray:
        """The raw uniforms behind resource k's rewards for rounds
        start..start+count-1: (count,), or (len(k), count) for a sequence
        of resources."""
        return streams.uniform_block(self.rng_seed, k, start, count)

    def success_table(self, space: ActionSpace) -> tuple:
        """The per-(resource, level) constants of the reward transform on a
        level space, as nested lists that rewards_from_uniforms reads.

        For ``table`` and ``concave_exp`` it is a (thresholds, gains) pair:
        resource k at level a earns gains[k][a] when its uniform is below
        thresholds[k][a], and 0 otherwise. ``table`` succeeds with
        probs[k][a] and earns 1; ``concave_exp`` succeeds with p_k and earns
        1 - exp(-v_a / theta_k). For ``hinge`` it is (values, scales, Q):
        the level values, theta_k * Q per resource, and the budget Q.
        Build it once per space; a round then costs one lookup per resource.
        """
        self.check_space(space)
        n = space.n
        if self.family == "table":
            return self.probs.tolist(), [[1.0] * n] * self.k_count
        if self.family == "hinge":
            scales = (self.thetas * self.budget).tolist()
            return space.level_values.tolist(), scales, self.budget
        thresholds = [[p] * n for p in self.success_probs.tolist()]
        return thresholds, self._gains(space).tolist()

    def _gains(self, space: ActionSpace) -> np.ndarray:
        """(K, n) concave_exp gains 1 - exp(-v_a / theta_k), which
        success_table lists and mean_matrix scales by p_k."""
        return 1.0 - np.exp(-space.level_values[None, :] / self.thetas[:, None])

    def rewards_from_uniforms(
        self, table: tuple, levels: np.ndarray, u: np.ndarray
    ) -> list[float]:
        """The reward transform for one round.

        ``table`` is success_table's output for the space being played,
        ``levels`` holds the chosen level index and ``u`` the uniform of
        each resource (the round's slice of uniform_block output). Returns
        one reward per resource.
        """
        levels, u = levels.tolist(), u.tolist()
        if self.family == "hinge":
            values, scales, budget = table
            return [
                max(values[a] - scale * x, 0.0) / budget
                for a, scale, x in zip(levels, scales, u)
            ]
        thresholds, gains = table
        return [
            gain[a] if x < limit[a] else 0.0
            for a, limit, gain, x in zip(levels, thresholds, gains, u)
        ]

    # -- closed-form moments ----------------------------------------------

    def true_mean(self, arm: ArmId, space: ActionSpace) -> float:
        """Exact expected reward of a base arm: its cell of mean_matrix."""
        self.check_space(space)
        if not 1 <= arm.k <= self.k_count:
            raise ValueError(f"resource index {arm.k} out of range")
        space.value(arm.a)  # raises on a level outside the space
        return float(self.mean_matrix(space)[arm.k - 1, arm.a])

    def mean_matrix(self, space: ActionSpace) -> np.ndarray:
        """(K, n) matrix of true means over the level space."""
        self.check_space(space)
        if self.family == "table":
            return np.array(self.probs)
        if self.family == "concave_exp":
            return self.success_probs[:, None] * self._gains(space)
        values = space.level_values[None, :]
        spread = (self.thetas * self.budget)[:, None]
        below = values * values / (2.0 * spread)
        above = values - spread / 2.0
        return np.where(values <= spread, below, above) / self.budget

    def lipschitz_constant(self) -> float:
        """Upper bound on |d mean / d budget| across resources.

        hinge means grow at most 1/Q per budget unit; concave_exp at most
        1/theta_k at zero. The table family has no budget continuum, so no
        constant exists.
        """
        if self.family == "hinge":
            return 1.0 / self.budget
        if self.family == "concave_exp":
            return float(np.max(1.0 / self.thetas))
        raise ValueError("table rewards have no continuous budget axis")
