import math

import numpy as np
import pytest
from conftest import History

from banditalloc import (
    OracleSpec,
    ProblemConfig,
    RewardModel,
    compute_opt,
    plan_discretization,
    run,
    run_discretized,
)
from banditalloc.oracle import build_solver


def target_pitch(smoothness, budget, lipschitz, resources, horizon):
    """The pitch optimizer, written out independently."""
    return (
        smoothness**2
        * budget**2
        * math.log(horizon)
        / (lipschitz**2 * resources * horizon)
    ) ** (1 / 3)


class TestPlanDiscretization:
    def test_worked_example(self):
        # B=1, Q=2, L=2, K=4, T=1e4: pitch target ~0.0613, so 33 pitches
        plan = plan_discretization(1.0, 2.0, 2.0, 4, 10_000)
        assert plan.pitch_target == pytest.approx(0.061291, abs=1e-5)
        assert plan.levels == 34
        assert plan.pitch == 2.0 / 33.0
        assert not plan.capped

    def test_matches_independent_formula(self):
        for horizon in (10, 1000, 250_000):
            plan = plan_discretization(0.5, 3.0, 1.5, 2, horizon)
            want = min(target_pitch(0.5, 3.0, 1.5, 2, horizon), 3.0)
            assert plan.pitch_target == pytest.approx(want, rel=1e-12)

    def test_tiny_horizon_degenerates_to_endpoints(self):
        # the target pitch exceeds the budget, so only {0, Q} remain
        plan = plan_discretization(1.0, 1.0, 0.1, 1, 2)
        assert plan.levels == 2
        assert plan.pitch == 1.0
        assert plan.grid.level_values.tolist() == [0.0, 1.0]

    def test_longer_horizons_refine_the_grid(self):
        pitches = [
            plan_discretization(1.0, 1.0, 2.0, 2, t).pitch_target
            for t in (100, 10_000, 1_000_000)
        ]
        assert pitches[0] > pitches[1] > pitches[2]
        levels = [
            plan_discretization(1.0, 1.0, 2.0, 2, t).levels
            for t in (100, 10_000, 1_000_000)
        ]
        assert levels[0] <= levels[1] <= levels[2]

    def test_grid_spans_budget(self):
        for horizon in (5, 333, 9999):
            plan = plan_discretization(1.0, 2.5, 1.0, 3, horizon)
            assert abs(plan.grid.max_value - 2.5) <= 1e-9
            assert plan.pitch <= plan.pitch_target * (1 + 1e-9)

    def test_level_ceiling_caps_and_warns(self):
        with pytest.warns(RuntimeWarning):
            plan = plan_discretization(1.0, 1.0, 50.0, 4, 10**9, max_levels=16)
        assert plan.capped
        assert plan.levels == 16
        assert plan.pitch == 1.0 / 15.0
        assert plan.pitch > plan.pitch_target  # coarser than optimized

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_discretization(0.0, 1.0, 1.0, 1, 10)
        with pytest.raises(ValueError):
            plan_discretization(1.0, 0.0, 1.0, 1, 10)
        with pytest.raises(ValueError):
            plan_discretization(1.0, 1.0, 0.0, 1, 10)
        with pytest.raises(ValueError):
            plan_discretization(1.0, 1.0, 1.0, 0, 10)
        with pytest.raises(ValueError):
            plan_discretization(1.0, 1.0, 1.0, 1, 1)
        with pytest.raises(ValueError):
            plan_discretization(1.0, 1.0, 1.0, 1, 10, max_levels=1)


class TestRunDiscretized:
    def test_delegates_exactly_to_the_discrete_learner(self):
        model = RewardModel.concave_exp([0.9, 0.7], [0.8, 0.5], rng_seed=21)
        seen = History()
        trace, plan = run_discretized(
            model, OracleSpec(), budget=1.0, horizon=300, sink=seen
        )
        cfg = ProblemConfig(resources=2, budget=1.0, space=plan.grid)
        direct_seen = History()
        direct = run(
            model, build_solver(OracleSpec(), cfg, seed=0), cfg, 300, sink=direct_seen
        )
        assert np.array_equal(seen.levels, direct_seen.levels)
        assert np.array_equal(seen.rewards, direct_seen.rewards)
        assert np.array_equal(seen.expected, direct_seen.expected)
        assert np.array_equal(trace.stats.counts, direct.stats.counts)
        assert np.array_equal(trace.stats.emp_means, direct.stats.emp_means)

    def test_trace_plays_the_planned_grid(self):
        model = RewardModel.hinge([0.5, 0.9], budget=2.0, rng_seed=5)
        trace, plan = run_discretized(model, OracleSpec(), budget=2.0, horizon=120)
        assert trace.config.space is plan.grid

    def test_lipschitz_default_comes_from_the_model(self):
        model = RewardModel.concave_exp([1.0], [0.25], rng_seed=2)  # L = 4
        _, plan_default = run_discretized(model, OracleSpec(), budget=1.0, horizon=100)
        assert plan_default == plan_discretization(1.0, 1.0, 4.0, 1, 100)
        plan_smooth = plan_discretization(1.0, 1.0, 0.5, 1, 100)
        assert plan_smooth.levels < plan_default.levels  # smoother: coarser grid

    def test_single_resource_converges_to_full_budget(self):
        # deterministic concave returns: the best grid point is the budget
        model = RewardModel.concave_exp([1.0], [1.0], rng_seed=7)
        seen = History()
        _, plan = run_discretized(
            model, OracleSpec(), budget=1.0, horizon=2000, sink=seen
        )
        cfg = ProblemConfig(resources=1, budget=1.0, space=plan.grid)
        opt = compute_opt(model, cfg)
        tail = seen.expected[-400:]
        # near-optimal grid levels have tiny gaps and stay under exploration
        # for a long time, so ask for concentration, not a point mass
        assert tail.mean() >= 0.9 * opt
        assert np.mean(seen.levels[-400:, 0] >= plan.levels - 2) > 0.75

    def test_rejects_table_models(self):
        model = RewardModel.table([[0.5, 0.5]], rng_seed=0)
        with pytest.raises(ValueError):
            run_discretized(model, OracleSpec(), budget=1.0, horizon=50)

    def test_rejects_budget_mismatch(self):
        model = RewardModel.hinge([0.5], budget=2.0, rng_seed=0)
        with pytest.raises(ValueError):
            run_discretized(model, OracleSpec(), budget=1.0, horizon=50)
