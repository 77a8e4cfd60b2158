import math

import numpy as np
import pytest

from banditalloc import (
    ActionSpace,
    Allocation,
    ArmId,
    ArmStats,
    ExactDpSolver,
    ProblemConfig,
    RewardModel,
    compute_opt,
    compute_ucb,
    regret_series,
    run,
    select_allocation,
    update,
)


def native_cfg(resources=2, budget=2.0, n=3):
    return ProblemConfig(
        resources=resources, budget=budget, space=ActionSpace.integer_levels(n)
    )


class TestComputeUcb:
    def test_untried_arms_sit_at_the_clamp(self):
        stats = ArmStats.fresh(2, 3)
        ucb = compute_ucb(stats, 1)
        assert np.all(np.isinf(ucb.radii))
        assert np.all(ucb.upper == 1.0)

    def test_radius_formula(self):
        stats = ArmStats.fresh(1, 2)
        stats.counts[0, 0] = 6
        ucb = compute_ucb(stats, 55)
        assert ucb.radii[0, 0] == pytest.approx(
            math.sqrt(3.0 * math.log(55) / (2.0 * 6)), rel=1e-12
        )
        # twelve observations by the time ln t = 4 gives a unit radius, so
        # with 6 pulls the radius crosses 1 right around t = e^4
        assert ucb.radii[0, 0] == pytest.approx(1.0, abs=1e-2)
        assert np.isinf(ucb.radii[0, 1])

    def test_clamp_into_unit_interval(self):
        stats = ArmStats.fresh(1, 2)
        stats.counts[:] = [[4, 400]]
        stats.emp_means[:] = [[0.95, 0.2]]
        ucb = compute_ucb(stats, 100)
        assert ucb.upper[0, 0] == 1.0  # 0.95 + a large radius, clamped
        assert ucb.upper[0, 1] == pytest.approx(
            0.2 + math.sqrt(3 * math.log(100) / 800), rel=1e-12
        )

    def test_radii_shrink_with_counts_and_grow_with_time(self):
        stats = ArmStats.fresh(1, 2)
        stats.counts[:] = [[10, 40]]
        ucb = compute_ucb(stats, 50)
        assert ucb.radii[0, 0] > ucb.radii[0, 1]
        assert compute_ucb(stats, 500).radii[0, 0] > ucb.radii[0, 0]

    def test_round_index_validation(self):
        with pytest.raises(ValueError):
            compute_ucb(ArmStats.fresh(1, 2), 0)


class TestUpdate:
    def test_first_observation_is_the_mean(self):
        stats = ArmStats.fresh(2, 3)
        update(stats, Allocation((1, 2)), np.array([0.7, 0.1]))
        assert stats.counts[0, 1] == 1 and stats.counts[1, 2] == 1
        assert stats.emp_means[0, 1] == 0.7
        assert stats.emp_means[1, 2] == 0.1
        assert stats.counts.sum() == 2

    def test_incremental_mean_is_exact_for_dyadic_rewards(self):
        stats = ArmStats.fresh(1, 2)
        for reward in (0.5, 1.0, 0.25, 0.25):
            update(stats, Allocation((1,)), np.array([reward]))
        assert stats.counts[0, 1] == 4
        assert stats.emp_means[0, 1] == 0.5

    def test_matches_running_mean(self):
        rng = np.random.default_rng(3)
        rewards = rng.random(200)
        stats = ArmStats.fresh(1, 1)
        for r in rewards:
            update(stats, Allocation((0,)), np.array([r]))
        assert stats.emp_means[0, 0] == pytest.approx(rewards.mean(), rel=1e-12)

    def test_zero_rewards_leave_mean_at_zero(self):
        stats = ArmStats.fresh(1, 2)
        for _ in range(10):
            update(stats, Allocation((0,)), np.array([0.0]))
        assert stats.emp_means[0, 0] == 0.0

    def test_contract_violations_raise(self):
        stats = ArmStats.fresh(2, 3)
        with pytest.raises(ValueError):
            update(stats, Allocation((0, 0)), np.array([0.5, 1.1]))
        with pytest.raises(ValueError):
            update(stats, Allocation((0, 0)), np.array([-0.1, 0.5]))
        with pytest.raises(ValueError):
            update(stats, Allocation((0, 0)), np.array([0.5]))


class TestSelectAllocation:
    def test_first_round_plays_all_zeros(self):
        # every arm clamps to 1, so all full-budget allocations tie on value
        # and the solver's tie order picks the cheapest: spend nothing
        cfg = native_cfg()
        alloc = select_allocation(ArmStats.fresh(2, 3), 1, ExactDpSolver(cfg))
        assert alloc.levels == (0, 0)

    def test_learned_means_drive_the_choice(self):
        cfg = native_cfg()
        stats = ArmStats.fresh(2, 3)
        stats.counts[:] = 10_000  # radii ~ 0.02, too small to flip the order
        stats.emp_means[:] = [[0.0, 0.5, 0.6], [0.0, 0.3, 0.9]]
        alloc = select_allocation(stats, 10_000, ExactDpSolver(cfg))
        assert alloc.levels == (0, 2)


def flat_model(resources=2, n=3, p=0.5, seed=0):
    return RewardModel.table(np.full((resources, n), p), rng_seed=seed)


class TestRun:
    def test_trace_shapes_and_ranges(self):
        cfg = native_cfg()
        model = flat_model(seed=5)
        trace = run(model, ExactDpSolver(cfg), cfg, 40)
        assert len(trace) == 40
        assert trace.levels.shape == (40, 2)
        assert trace.rewards.shape == (40, 2)
        assert trace.expected.shape == (40,)
        assert np.all((trace.expected >= 0) & (trace.expected <= 2))
        assert trace.metadata["horizon"] == 40

    def test_every_arm_gets_tried(self):
        cfg = native_cfg()
        model = flat_model(seed=1)
        trace = run(model, ExactDpSolver(cfg), cfg, 200)
        assert np.all(trace.stats.counts >= 1)

    def test_counts_conserve_rounds(self):
        # semi-bandit feedback: each resource reports once per round
        cfg = native_cfg()
        model = flat_model(seed=2)
        trace = run(model, ExactDpSolver(cfg), cfg, 100)
        assert np.all(trace.stats.counts.sum(axis=1) == 100)

    def test_stats_match_trace(self):
        cfg = native_cfg()
        model = flat_model(seed=3)
        trace = run(model, ExactDpSolver(cfg), cfg, 80)
        for k in range(2):
            recounted = np.bincount(trace.levels[:, k], minlength=3)
            assert np.array_equal(recounted, trace.stats.counts[k])
            for a in range(3):
                picked = trace.rewards[trace.levels[:, k] == a, k]
                if picked.size:
                    assert trace.stats.emp_means[k, a] == pytest.approx(
                        picked.mean(), rel=1e-12
                    )

    def test_every_round_feasible(self):
        cfg = native_cfg(resources=3, budget=4.0, n=4)
        model = flat_model(resources=3, n=4, seed=7)
        trace = run(model, ExactDpSolver(cfg), cfg, 200)
        assert np.all(trace.levels.sum(axis=1) <= cfg.capacity_units)

    def test_flat_instance_has_zero_regret(self):
        # all levels pay the same, so every allocation is optimal
        cfg = native_cfg()
        model = flat_model(seed=11)
        trace = run(model, ExactDpSolver(cfg), cfg, 300)
        report = regret_series(trace, compute_opt(model, cfg))
        assert report.final == 0.0
        assert np.all(report.series == 0.0)

    def test_identical_runs_replay(self):
        cfg = native_cfg()
        model = RewardModel.table([[0.1, 0.6, 0.3], [0.2, 0.4, 0.9]], rng_seed=13)
        a = run(model, ExactDpSolver(cfg), cfg, 150)
        b = run(model, ExactDpSolver(cfg), cfg, 150)
        assert np.array_equal(a.levels, b.levels)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.expected, b.expected)

    def test_converges_on_deterministic_instance(self):
        # rewards are 0/1 with certainty and the optimum is unique, so after
        # the clamp phase only log-sparse revisits leave the best allocation
        cfg = native_cfg()
        model = RewardModel.table([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], rng_seed=0)
        trace = run(model, ExactDpSolver(cfg), cfg, 400)
        best = ExactDpSolver(cfg).solve(model.mean_matrix(cfg.space))
        assert best.allocation.levels == (1, 0) and best.value == 2.0
        last_half = trace.levels[200:]
        share = np.mean(
            [tuple(row) == best.allocation.levels for row in last_half]
        )
        assert share >= 0.9

    def test_observer_sees_start_of_round_state(self):
        cfg = native_cfg()
        model = flat_model(seed=4)
        seen = []

        def observer(t, emp, radii):
            if t == 1:
                assert np.all(emp == 0.0) and np.all(np.isinf(radii))
            seen.append(t)

        run(model, ExactDpSolver(cfg), cfg, 25, observer=observer)
        assert seen == list(range(1, 26))

    def test_record_internals(self):
        cfg = native_cfg()
        model = flat_model(seed=6)
        trace = run(model, ExactDpSolver(cfg), cfg, 30, record_internals=True)
        assert trace.emp_snapshots.shape == (30, 2, 3)
        assert trace.radius_snapshots.shape == (30, 2, 3)
        assert np.all(trace.emp_snapshots[0] == 0.0)
        assert np.all(np.isinf(trace.radius_snapshots[0]))
        # snapshots are pre-selection: round 2 reflects exactly one update
        assert np.isfinite(trace.radius_snapshots[1]).sum() == 2

    def test_optimism_invariant(self):
        # before each round, upper = min(1, emp + radius) >= emp
        cfg = native_cfg()
        model = flat_model(seed=8)
        trace = run(model, ExactDpSolver(cfg), cfg, 50, record_internals=True)
        upper = np.minimum(1.0, trace.emp_snapshots + trace.radius_snapshots)
        assert np.all(upper >= trace.emp_snapshots - 1e-12)

    def test_validation(self):
        cfg = native_cfg()
        model = flat_model(seed=0)
        with pytest.raises(ValueError):
            run(model, ExactDpSolver(cfg), cfg, 0)
        other = native_cfg(budget=3.0)
        with pytest.raises(ValueError):
            run(model, ExactDpSolver(other), cfg, 10)
        with pytest.raises(ValueError):
            run(flat_model(resources=3, seed=0), ExactDpSolver(cfg), cfg, 10)


class TestStepApi:
    """select_allocation -> sample_reward -> update replays run bit for bit."""

    @pytest.mark.parametrize(
        "model,cfg,horizon",
        [
            (
                RewardModel.table([[0.1, 0.6, 0.3], [0.2, 0.4, 0.9]], rng_seed=13),
                native_cfg(),
                150,
            ),
            (
                RewardModel.hinge([0.4, 0.9, 0.7], budget=2.0, rng_seed=5),
                ProblemConfig(
                    resources=3, budget=2.0, space=ActionSpace.uniform_grid(5, 0.5)
                ),
                300,
            ),
            (
                RewardModel.concave_exp([0.9, 0.7], [0.8, 0.5], rng_seed=11),
                ProblemConfig(
                    resources=2,
                    budget=1.0,
                    space=ActionSpace.uniform_grid(12, 1.0 / 11.0),
                ),
                300,
            ),
        ],
        ids=["table", "hinge_grid", "concave_exp_grid"],
    )
    def test_step_loop_replays_run(self, model, cfg, horizon):
        trace = run(model, ExactDpSolver(cfg), cfg, horizon)
        solver = ExactDpSolver(cfg)
        stats = ArmStats.fresh(cfg.resources, cfg.space.n)
        levels, rewards = [], []
        for t in range(1, horizon + 1):
            alloc = select_allocation(stats, t, solver)
            observed = np.array(
                [
                    model.sample_reward(ArmId(k + 1, a), cfg.space, t)
                    for k, a in enumerate(alloc.levels)
                ]
            )
            update(stats, alloc, observed)
            levels.append(alloc.levels)
            rewards.append(observed)
        assert np.array_equal(np.array(levels), trace.levels)
        assert np.array_equal(np.array(rewards), trace.rewards)
        assert np.array_equal(stats.counts, trace.stats.counts)
        assert np.array_equal(stats.emp_means, trace.stats.emp_means)
