import math
import tracemalloc
import warnings

import numpy as np
import pytest

from banditalloc import (
    ActionSpace,
    ArmId,
    ArmStats,
    ExactDpSolver,
    OracleSpec,
    ProblemConfig,
    RewardModel,
    build_solver,
    compute_opt,
    regret_series,
    run,
)
from banditalloc.learner import _fold


def native_cfg(resources=2, budget=2.0, n=3):
    return ProblemConfig(
        resources=resources, budget=budget, space=ActionSpace.integer_levels(n)
    )


def flat_model(resources=2, n=3, p=0.5, seed=0):
    return RewardModel.table(np.full((resources, n), p), rng_seed=seed)


def fresh_stats(resources, levels):
    return ArmStats(
        np.zeros((resources, levels), dtype=np.int64), np.zeros((resources, levels))
    )


def fold(stats, levels, rewards):
    """Fold one round into ``stats`` the way run does."""
    _fold(stats.counts, stats.emp_means, levels, rewards)


def table_3x4(seed=7):
    model = RewardModel.table(
        [[0.2, 0.5, 0.6, 0.65], [0.9, 0.3, 0.8, 0.1], [0.05, 0.4, 0.7, 0.95]],
        rng_seed=seed,
    )
    return model, native_cfg(resources=3, budget=5.0, n=4)


def expected_radii(levels, n, horizon):
    """(T, K, n) start-of-round radii sqrt(3 ln t / (2 count)), with the
    counts rebuilt from the played levels and +inf on untried arms."""
    resources = levels.shape[1]
    pulls = np.zeros((horizon, resources, n), dtype=np.int64)
    pulls[np.arange(horizon)[:, None], np.arange(resources)[None, :], levels] = 1
    counts = np.cumsum(pulls, axis=0) - pulls  # pulls before round t
    scaled_log = 3.0 * np.log(np.arange(1, horizon + 1, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        radii = np.sqrt(scaled_log[:, None, None] / (2.0 * counts))
    radii[counts == 0] = np.inf
    return radii, counts


class Recorder:
    """An observer that keeps a copy of every argument it is shown."""

    def __init__(self):
        self.seen = []

    def __call__(self, t, emp_means, radii):
        self.seen.append((t, emp_means.copy(), radii.copy()))

    @property
    def emp_means(self):
        """(T, K, n) start-of-round empirical means."""
        return np.array([emp for _, emp, _ in self.seen])

    @property
    def radii(self):
        """(T, K, n) start-of-round radii."""
        return np.array([radii for _, _, radii in self.seen])


def recorded_run(model, cfg, horizon):
    """Run the exact-DP learner with a Recorder attached."""
    recorder = Recorder()
    trace = run(model, ExactDpSolver(cfg), cfg, horizon, observer=recorder)
    return trace, recorder


class TestComputeUcb:
    """The radii and optimistic values run computes at the start of each round."""

    def test_untried_arms_sit_at_the_clamp(self):
        cfg = native_cfg()
        _, seen = recorded_run(flat_model(seed=2), cfg, 1)
        assert np.all(np.isinf(seen.radii[0]))
        upper = np.minimum(1.0, seen.emp_means[0] + seen.radii[0])
        assert np.all(upper == 1.0)

    def test_radius_formula(self):
        model, cfg = table_3x4()
        horizon = 3000
        trace, seen = recorded_run(model, cfg, horizon)
        want, counts = expected_radii(trace.levels, cfg.space.n, horizon)
        assert np.array_equal(seen.radii, want)
        assert np.array_equal(np.isinf(want), counts == 0)

    def test_clamp_into_unit_interval(self):
        # every round plays the solver's choice on min(1, emp + radius)
        model, cfg = table_3x4()
        trace, seen = recorded_run(model, cfg, 400)
        raw = seen.emp_means + seen.radii
        assert (raw > 1.0).any() and (raw < 1.0).any()  # the clamp binds somewhere
        upper = np.minimum(1.0, raw)
        solver = ExactDpSolver(cfg)
        for t in range(len(trace)):
            assert solver.solve_levels(upper[t]).tolist() == trace.levels[t].tolist()

    def test_radii_shrink_with_counts_and_grow_with_time(self):
        model, cfg = table_3x4()
        trace, seen = recorded_run(model, cfg, 600)
        radii = seen.radii
        _, counts = expected_radii(trace.levels, cfg.space.n, len(trace))
        tried = counts > 0
        # within a round, more pulls mean a smaller radius
        for t in (50, 300, 599):
            order = np.argsort(counts[t][tried[t]], kind="stable")
            assert np.all(np.diff(radii[t][tried[t]][order]) <= 0)
        # a tried arm that is not pulled sees its radius grow next round
        idle = tried[:-1] & (counts[:-1] == counts[1:])
        assert idle.sum() > 1000
        assert np.all(radii[1:][idle] > radii[:-1][idle])


class TestUpdate:
    """The statistics fold run applies once per round."""

    def test_first_observation_is_the_mean(self):
        stats = fresh_stats(2, 3)
        fold(stats, [1, 2], [0.7, 0.1])
        assert stats.counts[0, 1] == 1 and stats.counts[1, 2] == 1
        assert stats.emp_means[0, 1] == 0.7
        assert stats.emp_means[1, 2] == 0.1
        assert stats.counts.sum() == 2

    def test_incremental_mean_is_exact_for_dyadic_rewards(self):
        stats = fresh_stats(1, 2)
        for reward in (0.5, 1.0, 0.25, 0.25):
            fold(stats, [1], [reward])
        assert stats.counts[0, 1] == 4
        assert stats.emp_means[0, 1] == 0.5

    def test_matches_running_mean(self):
        rng = np.random.default_rng(3)
        rewards = rng.random(200)
        stats = fresh_stats(1, 1)
        for r in rewards:
            fold(stats, [0], [r])
        assert stats.emp_means[0, 0] == pytest.approx(rewards.mean(), rel=1e-12)

    def test_zero_rewards_leave_mean_at_zero(self):
        stats = fresh_stats(1, 2)
        for _ in range(10):
            fold(stats, [0], [0.0])
        assert stats.emp_means[0, 0] == 0.0

    def test_contract_violations_raise(self):
        # rewards outside [0, 1] break the environment contract, and run
        # refuses to fold them
        cfg = native_cfg()
        for bad, horizon in ((1.1, 5), (-0.1, 5), (np.nan, 5), (np.nan, 1)):

            class OutOfRange(RewardModel):
                def rewards_from_uniforms(self, table, levels, u):
                    return np.full(levels.shape, bad)

            model = OutOfRange(family="table", rng_seed=0, probs=np.full((2, 3), 0.5))
            with pytest.raises(AssertionError, match=r"outside \[0, 1\]"):
                run(model, ExactDpSolver(cfg), cfg, horizon)


class TestUntriedArms:
    """Untried arms get their +inf radius from dividing by a zero count, and
    that division alone runs with divide-by-zero ignored: observers, solvers
    and the reward model keep the caller's floating-point error state."""

    class StrictRecorder(Recorder):
        def __call__(self, t, emp_means, radii):
            assert np.geterr()["divide"] == "raise"
            super().__call__(t, emp_means, radii)

    @pytest.mark.parametrize("width", [1, 3])
    def test_zero_counts_give_infinite_radii_under_strict_errors(self, width):
        # Past 1024 rounds, so a second chunk of log evaluations runs too;
        # the second resource's top level is still untried at the end.
        seeds = [7, 20, 37][:width]
        cfg = table_3x4()[1]
        models = [table_3x4(seed)[0] for seed in seeds]
        observers = [self.StrictRecorder() for _ in models]
        horizon = 1500
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            if width == 1:
                traces = [
                    run(models[0], ExactDpSolver(cfg), cfg, horizon, observers[0])
                ]
            else:
                solvers = [ExactDpSolver(cfg) for _ in models]
                traces = run(models, solvers, cfg, horizon, observers)
        for trace, seen in zip(traces, observers):
            want, counts = expected_radii(trace.levels, cfg.space.n, horizon)
            assert np.array_equal(seen.radii, want)
            assert np.array_equal(np.isposinf(seen.radii), counts == 0)
            assert (trace.stats.counts == 0).any()

    def test_final_counts_are_int64_pull_counts(self):
        model, cfg = table_3x4()
        models = [model, table_3x4(20)[0]]
        traces = run(models, [ExactDpSolver(cfg) for _ in models], cfg, 700)
        for trace in traces:
            assert trace.stats.counts.dtype == np.int64
            recounted = [
                np.bincount(trace.levels[:, k], minlength=cfg.space.n)
                for k in range(cfg.resources)
            ]
            assert np.array_equal(trace.stats.counts, recounted)


class TestSelectAllocation:
    def test_first_round_plays_all_zeros(self):
        # every arm clamps to 1, so all full-budget allocations tie on value
        # and the solver's tie order picks the cheapest: spend nothing
        cfg = native_cfg()
        trace = run(flat_model(seed=3), ExactDpSolver(cfg), cfg, 1)
        assert tuple(trace.levels[0]) == (0, 0)

    def test_learned_means_drive_the_choice(self):
        cfg = native_cfg()
        emp = np.array([[0.0, 0.5, 0.6], [0.0, 0.3, 0.9]])
        # 10,000 pulls each by round 10,000: radii ~ 0.02, too small to flip
        # the order
        radii = np.full((2, 3), math.sqrt(3.0 * math.log(10_000) / (2.0 * 10_000)))
        levels = ExactDpSolver(cfg).solve_levels(np.minimum(1, emp + radii))
        assert levels.tolist() == [0, 2]


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

    def test_recorded_statistics(self):
        cfg = native_cfg()
        model = flat_model(seed=6)
        _, seen = recorded_run(model, cfg, 30)
        assert seen.emp_means.shape == (30, 2, 3)
        assert seen.radii.shape == (30, 2, 3)
        assert np.all(seen.emp_means[0] == 0.0)
        assert np.all(np.isinf(seen.radii[0]))
        # observers run before selection: round 2 reflects exactly one update
        assert np.isfinite(seen.radii[1]).sum() == 2

    def test_optimism_invariant(self):
        # before each round, upper = min(1, emp + radius) >= emp
        cfg = native_cfg()
        model = flat_model(seed=8)
        _, seen = recorded_run(model, cfg, 50)
        upper = np.minimum(1.0, seen.emp_means + seen.radii)
        assert np.all(upper >= seen.emp_means - 1e-12)

    @pytest.mark.slow
    def test_peak_memory_per_round(self):
        # The trace keeps 40 bytes per round at K = 2 (levels, rewards and
        # expected values); the noise is drawn one chunk of rounds at a time,
        # so the whole (K, T) block of uniforms is never held.
        model, cfg = flat_model(), native_cfg()
        solver = ExactDpSolver(cfg)
        horizon = 100_000
        tracemalloc.start()
        try:
            run(model, solver, cfg, horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / horizon < 52

    @pytest.mark.slow
    @pytest.mark.parametrize("lanes", [2, 5])
    def test_peak_memory_per_round_in_lockstep(self, lanes):
        # A block of lanes keeps each lane's trace and nothing per round
        # across lanes, so the one-lane bound holds per lane. Fewer rounds
        # per lane than the one-lane run above leave the fixed buffers a
        # larger share of the bound.
        cfg = native_cfg()
        models = [flat_model(seed=seed) for seed in range(lanes)]
        solvers = [ExactDpSolver(cfg) for _ in models]
        horizon = 50_000 // lanes
        tracemalloc.start()
        try:
            run(models, solvers, cfg, horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (horizon * lanes) < 52

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
    """sample_reward, the pointwise reward of one arm at one round, returns
    the reward run observed for that arm and round, bit for bit."""

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
        for t in range(1, horizon + 1):
            for k in range(cfg.resources):
                arm = ArmId(k + 1, int(trace.levels[t - 1, k]))
                assert model.sample_reward(arm, cfg.space, t) == trace.rewards[t - 1, k]


# Instances for the lockstep tests, named by reward family, K and the
# capacity in units against n - 1; each builds (instance, noise seed ->
# model).
def _grid(resources, n, pitch, budget):
    space = ActionSpace.uniform_grid(n, pitch)
    return ProblemConfig(resources=resources, budget=budget, space=space)


def _table(probs, cfg):
    return cfg, lambda seed: RewardModel.table(probs, rng_seed=seed)


def _concave(probs, thetas, cfg):
    return cfg, lambda seed: RewardModel.concave_exp(probs, thetas, rng_seed=seed)


LANE_INSTANCES = {
    "table-K1-cap-at": lambda: _table([[0.2, 0.6, 0.5, 0.9]], native_cfg(1, 3.0, 4)),
    "table-K2-cap-above": lambda: _table(
        [[0.1, 0.6, 0.3], [0.2, 0.4, 0.9]], native_cfg(2, 5.0, 3)
    ),
    "table-K3-cap-above": lambda: (table_3x4()[1], lambda seed: table_3x4(seed)[0]),
    "table-K4-cap-above": lambda: _table(
        [[0.3, 0.5, 0.6, 0.65], [0.9, 0.3, 0.8, 0.1], [0.05, 0.4, 0.7, 0.95],
         [0.5, 0.5, 0.5, 0.5]],
        native_cfg(4, 6.0, 4),
    ),
    "hinge-K3-cap-above": lambda: (
        _grid(3, 5, 0.5, 2.5),
        lambda seed: RewardModel.hinge([0.4, 0.9, 0.7], 2.5, rng_seed=seed),
    ),
    "concave-K1-cap-below": lambda: _concave([0.9], [0.8], _grid(1, 6, 0.25, 0.75)),
    "concave-K2-cap-below": lambda: _concave(
        [0.9, 0.7], [0.8, 0.5], _grid(2, 6, 0.25, 0.75)
    ),
    "concave-K4-cap-below": lambda: _concave(
        [0.9, 0.7, 0.8, 0.6], [0.8, 0.5, 1.2, 0.3], _grid(4, 5, 0.25, 0.5)
    ),
    "concave-K4-cap-above": lambda: _concave(
        [0.9, 0.7, 0.8, 0.6], [0.8, 0.5, 1.2, 0.3], _grid(4, 4, 0.5, 2.5)
    ),
}

# Solvers by name; "coin-" wraps the base solver in a beta = 0.7 coin.
LANE_SOLVERS = {
    "exact": OracleSpec(),
    "greedy": OracleSpec(0.9, 1.0, "greedy"),
    "coin-exact": OracleSpec(1.0, 0.7, "exact_dp"),
    "coin-greedy": OracleSpec(0.9, 0.7, "greedy"),
}


def assert_same_run(got, want, got_obs, want_obs):
    assert np.array_equal(got.levels, want.levels)
    assert np.array_equal(got.rewards, want.rewards)
    assert np.array_equal(got.expected, want.expected)
    assert np.array_equal(got.stats.counts, want.stats.counts)
    assert np.array_equal(got.stats.emp_means, want.stats.emp_means)
    assert len(got_obs.seen) == len(want_obs.seen) == len(want)
    for (t, emp, radii), (t0, emp0, radii0) in zip(got_obs.seen, want_obs.seen):
        assert t == t0
        assert np.array_equal(emp, emp0)
        assert np.array_equal(radii, radii0)


class TestLockstep:
    """run steps a block of lanes in lockstep; each lane's trace, statistics
    and observer calls equal those of a one-lane run of that lane."""

    @staticmethod
    def lanes(instance, solver, width, seed=0):
        cfg, make_model = LANE_INSTANCES[instance]()
        seeds = [1000 * seed + 17 * r + 3 for r in range(width)]
        models = [make_model(s) for s in seeds]
        spec = LANE_SOLVERS[solver]

        def solvers():
            # Fresh solvers per call: a coin's state is its call count.
            return [build_solver(spec, cfg, seed=s) for s in seeds]

        return cfg, models, solvers

    @pytest.mark.parametrize("width", [1, 2, 5])
    @pytest.mark.parametrize("solver", sorted(LANE_SOLVERS))
    @pytest.mark.parametrize("instance", sorted(LANE_INSTANCES))
    def test_lanes_equal_one_lane_runs(self, instance, solver, width):
        cfg, models, solvers = self.lanes(instance, solver, width)
        horizon = 150
        alone_obs = [Recorder() for _ in models]
        alone = [
            run(m, s, cfg, horizon, observer=o)
            for m, s, o in zip(models, solvers(), alone_obs)
        ]
        block_obs = [Recorder() for _ in models]
        block = run(models, solvers(), cfg, horizon, observer=block_obs)
        assert isinstance(block, list) and len(block) == width
        for got, want, got_obs, want_obs in zip(block, alone, block_obs, alone_obs):
            assert_same_run(got, want, got_obs, want_obs)

    @pytest.mark.parametrize("solver", ["exact", "coin-exact"])
    def test_lanes_cross_the_noise_chunks(self, solver):
        # 1100 rounds span two chunks of drawn noise and log evaluations.
        cfg, models, solvers = self.lanes("table-K3-cap-above", solver, 3, seed=1)
        alone_obs = [Recorder() for _ in models]
        alone = [
            run(m, s, cfg, 1100, observer=o)
            for m, s, o in zip(models, solvers(), alone_obs)
        ]
        block_obs = [Recorder() for _ in models]
        block = run(models, solvers(), cfg, 1100, observer=block_obs)
        for got, want, got_obs, want_obs in zip(block, alone, block_obs, alone_obs):
            assert_same_run(got, want, got_obs, want_obs)

    def test_coins_flip_once_per_lane_and_round(self):
        cfg, models, solvers = self.lanes("table-K2-cap-above", "coin-exact", 4)
        block_solvers = solvers()
        run(models, block_solvers, cfg, 300)
        assert [s.calls for s in block_solvers] == [300] * 4

    def test_internals_and_history_per_lane(self):
        cfg, models, solvers = self.lanes("concave-K2-cap-below", "exact", 2)
        alone_obs = [Recorder() for _ in models]
        alone = [
            run(m, s, cfg, 120, observer=o)
            for m, s, o in zip(models, solvers(), alone_obs)
        ]
        block_obs = [Recorder() for _ in models]
        run(models, solvers(), cfg, 120, observer=block_obs)
        bare = run(models, solvers(), cfg, 120, record_history=False)
        for got_obs, lean, want, want_obs in zip(block_obs, bare, alone, alone_obs):
            assert np.array_equal(got_obs.emp_means, want_obs.emp_means)
            assert np.array_equal(got_obs.radii, want_obs.radii)
            assert lean.levels is None and lean.rewards is None
            assert np.array_equal(lean.expected, want.expected)
            assert np.array_equal(lean.stats.counts, want.stats.counts)

    def test_lane_validation(self):
        cfg, models, solvers = self.lanes("table-K2-cap-above", "exact", 2)
        with pytest.raises(ValueError):
            run(models, solvers()[:1], cfg, 10)
        with pytest.raises(ValueError):
            run(models, solvers(), cfg, 10, observer=[None])
        with pytest.raises(ValueError):
            run([], [], cfg, 10)
        other = native_cfg(resources=2, budget=3.0, n=3)
        with pytest.raises(ValueError):
            run(models, [ExactDpSolver(cfg), ExactDpSolver(other)], cfg, 10)
