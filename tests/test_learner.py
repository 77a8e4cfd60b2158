import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import History

from banditalloc import (
    ActionSpace,
    ArmId,
    ArmStats,
    ExactDpSolver,
    OracleSpec,
    ProblemConfig,
    RewardModel,
    RunTrace,
    allocation_value,
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
    """An observer that keeps a copy of every argument it is shown; with
    lanes, each round's arrays have a leading axis of the R lanes."""

    def __init__(self):
        self.seen = []

    def __call__(self, t, emp_means, radii):
        self.seen.append((t, emp_means.copy(), radii.copy()))

    @property
    def emp_means(self):
        """(T, K, n) start-of-round empirical means, (T, R, K, n) with lanes."""
        return np.array([emp for _, emp, _ in self.seen])

    @property
    def radii(self):
        """(T, K, n) start-of-round radii, (T, R, K, n) with lanes."""
        return np.array([radii for _, _, radii in self.seen])


def recorded_run(model, cfg, horizon):
    """Run the exact-DP learner with a Recorder and a History attached;
    returns the History and the Recorder."""
    recorder, history = Recorder(), History()
    run(model, ExactDpSolver(cfg), cfg, horizon, observer=recorder, sink=history)
    return history, recorder


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
        for t in range(len(trace.levels)):
            assert solver.solve_levels(upper[t]).tolist() == trace.levels[t].tolist()

    def test_radii_shrink_with_counts_and_grow_with_time(self):
        model, cfg = table_3x4()
        trace, seen = recorded_run(model, cfg, 600)
        radii = seen.radii
        _, counts = expected_radii(trace.levels, cfg.space.n, len(trace.levels))
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
        seen, history = self.StrictRecorder(), History()
        horizon = 1500
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            if width == 1:
                traces = [run(models[0], ExactDpSolver(cfg), cfg, horizon, seen, history)]
                radii, levels = seen.radii[:, None], history.levels[None]
            else:
                solvers = [ExactDpSolver(cfg) for _ in models]
                traces = run(models, solvers, cfg, horizon, seen, history)
                radii, levels = seen.radii, history.levels
        for lane, trace in enumerate(traces):
            want, counts = expected_radii(levels[lane], cfg.space.n, horizon)
            assert np.array_equal(radii[:, lane], want)
            assert np.array_equal(np.isposinf(radii[:, lane]), counts == 0)
            assert (trace.stats.counts == 0).any()

    def test_final_counts_are_int64_pull_counts(self):
        model, cfg = table_3x4()
        models = [model, table_3x4(20)[0]]
        history = History()
        traces = run(
            models, [ExactDpSolver(cfg) for _ in models], cfg, 700, sink=history
        )
        for trace, levels in zip(traces, history.levels):
            assert trace.stats.counts.dtype == np.int64
            recounted = [
                np.bincount(levels[:, k], minlength=cfg.space.n)
                for k in range(cfg.resources)
            ]
            assert np.array_equal(trace.stats.counts, recounted)


class TestSelectAllocation:
    def test_first_round_plays_all_zeros(self):
        # every arm clamps to 1, so all full-budget allocations tie on value
        # and the solver's tie order picks the cheapest: spend nothing
        cfg = native_cfg()
        history = History()
        run(flat_model(seed=3), ExactDpSolver(cfg), cfg, 1, sink=history)
        assert tuple(history.levels[0]) == (0, 0)

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
        # 2100 rounds reach the sink as two full chunks and a short one. The
        # trace holds the end-of-run statistics and nothing per round.
        cfg = native_cfg()
        model = RewardModel.table([[0.1, 0.6, 0.3], [0.2, 0.4, 0.9]], rng_seed=5)
        history = History()
        trace = run(model, ExactDpSolver(cfg), cfg, 2100, sink=history)
        assert [f.name for f in dataclasses.fields(RunTrace)] == ["config", "stats"]
        assert history.expected.shape == (2100,)
        assert np.all((history.expected >= 0) & (history.expected <= 2))
        chunks = [(1, 1024), (1025, 1024), (2049, 52)]
        assert [(start, len(exp)) for start, _, _, exp in history.chunks] == chunks
        means = model.mean_matrix(cfg.space)
        for start, levels, rewards, exp in history.chunks:
            assert levels.shape == rewards.shape == (len(exp), 2)
            assert levels.dtype == np.int64
            assert np.all((rewards >= 0) & (rewards <= 1))
            assert np.array_equal(exp, allocation_value(means, levels))

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
        history = History()
        trace = run(model, ExactDpSolver(cfg), cfg, 80, sink=history)
        for k in range(2):
            recounted = np.bincount(history.levels[:, k], minlength=3)
            assert np.array_equal(recounted, trace.stats.counts[k])
            for a in range(3):
                picked = history.rewards[history.levels[:, k] == a, k]
                if picked.size:
                    assert trace.stats.emp_means[k, a] == pytest.approx(
                        picked.mean(), rel=1e-12
                    )

    def test_every_round_feasible(self):
        cfg = native_cfg(resources=3, budget=4.0, n=4)
        model = flat_model(resources=3, n=4, seed=7)
        history = History()
        run(model, ExactDpSolver(cfg), cfg, 200, sink=history)
        assert np.all(history.levels.sum(axis=1) <= cfg.capacity_units)

    def test_flat_instance_has_zero_regret(self):
        # all levels pay the same, so every allocation is optimal
        cfg = native_cfg()
        model = flat_model(seed=11)
        history = History()
        run(model, ExactDpSolver(cfg), cfg, 300, sink=history)
        report = regret_series(history.expected, compute_opt(model, cfg))
        assert report.final == 0.0
        assert np.all(report.series == 0.0)

    def test_identical_runs_replay(self):
        cfg = native_cfg()
        model = RewardModel.table([[0.1, 0.6, 0.3], [0.2, 0.4, 0.9]], rng_seed=13)
        seen_a, seen_b = History(), History()
        run(model, ExactDpSolver(cfg), cfg, 150, sink=seen_a)
        run(model, ExactDpSolver(cfg), cfg, 150, sink=seen_b)
        assert np.array_equal(seen_a.levels, seen_b.levels)
        assert np.array_equal(seen_a.rewards, seen_b.rewards)
        assert np.array_equal(seen_a.expected, seen_b.expected)

    def test_converges_on_deterministic_instance(self):
        # rewards are 0/1 with certainty and the optimum is unique, so after
        # the clamp phase only log-sparse revisits leave the best allocation
        cfg = native_cfg()
        model = RewardModel.table([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], rng_seed=0)
        history = History()
        run(model, ExactDpSolver(cfg), cfg, 400, sink=history)
        best = ExactDpSolver(cfg).solve(model.mean_matrix(cfg.space))
        assert best.allocation.levels == (1, 0) and best.value == 2.0
        last_half = history.levels[200:]
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

    def test_no_sink_reads_no_true_means(self, monkeypatch):
        # Only a sink is shown expected values, so a run without one never
        # asks a model for its true means; with one, each lane asks once.
        asked = []
        mean_matrix = RewardModel.mean_matrix

        def counted(model, space):
            asked.append(model)
            return mean_matrix(model, space)

        monkeypatch.setattr(RewardModel, "mean_matrix", counted)
        cfg = native_cfg()
        models = [flat_model(seed=seed) for seed in range(3)]
        run(models[0], ExactDpSolver(cfg), cfg, 50)
        run(models, [ExactDpSolver(cfg)] * 3, cfg, 2000)
        assert asked == []
        run(models, [ExactDpSolver(cfg)] * 3, cfg, 2000, sink=lambda *chunk: None)
        assert [id(m) for m in asked] == [id(m) for m in models]

    @pytest.mark.slow
    def test_peak_memory_per_round(self):
        # A sink that keeps nothing adds one chunk of levels, rewards and
        # expected values to the fixed buffers, and nothing per round.
        model, cfg = flat_model(), native_cfg()
        solver = ExactDpSolver(cfg)
        horizon = 100_000
        tracemalloc.start()
        try:
            run(model, solver, cfg, horizon, sink=lambda *chunk: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / horizon < 12

    @pytest.mark.slow
    def test_peak_memory_per_round_without_history(self):
        # Without a sink, a run keeps no levels or rewards and computes no
        # expected values, so its peak does not grow with the horizon:
        # 75,000 more rounds would add 600 KB at 8 bytes a round.
        model, cfg = flat_model(), native_cfg()
        solver = ExactDpSolver(cfg)
        peaks = {}
        for horizon in (25_000, 100_000):
            tracemalloc.start()
            try:
                run(model, solver, cfg, horizon)
                peaks[horizon] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[100_000] / 100_000 < 12
        assert peaks[100_000] - peaks[25_000] < 16_000, peaks

    @pytest.mark.slow
    @pytest.mark.parametrize("lanes", [2, 5])
    def test_peak_memory_per_round_in_lockstep(self, lanes):
        # A block of lanes without a sink keeps each lane's statistics and
        # nothing per round, so its peak does not grow with the horizon
        # either: 4,096 more rounds on 2 lanes would add 65 KB at 8 bytes a
        # lane-round. Both horizons fill a whole chunk of rounds. The
        # one-lane bound per lane-round holds too.
        cfg = native_cfg()
        peaks = {}
        for horizon in (2_048, 6_144):
            models = [flat_model(seed=seed) for seed in range(lanes)]
            solvers = [ExactDpSolver(cfg) for _ in models]
            tracemalloc.start()
            try:
                run(models, solvers, cfg, horizon)
                peaks[horizon] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6_144] - peaks[2_048] < 16_000, peaks
        assert peaks[6_144] / (6_144 * lanes) < 52, peaks

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
        trace = History()
        run(model, ExactDpSolver(cfg), cfg, horizon, sink=trace)
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


def assert_same_run(lane, got, want):
    """Lane ``lane`` of a block run, read from got = (its trace, the block's
    Recorder, the block's History), equals the one-lane run want = (trace,
    Recorder, History)."""
    (got, got_obs, got_seen), (want, want_obs, want_seen) = got, want
    assert np.array_equal(got_seen.levels[lane], want_seen.levels)
    assert np.array_equal(got_seen.rewards[lane], want_seen.rewards)
    assert np.array_equal(got_seen.expected[lane], want_seen.expected)
    assert [c[0] for c in got_seen.chunks] == [c[0] for c in want_seen.chunks]
    assert np.array_equal(got.stats.counts, want.stats.counts)
    assert np.array_equal(got.stats.emp_means, want.stats.emp_means)
    assert len(got_obs.seen) == len(want_obs.seen) == len(want_seen.expected)
    for (t, emp, radii), (t0, emp0, radii0) in zip(got_obs.seen, want_obs.seen):
        assert t == t0
        assert np.array_equal(emp[lane], emp0)
        assert np.array_equal(radii[lane], radii0)


class TestLockstep:
    """run steps a block of lanes in lockstep; each lane's trace and
    statistics, and its slice of the block's observer calls and sink
    chunks, equal those of a one-lane run of that lane."""

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

    @staticmethod
    def assert_lanes_equal_one_lane_runs(cfg, models, solvers, horizon):
        alone_obs = [Recorder() for _ in models]
        alone_seen = [History() for _ in models]
        alone = [
            run(m, s, cfg, horizon, observer=o, sink=h)
            for m, s, o, h in zip(models, solvers(), alone_obs, alone_seen)
        ]
        block_obs, block_seen = Recorder(), History()
        block = run(models, solvers(), cfg, horizon, observer=block_obs, sink=block_seen)
        assert isinstance(block, list) and len(block) == len(models)
        for lane, want in enumerate(zip(alone, alone_obs, alone_seen)):
            assert_same_run(lane, (block[lane], block_obs, block_seen), want)
        return block, block_obs, block_seen

    @pytest.mark.parametrize("width", [1, 2, 5])
    @pytest.mark.parametrize("solver", sorted(LANE_SOLVERS))
    @pytest.mark.parametrize("instance", sorted(LANE_INSTANCES))
    def test_lanes_equal_one_lane_runs(self, instance, solver, width):
        cfg, models, solvers = self.lanes(instance, solver, width)
        self.assert_lanes_equal_one_lane_runs(cfg, models, solvers, 150)

    @pytest.mark.parametrize("solver", ["exact", "coin-exact"])
    def test_lanes_cross_the_noise_chunks(self, solver):
        # 1100 rounds span two chunks of drawn noise and log evaluations.
        cfg, models, solvers = self.lanes("table-K3-cap-above", solver, 3, seed=1)
        self.assert_lanes_equal_one_lane_runs(cfg, models, solvers, 1100)

    def test_coins_flip_once_per_lane_and_round(self):
        cfg, models, solvers = self.lanes("table-K2-cap-above", "coin-exact", 4)
        block_solvers = solvers()
        run(models, block_solvers, cfg, 300)
        assert [s.calls for s in block_solvers] == [300] * 4

    def test_internals_and_history_per_lane(self):
        # One observer and one sink see the whole block, lanes in order:
        # each lane's slice equals that lane run alone, and a block run
        # with neither callback plays the same rounds.
        cfg, models, solvers = self.lanes("concave-K2-cap-below", "exact", 2)
        block, seen, history = self.assert_lanes_equal_one_lane_runs(
            cfg, models, solvers, 120
        )
        assert seen.emp_means.shape == seen.radii.shape == (120, 2, 2, 6)
        assert [c[1].shape for c in history.chunks] == [(2, 120, 2)]
        assert [c[3].shape for c in history.chunks] == [(2, 120)]
        bare = run(models, solvers(), cfg, 120)
        for lean, want in zip(bare, block):
            assert np.array_equal(lean.stats.counts, want.stats.counts)
            assert np.array_equal(lean.stats.emp_means, want.stats.emp_means)

    def test_callbacks_are_one_callable(self):
        # A per-lane list of callbacks is refused before round 1.
        cfg, models, solvers = self.lanes("table-K2-cap-above", "exact", 2)
        observers, sinks = [Recorder(), Recorder()], [History(), History()]
        with pytest.raises(ValueError, match="observer must be one callable"):
            run(models, solvers(), cfg, 10, observer=observers)
        with pytest.raises(ValueError, match="sink must be one callable"):
            run(models, solvers(), cfg, 10, sink=sinks)
        assert not any(o.seen for o in observers) and not any(h.chunks for h in sinks)

    def test_lane_validation(self):
        cfg, models, solvers = self.lanes("table-K2-cap-above", "exact", 2)
        with pytest.raises(ValueError):
            run(models, solvers()[:1], cfg, 10)
        with pytest.raises(ValueError):
            run(models, solvers(), cfg, 10, observer=[None])
        with pytest.raises(ValueError):
            run(models, solvers(), cfg, 10, sink=[History()])
        with pytest.raises(ValueError):
            run([], [], cfg, 10)
        other = native_cfg(resources=2, budget=3.0, n=3)
        with pytest.raises(ValueError):
            run(models, [ExactDpSolver(cfg), ExactDpSolver(other)], cfg, 10)
