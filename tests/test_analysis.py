import itertools
import math
import tracemalloc

import numpy as np
import pytest

from banditalloc import (
    ActionSpace,
    ArmStats,
    BoundParams,
    CoverageObserver,
    EnumerationInfeasibleError,
    ExactDpSolver,
    ProblemConfig,
    RewardModel,
    RunTrace,
    compute_continuous_reference,
    compute_gaps,
    compute_opt,
    dependent_regret_bound,
    independent_regret_bound,
    regret_series,
    run,
    scaling_check,
    split_discretization_regret,
)


def native_cfg(resources=2, budget=2.0, n=3):
    return ProblemConfig(
        resources=resources, budget=budget, space=ActionSpace.integer_levels(n)
    )


def stub_trace(expected, cfg):
    horizon = len(expected)
    return RunTrace(
        levels=np.zeros((horizon, cfg.resources), dtype=np.int64),
        rewards=np.zeros((horizon, cfg.resources)),
        expected=np.asarray(expected, dtype=np.float64),
        config=cfg,
        stats=ArmStats(
            np.zeros((cfg.resources, cfg.space.n), dtype=np.int64),
            np.zeros((cfg.resources, cfg.space.n)),
        ),
    )


class TestComputeOpt:
    def test_worked_instance(self):
        cfg = native_cfg()
        model = RewardModel.table([[0.0, 0.5, 0.6], [0.0, 0.3, 0.9]], rng_seed=0)
        assert compute_opt(model, cfg) == 0.9

    def test_flat_table(self):
        cfg = native_cfg(resources=3, budget=3.0, n=2)
        model = RewardModel.table(np.full((3, 2), 0.25), rng_seed=0)
        assert compute_opt(model, cfg) == 0.75

    def test_hinge_grid(self):
        model = RewardModel.hinge([1.0], budget=1.0, rng_seed=0)
        cfg = ProblemConfig(
            resources=1, budget=1.0, space=ActionSpace.uniform_grid(3, 0.5)
        )
        assert compute_opt(model, cfg) == 0.5


class TestContinuousReference:
    def test_brackets_a_known_optimum(self):
        # one resource, theta=1, Q=1: the continuum optimum is mean(1) = 0.5
        model = RewardModel.hinge([1.0], budget=1.0, rng_seed=0)
        ref = compute_continuous_reference(model, 1.0, refinement=1000)
        assert ref.lo == pytest.approx(0.5, abs=1e-12)  # endpoint on the grid
        assert ref.hi == pytest.approx(0.5 + 1.0 * 1 * 0.001, rel=1e-12)
        assert ref.pitch == 0.001

    def test_symmetric_concave_split(self):
        # two identical concave resources: continuum optimum splits evenly
        model = RewardModel.concave_exp([1.0, 1.0], [1.0, 1.0], rng_seed=0)
        truth = 2 * (1 - math.exp(-0.5))
        ref = compute_continuous_reference(model, 1.0, refinement=512)
        width = ref.hi - ref.lo
        assert width == pytest.approx(2.0 / 512, rel=1e-12)  # L*K*pitch
        # the even split sits on the grid, so lo hits the optimum exactly
        assert ref.lo == pytest.approx(truth, rel=1e-12)
        assert truth < ref.hi

    def test_refinement_tightens_the_bracket(self):
        model = RewardModel.concave_exp([0.8, 0.6], [0.7, 1.3], rng_seed=0)
        coarse = compute_continuous_reference(model, 2.0, refinement=64)
        fine = compute_continuous_reference(model, 2.0, refinement=512)
        assert fine.hi - fine.lo < coarse.hi - coarse.lo
        assert fine.lo >= coarse.lo - 1e-12
        assert fine.hi <= coarse.hi + 1e-12

    def test_peak_memory_three_resources(self):
        # The exact DP keeps one (r + 1)^2 gather index and one candidate
        # table of the same size; a units table beside them would push the
        # peak past the bound.
        model = RewardModel.concave_exp([0.9, 0.7, 0.8], [0.8, 0.5, 0.6], rng_seed=0)
        tracemalloc.start()
        try:
            compute_continuous_reference(model, 1.0, refinement=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_validation(self):
        model = RewardModel.hinge([1.0], budget=1.0, rng_seed=0)
        with pytest.raises(ValueError):
            compute_continuous_reference(model, 1.0, refinement=1)
        with pytest.raises(ValueError):
            compute_continuous_reference(
                RewardModel.table([[0.5, 0.5]], rng_seed=0), 1.0, refinement=8
            )


def enumerated_gaps(model, cfg, alpha=1.0):
    """Reference gap structure: every level vector from itertools.product,
    the infeasible ones dropped by their unit sum."""
    means = model.mean_matrix(cfg.space)
    cols = np.arange(cfg.resources)
    levels = np.array(list(itertools.product(range(cfg.space.n), repeat=cfg.resources)))
    levels = levels[levels.sum(axis=1) <= cfg.capacity_units]
    values = means[cols, levels].sum(axis=1)
    opt = float(values.max())
    gaps = alpha * opt - values
    positive = gaps > 0
    delta_min = np.full((cfg.resources, cfg.space.n), np.inf)
    for k in range(cfg.resources):
        np.minimum.at(delta_min[k], levels[positive, k], gaps[positive])
    return opt, delta_min, float(gaps[positive].max()) if positive.any() else 0.0


class TestComputeGaps:
    @pytest.mark.parametrize(
        "resources,n,budget,seed",
        [
            (3, 5, 12.0, 1),
            (3, 60, 59.0, 0),
            (4, 4, 4.0, 2),
            (2, 7, 9.0, 3),
            (5, 3, 3.0, 4),
        ],
        ids=["every-top-level", "crosses-blocks", "binds-4x4", "binds-2x7", "binds-5x3"],
    )
    @pytest.mark.parametrize("alpha", [1.0, 0.9])
    def test_equals_product_enumeration(self, resources, n, budget, seed, alpha):
        # 3 x 60 at budget 59 has 37,820 feasible rows, more than one block;
        # with seed 0 its optimum is row 34,488, in the second block.
        rng = np.random.default_rng(seed)
        model = RewardModel.table(np.sort(rng.random((resources, n)), axis=1), rng_seed=0)
        cfg = native_cfg(resources, budget, n)
        gaps = compute_gaps(model, cfg, alpha)
        opt, delta_min, delta_max = enumerated_gaps(model, cfg, alpha)
        assert gaps.opt == opt
        assert np.array_equal(gaps.delta_min_per_arm, delta_min)
        assert gaps.delta_max == delta_max

    def test_single_resource_by_hand(self):
        cfg = native_cfg(resources=1, budget=1.0, n=2)
        model = RewardModel.table([[0.2, 0.9]], rng_seed=0)
        gaps = compute_gaps(model, cfg)
        assert gaps.opt == pytest.approx(0.9, abs=1e-12)
        # playing level 0 forgoes 0.7; level 1 is the optimum
        assert gaps.delta_min_per_arm[0, 0] == pytest.approx(0.7, abs=1e-12)
        assert np.isinf(gaps.delta_min_per_arm[0, 1])
        assert gaps.delta_min == pytest.approx(0.7, abs=1e-12)
        assert gaps.delta_max == pytest.approx(0.7, abs=1e-12)

    def test_scaled_benchmark_shrinks_gaps(self):
        cfg = native_cfg(resources=1, budget=1.0, n=2)
        model = RewardModel.table([[0.2, 0.9]], rng_seed=0)
        gaps = compute_gaps(model, cfg, alpha=0.5)
        # against 0.45: level 0 forgoes 0.25, level 1 overshoots (no gap)
        assert gaps.delta_min_per_arm[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert np.isinf(gaps.delta_min_per_arm[0, 1])
        assert gaps.delta_max == pytest.approx(0.25, abs=1e-12)

    def test_flat_instance_has_no_gaps(self):
        cfg = native_cfg()
        model = RewardModel.table(np.full((2, 3), 0.5), rng_seed=0)
        gaps = compute_gaps(model, cfg)
        assert np.all(np.isinf(gaps.delta_min_per_arm))
        assert np.isinf(gaps.delta_min)
        assert gaps.delta_max == 0.0

    def test_opt_agrees_with_solver(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            resources = int(rng.integers(1, 4))
            n = int(rng.integers(2, 5))
            cfg = native_cfg(resources, float(rng.integers(n - 1, 7)), n)
            model = RewardModel.table(rng.random((resources, n)), rng_seed=0)
            gaps = compute_gaps(model, cfg)
            assert gaps.opt == pytest.approx(compute_opt(model, cfg), abs=1e-9)

    def test_per_arm_extrema_match_enumeration(self):
        from banditalloc import allocation_value, iter_feasible_levels

        cfg = native_cfg(resources=2, budget=3.0, n=3)
        model = RewardModel.table([[0.1, 0.8, 0.4], [0.3, 0.2, 0.9]], rng_seed=0)
        gaps = compute_gaps(model, cfg)
        means = model.mean_matrix(cfg.space)
        allocs = list(iter_feasible_levels(cfg))
        opt = max(allocation_value(means, lv) for lv in allocs)
        assert gaps.delta_max == pytest.approx(
            max(opt - allocation_value(means, lv) for lv in allocs)
        )
        for k in range(2):
            for a in range(3):
                deltas = [
                    opt - allocation_value(means, lv)
                    for lv in allocs
                    if lv[k] == a and opt - allocation_value(means, lv) > 0
                ]
                if deltas:
                    assert gaps.delta_min_per_arm[k, a] == pytest.approx(min(deltas))
                else:
                    assert np.isinf(gaps.delta_min_per_arm[k, a])

    def test_enumeration_guard(self):
        model = RewardModel.hinge([0.5] * 8, budget=10.0, rng_seed=0)
        cfg = ProblemConfig(
            resources=8, budget=10.0, space=ActionSpace.integer_levels(11)
        )
        with pytest.raises(EnumerationInfeasibleError):
            compute_gaps(model, cfg)


class TestRegretSeries:
    def test_cumulative_arithmetic(self):
        cfg = native_cfg(resources=1, budget=1.0, n=2)
        report = regret_series(stub_trace([0.6, 0.6], cfg), opt=1.0)
        assert report.series.tolist() == [0.4, 0.8]
        assert report.final == pytest.approx(0.8)

    def test_scaled_benchmark_can_go_negative(self):
        cfg = native_cfg(resources=1, budget=1.0, n=2)
        report = regret_series(stub_trace([0.6, 0.6, 0.6], cfg), opt=0.5)
        assert report.final == pytest.approx(-0.3)
        assert np.all(np.diff(report.series) < 0)

    def test_exact_oracle_regret_is_monotone_nonnegative(self):
        # the expected-reward channel uses the same fold as the solver, so
        # no float noise can push per-round regret below zero
        cfg = native_cfg()
        model = RewardModel.table([[0.1, 0.6, 0.3], [0.2, 0.4, 0.9]], rng_seed=29)
        trace = run(model, ExactDpSolver(cfg), cfg, 400)
        report = regret_series(trace, compute_opt(model, cfg))
        assert report.series[0] >= 0.0
        assert np.all(np.diff(report.series) >= 0.0)


class TestSplitDiscretizationRegret:
    def test_terms_sum_to_the_total(self):
        from banditalloc import OracleSpec, run_discretized

        model = RewardModel.concave_exp([0.9, 0.7], [0.8, 0.5], rng_seed=3)
        trace, plan = run_discretized(model, OracleSpec(), budget=1.0, horizon=250)
        cfg = ProblemConfig(resources=2, budget=1.0, space=plan.grid)
        grid_opt = compute_opt(model, cfg)
        ref = compute_continuous_reference(model, 1.0, refinement=512)
        report = split_discretization_regret(trace, grid_opt, ref)
        assert report.term_learning + report.term_discretization == pytest.approx(
            report.final, rel=1e-9
        )
        assert report.term_discretization >= 0.0
        assert report.final == pytest.approx(
            250 * ref.hi - trace.expected.sum(), rel=1e-12
        )


class TestRegretBounds:
    def test_dependent_bound_formula(self):
        gaps_matrix = np.array([[0.5, np.inf], [0.25, 0.125]])
        from banditalloc import GapReport

        gaps = GapReport(
            opt=1.0,
            delta_min_per_arm=gaps_matrix,
            delta_min=0.125,
            delta_max=0.5,
        )
        budget, resources, levels, horizon = 5.0, 2, 2, 10_000
        got = dependent_regret_bound(gaps, BoundParams(), budget, resources, levels, horizon)
        lead = sum(
            48 * budget * math.log(horizon) / d for d in (0.5, 0.25, 0.125)
        )
        want = lead + 2 * resources * levels + (math.pi**2 / 3) * resources * levels * 0.5
        assert got == pytest.approx(want, rel=1e-12)

    def test_dependent_bound_needs_a_gap(self):
        from banditalloc import GapReport

        gaps = GapReport(
            opt=1.0,
            delta_min_per_arm=np.full((1, 2), np.inf),
            delta_min=np.inf,
            delta_max=0.0,
        )
        with pytest.raises(ValueError):
            dependent_regret_bound(gaps, BoundParams(), 1.0, 1, 2, 100)

    def test_independent_bound_formula(self):
        budget, resources, levels, horizon = 5.0, 3, 4, 10_000
        got = independent_regret_bound(
            BoundParams(), budget, resources, levels, horizon, delta_max=0.8
        )
        arms = resources * levels
        want = (
            14 * math.sqrt(budget * arms * horizon * math.log(horizon))
            + 2 * arms
            + (math.pi**2 / 3) * arms * 0.8
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_independent_bound_at_horizon_one(self):
        got = independent_regret_bound(BoundParams(), 2.0, 2, 3, 1, delta_max=0.5)
        assert got == pytest.approx(2 * 6 + (math.pi**2 / 3) * 6 * 0.5, rel=1e-12)

    def test_smoothness_scales_the_bounds(self):
        params2 = BoundParams(smoothness=2.0)
        one = independent_regret_bound(BoundParams(), 1.0, 1, 2, 100, 0.0)
        two = independent_regret_bound(params2, 1.0, 1, 2, 100, 0.0)
        assert two > one

    def test_bound_grows_logarithmically(self):
        # dependent bound differences across decades are about constant
        from banditalloc import GapReport

        gaps = GapReport(
            opt=1.0,
            delta_min_per_arm=np.array([[0.5, 0.5]]),
            delta_min=0.5,
            delta_max=0.5,
        )
        values = [
            dependent_regret_bound(gaps, BoundParams(), 1.0, 1, 2, t)
            for t in (100, 1000, 10_000)
        ]
        d1, d2 = values[1] - values[0], values[2] - values[1]
        assert d1 == pytest.approx(d2, rel=1e-9)


class TestScalingCheck:
    def test_on_the_law_passes(self):
        law = {t: 3.0 * t ** (2 / 3) * math.log(t) ** (1 / 3) for t in (100, 1000, 10_000, 100_000)}
        report = scaling_check(law)
        assert report.passed
        assert report.normalized == pytest.approx((3.0, 3.0, 3.0, 3.0))

    def test_linear_regret_fails(self):
        linear = {t: 0.1 * t for t in (100, 1000, 10_000)}
        report = scaling_check(linear)
        assert not report.passed
        assert report.normalized[0] < report.normalized[1] < report.normalized[2]

    def test_slack_tolerates_noise(self):
        wobbly = {100: 10.0, 1000: 10.4, 10_000: 9.1}
        base = {
            t: wobbly[t] * t ** (2 / 3) * math.log(t) ** (1 / 3) for t in wobbly
        }
        assert scaling_check(base, slack=0.25).passed
        assert not scaling_check(base, slack=0.01).passed

    def test_validation(self):
        with pytest.raises(ValueError):
            scaling_check({100: 1.0, 1000: 1.0})
        with pytest.raises(ValueError):
            scaling_check({100: 1.0, 200: 1.0, 400: 1.0})  # under two decades
        with pytest.raises(ValueError):
            scaling_check({1: 1.0, 100: 1.0, 10_000: 1.0})
        with pytest.raises(ValueError):
            scaling_check({100: 1.0, 1000: 1.0, 10_000: 1.0}, slack=-0.1)


def violating_rounds(model, cfg, horizon, observer):
    """Run the exact-DP learner, showing each round's start-of-round
    statistics to a recorder and then to ``observer``; return which rounds
    had some arm outside its confidence interval, |emp - true| >= radius."""
    emp, radii = [], []

    def record_then_observe(t, emp_means, radii_now):
        emp.append(emp_means.copy())
        radii.append(radii_now.copy())
        observer(t, emp_means, radii_now)

    run(model, ExactDpSolver(cfg), cfg, horizon, observer=record_then_observe)
    outside = np.abs(np.array(emp) - model.mean_matrix(cfg.space)) >= np.array(radii)
    return outside.any(axis=(1, 2))


class TestCoverage:
    def test_deterministic_instance_never_violates(self):
        cfg = native_cfg()
        model = RewardModel.table([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], rng_seed=0)
        observer = CoverageObserver(model.mean_matrix(cfg.space))
        violating = violating_rounds(model, cfg, 500, observer)
        assert observer.count == 0
        assert not violating.any()

    def test_streaming_observer_matches_batch(self):
        cfg = native_cfg()
        model = RewardModel.table([[0.1, 0.6, 0.3], [0.2, 0.4, 0.9]], rng_seed=41)
        observer = CoverageObserver(model.mean_matrix(cfg.space))
        violating = violating_rounds(model, cfg, 800, observer)
        assert observer.count == int(violating.sum())

    def test_handcrafted_violation(self):
        observer = CoverageObserver(np.array([[0.5, 0.5]]))
        emp = np.zeros((1, 2))
        radii = np.full((1, 2), np.inf)
        observer(1, emp, radii)
        assert observer.count == 0
        emp[0, 0] = 0.9  # off by 0.4 with radius 0.1: a violation
        radii[0, 0] = 0.1
        observer(2, emp, radii)
        assert observer.count == 1

    def test_counts_at_horizons(self):
        observer = CoverageObserver(np.array([[0.5, 0.5]]), horizons=(2, 4))
        emp = np.array([[0.9, 0.5]])
        tight, loose = np.full((1, 2), 0.1), np.full((1, 2), 1.0)
        for t, radii in enumerate([tight, loose, tight, tight, tight], start=1):
            observer(t, emp, radii)
        assert observer.counts_at == {2: 1, 4: 3}
        assert observer.count == 4

    def test_untried_arms_cannot_violate(self):
        observer = CoverageObserver(np.array([[0.5, 0.5]]))
        observer(1, np.zeros((1, 2)), np.full((1, 2), np.inf))
        assert observer.count == 0
