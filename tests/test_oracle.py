import numpy as np
import pytest
from conftest import History
from numpy.random import Generator, Philox

from banditalloc import (
    ActionSpace,
    CoinFlipOracle,
    ExactDpSolver,
    GreedySolver,
    OracleSpec,
    ProblemConfig,
    RewardModel,
    allocation_value,
    build_solver,
    iter_feasible_levels,
    run,
    solve_exact_dp,
    streams,
)
from banditalloc import oracle as oracle_module


def native_cfg(resources, budget, n):
    return ProblemConfig(
        resources=resources, budget=budget, space=ActionSpace.integer_levels(n)
    )


def brute_force(means, cfg):
    """Reference optimum: full enumeration with the documented tie order
    (max value, then min total budget, then lexicographically smallest)."""
    best_v, best_u, best_l = -np.inf, None, None
    for lv in iter_feasible_levels(cfg):
        v = allocation_value(means, lv)
        u = sum(lv)
        if (
            v > best_v
            or (v == best_v and u < best_u)
            or (v == best_v and u == best_u and lv < best_l)
        ):
            best_v, best_u, best_l = v, u, lv
    return best_l, best_v


def random_instance(rng):
    resources = int(rng.integers(1, 5))
    n = int(rng.integers(2, 6))
    if rng.random() < 0.5:
        budget = float(rng.integers(n - 1, 9))
        space = ActionSpace.integer_levels(n)
    else:
        pitch = float(rng.uniform(0.1, 1.3))
        budget = float(rng.uniform((n - 1) * pitch * 0.5, 8.0))
        space = ActionSpace.uniform_grid(n, pitch)
    cfg = ProblemConfig(resources=resources, budget=budget, space=space)
    return cfg, rng.random((resources, n))


def reference_greedy(means, cfg):
    """The upgrade greedy as a plain rescan of every resource and target level
    per upgrade, with the solver's arithmetic and tie order."""
    cap = min(cfg.capacity_units, cfg.resources * (cfg.space.n - 1))
    n, pitch = cfg.space.n, cfg.space.pitch
    levels = np.zeros(cfg.resources, dtype=np.int64)
    spent = 0
    while True:
        best_ratio = 0.0
        best = None
        for k in range(cfg.resources):
            cur = int(levels[k])
            base = means[k, cur]
            top = min(n - 1, cur + cap - spent)
            for b in range(cur + 1, top + 1):
                gain = means[k, b] - base
                if gain <= 0:
                    continue
                ratio = gain / ((b - cur) * pitch)
                if ratio > best_ratio:
                    best_ratio = ratio
                    best = (k, b)
        if best is None:
            return levels
        k, b = best
        spent += b - int(levels[k])
        levels[k] = b


def reference_coin(seed, stream, call):
    """The success coin of call number ``call``, drawn on its own."""
    bits = Philox(key=[seed, stream], counter=[call, 0, 0, 0])
    return float(Generator(bits).random())


class ReferenceCoinGreedy:
    """Coin-wrapped greedy built from the two references above."""

    def __init__(self, cfg, beta, seed):
        self.cfg = cfg
        self.spec = OracleSpec(1.0, beta, "greedy")
        self._seed = seed
        self.calls = 0

    def solve_levels(self, means):
        self.calls += 1
        if reference_coin(self._seed, streams.COIN_STREAM, self.calls) < self.spec.beta:
            return reference_greedy(means, self.cfg)
        return np.zeros(self.cfg.resources, dtype=np.int64)


def greedy_case(rng, values):
    """A random instance with K 1-6 and n 2-7, its budget below, at or above
    the (n-1)*K units that buy every top level, and means from ``values``."""
    resources = int(rng.integers(1, 7))
    n = int(rng.integers(2, 8))
    if rng.random() < 0.5:
        space = ActionSpace.integer_levels(n)
    else:
        space = ActionSpace.uniform_grid(n, float(rng.uniform(0.05, 1.5)))
    full = (n - 1) * resources
    units = [int(rng.integers(0, full + 1)), full, full + int(rng.integers(1, 4))][
        int(rng.integers(0, 3))
    ]
    if not space.is_grid:
        units = max(units, n - 1)  # a native space must afford its top level
    cfg = ProblemConfig(resources=resources, budget=units * space.pitch, space=space)
    return cfg, values(rng, (resources, n))


GREEDY_VALUES = {
    "uniform": lambda rng, shape: rng.random(shape),
    "heavy_ties": lambda rng, shape: np.array([0.0, 0.25, 0.5, 1.0])[
        rng.integers(0, 4, size=shape)
    ],
    "clamped": lambda rng, shape: np.minimum(1.0, 1.5 * rng.random(shape)),
    "negative": lambda rng, shape: rng.normal(size=shape),
}


class TestExactDp:
    def test_small_worked_instance(self):
        cfg = native_cfg(2, 2.0, 3)
        means = np.array([[0.0, 0.5, 0.6], [0.0, 0.3, 0.9]])
        res = solve_exact_dp(means, cfg)
        assert res.allocation.levels == (0, 2)
        assert res.value == 0.9

    def test_zero_means_spend_nothing(self):
        cfg = native_cfg(3, 4.0, 3)
        res = solve_exact_dp(np.zeros((3, 3)), cfg)
        assert res.allocation.levels == (0, 0, 0)
        assert res.value == 0.0

    def test_abundant_budget_takes_per_row_argmax(self):
        # budget covers every resource's best level, ties to the smaller index
        cfg = native_cfg(3, 8.0, 3)
        means = np.array([[0.1, 0.7, 0.7], [0.2, 0.2, 0.9], [0.5, 0.1, 0.0]])
        res = solve_exact_dp(means, cfg)
        assert res.allocation.levels == (1, 2, 0)

    def test_zero_budget(self):
        cfg = native_cfg(2, 0.0, 1)
        res = solve_exact_dp(np.array([[0.4], [0.6]]), cfg)
        assert res.allocation.levels == (0, 0)

    def test_matches_enumeration_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            cfg, means = random_instance(rng)
            res = ExactDpSolver(cfg).solve(means)
            best_l, best_v = brute_force(means, cfg)
            assert res.value == best_v  # no tolerance by design
            assert res.allocation.levels == best_l

    def test_tie_breaking_under_heavy_ties(self):
        rng = np.random.default_rng(23)
        pool = np.array([0.0, 0.25, 0.5])
        for _ in range(40):
            resources = int(rng.integers(1, 4))
            n = int(rng.integers(2, 5))
            cfg = native_cfg(resources, float(rng.integers(n - 1, 7)), n)
            means = pool[rng.integers(0, 3, size=(resources, n))]
            res = ExactDpSolver(cfg).solve(means)
            assert (res.allocation.levels, res.value) == brute_force(means, cfg)

    @pytest.mark.parametrize("resources", [4, 5])
    def test_stored_choices_chain_under_heavy_ties(self, resources):
        # Two or more middle rows, each picking its level from the stored
        # choice table with ties on both value and units.
        rng = np.random.default_rng(31 + resources)
        pool = np.array([0.0, 0.25, 0.5])
        for _ in range(40):
            n = int(rng.integers(2, 5))
            budget = float(rng.integers(n - 1, resources * (n - 1) + 2))
            cfg = native_cfg(resources, budget, n)
            means = pool[rng.integers(0, 3, size=(resources, n))]
            res = ExactDpSolver(cfg).solve(means)
            assert (res.allocation.levels, res.value) == brute_force(means, cfg)

    @pytest.mark.parametrize("resources", [3, 4, 5])
    def test_ties_everywhere(self, resources):
        # All-equal means, and means clamped at 1.0 as in the learner's
        # early rounds, with the capacity both at or past n units (the last
        # row is padded) and below n - 1 units (a grid space).
        rng = np.random.default_rng(41 + resources)
        for case in range(60):
            n = int(rng.integers(2, 6))
            if case % 2:
                units = int(rng.integers(n, resources * (n - 1) + 3))
                cfg = native_cfg(resources, float(units), n)
            else:
                units = int(rng.integers(0, n - 1))
                space = ActionSpace.uniform_grid(n, 0.25)
                cfg = ProblemConfig(resources=resources, budget=units * 0.25, space=space)
            assert cfg.capacity_units == units
            if case % 4 < 2:
                means = np.full((resources, n), float(rng.choice([0.0, 0.5, 1.0])))
            else:
                bumped = rng.choice([0.0, 0.25, 0.5, 0.75, 1.25], (resources, n))
                means = np.minimum(bumped, 1.0)
            res = ExactDpSolver(cfg).solve(means)
            assert (res.allocation.levels, res.value) == brute_force(means, cfg)

    def test_middle_row_prefers_fewer_units(self):
        # At column 2 the middle resource's level 0 ties on value with its
        # level 1, but only because the last resource then spends two units
        # on its 0.5; (0, 1, 0) reaches the same value with one unit.
        cfg = native_cfg(3, 2.0, 3)
        means = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]])
        assert solve_exact_dp(means, cfg).allocation.levels == (0, 1, 0)

    @pytest.mark.parametrize("resources", [4, 5])
    def test_middle_rows_pick_the_fewest_units_under_threshold_ties(self, resources):
        # Resource k earns 0.5 from a random level on, so funding different
        # resources ties on value but not on units. With c units left, a
        # middle row's first maximizer at c can be a lower level whose tail
        # spends more; the first maximizer at the first column that reaches
        # the row's value at c spends the fewest. Alone and as lanes of a
        # block, beside an all-zero lane and the reversed rows.
        rng = np.random.default_rng(71 + resources)
        for _ in range(40):
            n = int(rng.integers(3, 6))
            budget = float(rng.integers(n - 1, resources * (n - 1) + 1))
            cfg = native_cfg(resources, budget, n)
            means = np.where(np.arange(n) >= rng.integers(1, n, (resources, 1)), 0.5, 0.0)
            res = ExactDpSolver(cfg).solve(means)
            assert (res.allocation.levels, res.value) == brute_force(means, cfg)
            block = np.stack([means, np.zeros_like(means), means[::-1]])
            want = [list(brute_force(lane, cfg)[0]) for lane in block]
            assert ExactDpSolver(cfg)._levels_lanes(block) == want

    @pytest.mark.parametrize("values", sorted(GREEDY_VALUES))
    def test_lanes_equal_one_matrix_solves(self, values):
        # A block of 1-5 lanes, solved by one batched backward pass, gives
        # every lane the allocation a one-matrix solve gives it.
        rng = np.random.default_rng(61 + sorted(GREEDY_VALUES).index(values))
        for _ in range(40):
            cfg, _ = greedy_case(rng, GREEDY_VALUES[values])
            width = int(rng.integers(1, 6))
            block = GREEDY_VALUES[values](rng, (width, cfg.resources, cfg.space.n))
            solver = ExactDpSolver(cfg)
            want = [ExactDpSolver(cfg).solve_levels(means).tolist() for means in block]
            assert solver._levels_lanes(block) == want
            assert solver._levels_lanes(block[:1]) == want[:1]

    def test_rounding_absorbed_tie_keeps_the_larger_tail(self):
        # 1 + 0.5 == 1 + nextafter(0.5, 1), so (0, 1) and (0, 2) fold to one
        # value and the documented tie order ranks (0, 1) first. The DP
        # follows the larger tail value and returns (0, 2), alone and as a
        # lane of a block (the exception ExactDpSolver's docstring states).
        cfg = native_cfg(2, 2.0, 3)
        means = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, np.nextafter(0.5, 1.0)]])
        assert brute_force(means, cfg)[0] == (0, 1)
        solver = ExactDpSolver(cfg)
        assert solver.solve_levels(means).tolist() == [0, 2]
        block = np.stack([np.zeros_like(means), means, means])
        assert solver._levels_lanes(block) == [[0, 0], [0, 2], [0, 2]]

    def test_deterministic_repeat(self):
        cfg = native_cfg(3, 4.0, 3)
        means = np.full((3, 3), 0.5)
        solver = ExactDpSolver(cfg)
        first = solver.solve(means)
        second = solver.solve(means)
        assert first.allocation == second.allocation == solve_exact_dp(means, cfg).allocation
        # all-equal means: cheapest maximizer is to spend nothing
        assert first.allocation.levels == (0, 0, 0)

    def test_value_equals_allocation_value(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cfg, means = random_instance(rng)
            res = ExactDpSolver(cfg).solve(means)
            assert res.value == allocation_value(means, res.allocation.levels)

    def test_monotone_in_means(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            cfg, means = random_instance(rng)
            bigger = np.minimum(1.0, means + rng.random(means.shape) * 0.3)
            assert ExactDpSolver(cfg).solve(bigger).value >= ExactDpSolver(cfg).solve(means).value

    def test_objective_is_one_smooth(self):
        # moving the mean matrix moves any fixed allocation's value by at
        # most the summed absolute change
        rng = np.random.default_rng(9)
        for _ in range(20):
            cfg, means = random_instance(rng)
            other = rng.random(means.shape)
            for lv in iter_feasible_levels(cfg):
                delta = abs(allocation_value(means, lv) - allocation_value(other, lv))
                assert delta <= np.abs(means - other).sum() + 1e-12

    def test_shape_and_finite_errors(self):
        cfg = native_cfg(2, 2.0, 3)
        with pytest.raises(ValueError):
            solve_exact_dp(np.zeros((3, 3)), cfg)
        with pytest.raises(ValueError):
            solve_exact_dp(np.array([[0.0, np.nan, 0.1], [0.0, 0.1, 0.2]]), cfg)
        with pytest.raises(ValueError):
            solve_exact_dp(np.array([[0.0, np.inf, 0.1], [0.0, 0.1, 0.2]]), cfg)

    def test_grid_capacity_boundary(self):
        # budget an exact multiple of the pitch: the full spend is purchasable
        pitch = 2.0 / 33.0
        cfg = ProblemConfig(
            resources=1, budget=2.0, space=ActionSpace.uniform_grid(34, pitch)
        )
        means = np.linspace(0.0, 1.0, 34)[None, :]
        res = ExactDpSolver(cfg).solve(means)
        assert res.allocation.levels == (33,)


class TestGreedy:
    def test_per_unit_gain_trace(self):
        # ratios from level 0: resource 1 -> 0.5/1, 0.3/1 avg ...; the greedy
        # first takes (k=1, level 1) at gain 0.5, then (k=2, level 1) at 0.3.
        cfg = native_cfg(2, 2.0, 3)
        means = np.array([[0.0, 0.5, 0.6], [0.0, 0.3, 0.9]])
        res = GreedySolver(cfg).solve(means)
        assert res.allocation.levels == (1, 1)
        assert res.value == 0.8

    def test_multi_level_jump(self):
        # level 1 is worthless but level 2 pays 0.45/unit, better than the
        # other resource's 0.4/unit single step
        cfg = native_cfg(2, 2.0, 3)
        means = np.array([[0.0, 0.0, 0.9], [0.0, 0.4, 0.4]])
        res = GreedySolver(cfg).solve(means)
        assert res.allocation.levels == (2, 0)
        assert res.value == 0.9

    def test_zero_means_spend_nothing(self):
        cfg = native_cfg(2, 2.0, 3)
        res = GreedySolver(cfg).solve(np.zeros((2, 3)))
        assert res.allocation.levels == (0, 0)

    def test_never_beats_exact_and_stays_feasible(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            cfg, means = random_instance(rng)
            g = GreedySolver(cfg).solve(means)
            assert g.value <= ExactDpSolver(cfg).solve(means).value + 1e-12
            assert sum(g.allocation.levels) <= cfg.capacity_units

    def test_exact_for_single_resource(self):
        # one resource: the greedy keeps upgrading while any level improves,
        # so it lands on the best feasible level
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            cfg = native_cfg(1, float(rng.integers(n - 1, 8)), n)
            means = rng.random((1, n))
            assert GreedySolver(cfg).solve(means).value == ExactDpSolver(cfg).solve(means).value

    def test_tie_prefers_smaller_resource_then_level(self):
        cfg = native_cfg(2, 1.0, 2)
        means = np.array([[0.0, 0.5], [0.0, 0.5]])
        assert GreedySolver(cfg).solve(means).allocation.levels == (1, 0)

    @pytest.mark.parametrize("seed, values", enumerate(sorted(GREEDY_VALUES)))
    def test_matches_reference_loop(self, seed, values):
        rng = np.random.default_rng(seed)
        budgets = {"below": 0, "at": 0, "above": 0}
        for _ in range(600):
            cfg, means = greedy_case(rng, GREEDY_VALUES[values])
            full = (cfg.space.n - 1) * cfg.resources
            units = cfg.capacity_units
            budgets["below" if units < full else "at" if units == full else "above"] += 1
            got = GreedySolver(cfg).solve_levels(means)
            want = reference_greedy(means, cfg)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
        assert min(budgets.values()) > 0

    def test_shape_and_finite_errors(self):
        cfg = native_cfg(2, 2.0, 3)
        solver = GreedySolver(cfg)
        for bad in (
            np.zeros((3, 3)),
            np.zeros((2, 2)),
            np.array([[0.0, np.nan, 0.1], [0.0, 0.1, 0.2]]),
            np.array([[0.0, 0.1, 0.1], [0.0, np.inf, 0.2]]),
            np.array([[-np.inf, 0.1, 0.1], [0.0, 0.1, 0.2]]),
        ):
            with pytest.raises(ValueError):
                solver.solve(bad)
            with pytest.raises(ValueError):
                solver.solve_levels(bad)


class TestCoinFlipOracle:
    def test_beta_one_equals_base(self):
        cfg = native_cfg(2, 2.0, 3)
        means = np.array([[0.0, 0.5, 0.6], [0.0, 0.3, 0.9]])
        base = ExactDpSolver(cfg)
        wrapped = build_solver(OracleSpec(1.0, 1.0, "exact_dp"), cfg, seed=3)
        assert isinstance(wrapped, ExactDpSolver)
        assert wrapped.solve(means).allocation == base.solve(means).allocation

    def test_failures_return_zeros(self):
        cfg = native_cfg(2, 2.0, 3)
        means = np.array([[0.0, 0.5, 0.6], [0.0, 0.3, 0.9]])
        oracle = CoinFlipOracle(ExactDpSolver(cfg), beta=0.5, seed=12)
        outcomes = {tuple(oracle.solve_levels(means)) for _ in range(200)}
        assert outcomes == {(0, 0), (0, 2)}

    def test_success_rate_matches_beta(self):
        cfg = native_cfg(1, 1.0, 2)
        means = np.array([[0.0, 1.0]])
        beta = 0.3
        oracle = CoinFlipOracle(ExactDpSolver(cfg), beta=beta, seed=1)
        draws = 2000
        hits = sum(oracle.solve_levels(means)[0] == 1 for _ in range(draws))
        se = np.sqrt(beta * (1 - beta) / draws)
        assert abs(hits / draws - beta) < 4 * se

    def test_replays_exactly(self):
        cfg = native_cfg(2, 2.0, 3)
        means = np.array([[0.0, 0.5, 0.6], [0.0, 0.3, 0.9]])
        runs = []
        for _ in range(2):
            oracle = CoinFlipOracle(ExactDpSolver(cfg), beta=0.4, seed=77)
            runs.append([tuple(oracle.solve_levels(means)) for _ in range(50)])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("entry", ["solve_levels", "solve"])
    def test_coins_match_pointwise_draws_across_blocks(self, entry):
        cfg = native_cfg(2, 2.0, 3)
        means = np.array([[0.0, 0.5, 0.6], [0.0, 0.3, 0.9]])
        beta, seed = 0.55, 2024
        oracle = CoinFlipOracle(GreedySolver(cfg), beta=beta, seed=seed)
        success = reference_greedy(means, cfg).tolist()
        assert success != [0, 0]
        if entry == "solve":
            got = [list(oracle.solve(means).allocation.levels) for _ in range(2500)]
        else:
            got = [oracle.solve_levels(means).tolist() for _ in range(2500)]
        want = [
            success if reference_coin(seed, streams.COIN_STREAM, c) < beta else [0, 0]
            for c in range(1, 2501)
        ]
        assert got == want
        assert oracle.calls == 2500

    def test_learner_run_matches_reference_solver(self):
        cfg = ProblemConfig(resources=4, budget=7.0, space=ActionSpace.integer_levels(5))
        thetas = (0.2, 0.45, 0.7, 0.95)
        solvers = (
            build_solver(OracleSpec(0.9, 0.9, "greedy"), cfg, seed=5),
            ReferenceCoinGreedy(cfg, 0.9, 5),
        )
        traces, histories = [], [History(), History()]
        for solver, history in zip(solvers, histories):
            model = RewardModel.hinge(thetas, budget=cfg.budget, rng_seed=13)
            traces.append(run(model, solver, cfg, 3000, sink=history))
        got, want = traces
        assert np.array_equal(histories[0].levels, histories[1].levels)
        assert np.array_equal(histories[0].rewards, histories[1].rewards)
        assert np.array_equal(histories[0].expected, histories[1].expected)
        assert np.array_equal(got.stats.counts, want.stats.counts)
        assert np.array_equal(got.stats.emp_means, want.stats.emp_means)

    def test_shape_and_finite_errors(self):
        cfg = native_cfg(2, 2.0, 3)
        seed, tiny = 3, 1e-9
        # With beta this small the first coin fails, so the base solver never
        # sees the means; solve and solve_levels must still reject them.
        assert reference_coin(seed, streams.COIN_STREAM, 1) >= tiny
        bads = (
            np.zeros((3, 3)),
            np.array([[0.0, np.nan, 0.1], [0.0, 0.1, 0.2]]),
            np.array([[0.0, 0.1, 0.1], [0.0, np.inf, 0.2]]),
        )
        for beta in (1.0, 0.5, tiny):
            oracle = CoinFlipOracle(GreedySolver(cfg), beta=beta, seed=seed)
            for bad in bads:
                with pytest.raises(ValueError):
                    oracle.solve(bad)
            assert oracle.calls == 0
            for bad in bads:
                with pytest.raises(ValueError):
                    oracle.solve_levels(bad)

    @pytest.mark.parametrize("beta", [0.0, 1.5, float("nan")])
    def test_rejects_beta_outside_unit_interval(self, beta):
        cfg = native_cfg(2, 2.0, 3)
        with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\]"):
            CoinFlipOracle(ExactDpSolver(cfg), beta, 0)

    def test_spec_reflects_wrapping(self):
        cfg = native_cfg(2, 2.0, 3)
        oracle = build_solver(OracleSpec(1.0, 0.6, "exact_dp"), cfg, seed=0)
        assert isinstance(oracle, CoinFlipOracle)
        assert oracle.spec == OracleSpec(1.0, 0.6, "exact_dp")


@pytest.mark.parametrize("kind", ["exact", "greedy", "coin heads", "coin tails"])
def test_solve_checks_the_means_once(monkeypatch, kind):
    cfg = native_cfg(2, 2.0, 3)
    means = [[0.0, 0.5, 0.6], [0.0, 0.3, 0.9]]
    seed, tiny = 3, 1e-9
    assert reference_coin(seed, streams.COIN_STREAM, 1) >= tiny
    solver = {
        "exact": lambda: ExactDpSolver(cfg),
        "greedy": lambda: GreedySolver(cfg),
        "coin heads": lambda: CoinFlipOracle(ExactDpSolver(cfg), 1.0, seed),
        "coin tails": lambda: CoinFlipOracle(GreedySolver(cfg), tiny, seed),
    }[kind]()
    base = getattr(solver, "base", solver)
    want = (0, 0) if kind == "coin tails" else type(base)(cfg).solve(means).allocation.levels
    checks = []
    check = oracle_module._check_means

    def counting_check(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(oracle_module, "_check_means", counting_check)
    # The means arrive as a list: solve still folds the value over a
    # float64 matrix.
    got = solver.solve(means)
    assert len(checks) == 1
    assert got.allocation.levels == want
    assert got.value == allocation_value(np.array(means), want)


class TestOracleSpec:
    def test_validation(self):
        OracleSpec(1.0, 1.0, "exact_dp")
        OracleSpec(0.5, 0.9, "greedy")
        with pytest.raises(ValueError):
            OracleSpec(kind="magic")
        with pytest.raises(ValueError):
            OracleSpec(alpha=0.0)
        with pytest.raises(ValueError):
            OracleSpec(alpha=1.2)
        with pytest.raises(ValueError):
            OracleSpec(beta=0.0)
        with pytest.raises(ValueError):
            OracleSpec(alpha=0.9, kind="exact_dp")
