import hashlib
import math
import random

import numpy as np
import pytest
from numpy.random import Generator, Philox

from banditalloc import ActionSpace, ArmId, RewardModel, plan_discretization
from banditalloc import streams


class TestStreams:
    def test_pointwise_reproducible(self):
        a = streams.uniform_at(42, 3, 100)
        b = streams.uniform_at(42, 3, 100)
        assert a == b
        assert 0.0 <= a < 1.0

    def test_distinct_addresses_differ(self):
        base = streams.uniform_at(42, 3, 100)
        assert streams.uniform_at(43, 3, 100) != base
        assert streams.uniform_at(42, 4, 100) != base
        assert streams.uniform_at(42, 3, 101) != base

    def test_pointwise_draw_is_the_first_philox_double(self):
        # the address scheme itself, written out without the module
        bits = Philox(key=[7, 2], counter=[5, 0, 0, 0])
        assert streams.uniform_at(7, 2, 5) == float(Generator(bits).random())

    def test_block_matches_pointwise(self):
        block = streams.uniform_block(7, 2, 5, 64)
        for i in range(64):
            assert block[i] == streams.uniform_at(7, 2, 5 + i)

    def test_block_edge_cases(self):
        assert streams.uniform_block(1, 1, 1, 0).shape == (0,)
        with pytest.raises(ValueError):
            streams.uniform_block(1, 1, 1, -1)

    def test_block_equals_numpy_philox(self):
        # The kernel against numpy's own Philox4x64-10 at random addresses:
        # half the seeds at or above 2**63, where numpy's key conversion goes
        # through float64, and streams from the reward range and the coins.
        rng = np.random.default_rng(2024)
        counts = (0, 1, 1023, 4097)
        seeds = rng.integers(0, 2**63, size=1000, dtype=np.uint64).tolist()
        for i, seed in enumerate(seeds):
            seed += (i % 2) << 63
            stream = (1, 6, 5000, streams.COIN_STREAM)[i // 2 % 4]
            start = int(rng.integers(0, 10**7 + 1))
            count = counts[i // 8 % 4]
            bits = Philox(key=[seed, stream], counter=[start, 0, 0, 0])
            want = Generator(bits).random(4 * count)[::4]
            got = streams.uniform_block(seed, stream, start, count)
            assert got.shape == (count,)
            assert np.array_equal(got, want), (seed, stream, start, count)

    def test_seeds_at_the_top_share_their_key(self):
        # numpy's key conversion rounds such seeds through float64; the
        # kernel keeps that, so seeds 2**10 apart can give the same draws.
        top = 2**64 - 2**11
        for seed in (top, top + 1, 2**63 + 1):
            bits = Philox(key=[seed, 1], counter=[3, 0, 0, 0])
            want = Generator(bits).random(4 * 8)[::4]
            assert np.array_equal(streams.uniform_block(seed, 1, 3, 8), want)
        assert np.array_equal(
            streams.uniform_block(top, 1, 3, 8), streams.uniform_block(top + 1, 1, 3, 8)
        )

    def test_stream_sequence_rows_equal_single_streams(self):
        for seed in (0, 7, 2**63 + 12345):
            ids = [1, 2, 3, streams.COIN_STREAM, 2]
            block = streams.uniform_block(seed, ids, 11, 300)
            assert block.shape == (len(ids), 300)
            for row, stream in zip(block, ids):
                assert np.array_equal(row, streams.uniform_block(seed, stream, 11, 300))
        assert streams.uniform_block(1, range(1, 4), 1, 0).shape == (3, 0)
        assert streams.uniform_block(1, [], 1, 5).shape == (0, 5)

    def test_pointwise_equals_a_block_of_one(self):
        rng = np.random.default_rng(99)
        for i in range(200):
            seed = int(rng.integers(0, 2**63)) + (i % 2) * 2**63
            stream = (3, streams.COIN_STREAM)[i % 2]
            index = int(rng.integers(0, 10**7))
            want = streams.uniform_block(seed, stream, index, 1)[0]
            assert streams.uniform_at(seed, stream, index) == want

    def test_counter_bound(self):
        top = 2**63
        assert streams.uniform_block(1, 1, top - 2, 2).shape == (2,)
        assert streams.uniform_block(1, 1, top, 0).shape == (0,)
        assert 0.0 <= streams.uniform_at(1, 1, top - 1) < 1.0
        for start, count in ((top - 1, 2), (top, 1), (-1, 1)):
            with pytest.raises(ValueError):
                streams.uniform_block(1, 1, start, count)
        for index in (top, -1):
            with pytest.raises(ValueError):
                streams.uniform_at(1, 1, index)

    def test_uniform_moments(self):
        block = streams.uniform_block(0, 0, 0, 10_000)
        assert abs(block.mean() - 0.5) < 0.02
        assert block.min() >= 0.0 and block.max() < 1.0

    def test_mix_seed_spreads(self):
        seeds = {streams.mix_seed(42, i) for i in range(200)}
        assert len(seeds) == 200
        assert all(0 <= s < 2**64 for s in seeds)
        # adding replications never changes earlier ones
        assert streams.mix_seed(42, 3) == streams.mix_seed(42, 3)

    def test_mix_seed_is_the_blake2b_formula(self):
        # The seed every recorded output was made with, written out with the
        # standard library's BLAKE2b.
        def reference(base, index):
            digest = hashlib.blake2b(index.to_bytes(8, "little"), digest_size=8)
            return (base ^ int.from_bytes(digest.digest(), "little")) % 2**64

        rng = random.Random(19)
        indices = list(range(10_001)) + [rng.getrandbits(64) for _ in range(1000)]
        for index in indices:
            base = rng.getrandbits(64)
            assert streams.mix_seed(base, index) == reference(base, index), index


class TestTableFamily:
    def test_true_mean_is_the_table(self):
        probs = np.array([[0.1, 0.9], [0.4, 0.2]])
        model = RewardModel.table(probs, rng_seed=0)
        space = ActionSpace.integer_levels(2)
        for k in (1, 2):
            for a in (0, 1):
                assert model.true_mean(ArmId(k, a), space) == probs[k - 1, a]
        assert np.array_equal(model.mean_matrix(space), probs)

    def test_true_mean_rejects_levels_outside_the_space(self):
        # a negative level must not wrap around to the last column
        model = RewardModel.table([[0.1, 0.9]], rng_seed=0)
        space = ActionSpace.integer_levels(2)
        for level in (-1, 2):
            with pytest.raises(ValueError):
                model.true_mean(ArmId(1, level), space)

    def test_degenerate_probabilities(self):
        model = RewardModel.table([[0.0, 1.0]], rng_seed=5)
        space = ActionSpace.integer_levels(2)
        for t in range(1, 50):
            assert model.sample_reward(ArmId(1, 0), space, t) == 0.0
            assert model.sample_reward(ArmId(1, 1), space, t) == 1.0

    def test_samples_are_bernoulli(self):
        model = RewardModel.table([[0.3, 0.7]], rng_seed=2)
        space = ActionSpace.integer_levels(2)
        draws = [model.sample_reward(ArmId(1, 1), space, t) for t in range(1, 400)]
        assert set(draws) <= {0.0, 1.0}
        assert abs(np.mean(draws) - 0.7) < 0.1

    def test_rejects_grid_spaces(self):
        model = RewardModel.table([[0.3, 0.7]], rng_seed=2)
        with pytest.raises(ValueError):
            model.sample_reward(ArmId(1, 0), ActionSpace.uniform_grid(2, 0.5), 1)

    def test_rejects_level_mismatch(self):
        model = RewardModel.table([[0.3, 0.7]], rng_seed=2)
        with pytest.raises(ValueError):
            model.mean_matrix(ActionSpace.integer_levels(3))

    def test_no_lipschitz_constant(self):
        model = RewardModel.table([[0.3, 0.7]], rng_seed=2)
        with pytest.raises(ValueError):
            model.lipschitz_constant()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RewardModel.table([[0.3, 1.7]], rng_seed=0)
        with pytest.raises(ValueError):
            RewardModel.table([0.3, 0.7], rng_seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_probabilities(self, bad):
        with pytest.raises(ValueError, match="probs"):
            RewardModel.table([[0.3, bad]], rng_seed=0)


# np.exp and math.exp disagree in the last bit on some of this grid's levels
# (arm (2, 1) at t = 1 among them), so it tells a pointwise path that does not
# share the vector code apart from one that does.
CONCAVE_EXP_GRID_MODEL = RewardModel.concave_exp([1.0, 0.9], [0.7, 2.0], rng_seed=1)
CONCAVE_EXP_GRID = ActionSpace.uniform_grid(50, 0.02)


class TestHingeFamily:
    def test_closed_form_means(self):
        # theta=1, Q=1: mean(v) = v^2/2 below the spread, v - 1/2 above
        model = RewardModel.hinge([1.0], budget=1.0, rng_seed=0)
        space = ActionSpace.uniform_grid(3, 0.5)
        assert model.true_mean(ArmId(1, 0), space) == 0.0
        assert model.true_mean(ArmId(1, 1), space) == 0.125
        assert model.true_mean(ArmId(1, 2), space) == 0.5

    def test_closed_form_past_the_spread(self):
        # theta=0.5, Q=2: spread 1; v=1 sits at the boundary, v=2 above it
        model = RewardModel.hinge([0.5], budget=2.0, rng_seed=0)
        space = ActionSpace.integer_levels(3)
        assert model.true_mean(ArmId(1, 1), space) == pytest.approx(0.25)
        assert model.true_mean(ArmId(1, 2), space) == pytest.approx(0.75)

    def test_mean_matrix_matches_pointwise(self):
        # also on the concave_exp grid where math.exp and np.exp part ways
        for model, space in (
            (
                RewardModel.hinge([0.3, 0.9], budget=2.0, rng_seed=0),
                ActionSpace.uniform_grid(5, 0.5),
            ),
            (CONCAVE_EXP_GRID_MODEL, CONCAVE_EXP_GRID),
        ):
            mat = model.mean_matrix(space)
            for k in (1, 2):
                for a in range(space.n):
                    assert mat[k - 1, a] == model.true_mean(ArmId(k, a), space)

    def test_zero_budget_level_earns_nothing(self):
        model = RewardModel.hinge([0.7, 0.2], budget=3.0, rng_seed=9)
        space = ActionSpace.integer_levels(4)
        for t in range(1, 30):
            assert model.sample_reward(ArmId(2, 0), space, t) == 0.0

    def test_sample_reconstruction(self):
        # the draw is exactly max(v - theta*Q*u, 0)/Q for the addressed uniform
        model = RewardModel.hinge([0.6], budget=2.0, rng_seed=11)
        space = ActionSpace.integer_levels(3)
        for t in (1, 2, 17):
            u = streams.uniform_at(11, 1, t)
            want = max(2.0 - 0.6 * 2.0 * u, 0.0) / 2.0
            assert model.sample_reward(ArmId(1, 2), space, t) == want

    def test_lipschitz_constant(self):
        assert RewardModel.hinge([0.5], budget=2.0, rng_seed=0).lipschitz_constant() == 0.5
        assert RewardModel.hinge([1.0], budget=1.0, rng_seed=0).lipschitz_constant() == 1.0

    def test_rejects_levels_past_budget(self):
        model = RewardModel.hinge([1.0], budget=1.0, rng_seed=0)
        with pytest.raises(ValueError):
            model.mean_matrix(ActionSpace.uniform_grid(3, 0.75))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RewardModel.hinge([0.0], budget=1.0, rng_seed=0)
        with pytest.raises(ValueError):
            RewardModel.hinge([1.5], budget=1.0, rng_seed=0)
        with pytest.raises(ValueError):
            RewardModel.hinge([0.5], budget=0.0, rng_seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="thetas"):
            RewardModel.hinge([0.5, bad], budget=1.0, rng_seed=0)
        with pytest.raises(ValueError, match="budget"):
            RewardModel.hinge([0.5], budget=bad, rng_seed=0)


class TestConcaveExpFamily:
    def test_closed_form_mean(self):
        model = RewardModel.concave_exp([1.0], [1.0], rng_seed=0)
        space = ActionSpace.uniform_grid(2, 1.0)
        assert model.true_mean(ArmId(1, 1), space) == pytest.approx(1 - math.exp(-1))
        assert model.true_mean(ArmId(1, 0), space) == 0.0

    def test_deterministic_when_p_is_one(self):
        model = RewardModel.concave_exp([1.0], [1.0], rng_seed=4)
        space = ActionSpace.uniform_grid(2, 1.0)
        want = 1 - math.exp(-1)
        for t in range(1, 40):
            assert model.sample_reward(ArmId(1, 1), space, t) == pytest.approx(want)

    def test_never_pays_when_p_is_zero(self):
        model = RewardModel.concave_exp([0.0], [1.0], rng_seed=4)
        space = ActionSpace.uniform_grid(2, 1.0)
        assert all(
            model.sample_reward(ArmId(1, 1), space, t) == 0.0 for t in range(1, 40)
        )

    def test_lipschitz_constant_is_max_inverse_theta(self):
        assert RewardModel.concave_exp(
            [0.5, 0.5], [1.0, 2.0], rng_seed=0
        ).lipschitz_constant() == 1.0
        assert RewardModel.concave_exp([0.5], [4.0], rng_seed=0).lipschitz_constant() == 0.25

    def test_scale_flattens_the_curve(self):
        space = ActionSpace.uniform_grid(5, 1.0)
        steep = RewardModel.concave_exp([1.0], [0.5], rng_seed=0).mean_matrix(space)
        flat = RewardModel.concave_exp([1.0], [4.0], rng_seed=0).mean_matrix(space)
        assert steep[0, 1] > flat[0, 1]
        assert np.all(np.diff(steep[0]) >= 0) and np.all(np.diff(flat[0]) >= 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RewardModel.concave_exp([1.2], [1.0], rng_seed=0)
        with pytest.raises(ValueError):
            RewardModel.concave_exp([0.5], [0.0], rng_seed=0)
        with pytest.raises(ValueError):
            RewardModel.concave_exp([0.5, 0.5], [1.0], rng_seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="thetas"):
            RewardModel.concave_exp([0.5], [bad], rng_seed=0)
        with pytest.raises(ValueError, match="success_probs"):
            RewardModel.concave_exp([bad], [1.0], rng_seed=0)


def arm_grid(model, space):
    for k in range(1, model.k_count + 1):
        for a in range(space.n):
            yield ArmId(k, a)


@pytest.mark.parametrize(
    "model,space",
    [
        (
            RewardModel.table([[0.2, 0.8, 0.5], [1.0, 0.0, 0.3]], rng_seed=1),
            ActionSpace.integer_levels(3),
        ),
        (
            RewardModel.hinge([0.4, 1.0], budget=2.0, rng_seed=1),
            ActionSpace.uniform_grid(4, 2.0 / 3.0),
        ),
        (
            RewardModel.concave_exp([0.9, 0.4], [0.7, 2.0], rng_seed=1),
            ActionSpace.integer_levels(3),
        ),
        (CONCAVE_EXP_GRID_MODEL, CONCAVE_EXP_GRID),
    ],
    ids=["table", "hinge", "concave_exp", "concave_exp_grid"],
)
class TestSharedContract:
    def test_rewards_and_means_in_unit_interval(self, model, space):
        for arm in arm_grid(model, space):
            mean = model.true_mean(arm, space)
            assert 0.0 <= mean <= 1.0
            for t in range(1, 60):
                assert 0.0 <= model.sample_reward(arm, space, t) <= 1.0

    def test_round_index_validation(self, model, space):
        with pytest.raises(ValueError):
            model.sample_reward(ArmId(1, 0), space, 0)
        with pytest.raises(ValueError):
            model.sample_reward(ArmId(3, 0), space, 1)

    def test_bulk_path_matches_pointwise(self, model, space):
        # the runner's vectorized transform must reproduce sample_reward on
        # every level; resource k plays level (shift + k) mod n, so each
        # shift mixes levels across resources and the shifts cover them all
        table = model.success_table(space)
        resources = range(model.k_count)
        for t in (1, 5, 33):
            u = np.array(
                [streams.uniform_at(model.rng_seed, k + 1, t) for k in resources]
            )
            for shift in range(space.n):
                levels = (np.arange(model.k_count) + shift) % space.n
                got = model.rewards_from_uniforms(table, levels, u)
                for k in resources:
                    want = model.sample_reward(ArmId(k + 1, levels[k]), space, t)
                    assert got[k] == want

    def test_same_seed_same_draws(self, model, space):
        a = [model.sample_reward(ArmId(1, space.n - 1), space, t) for t in range(1, 30)]
        b = [model.sample_reward(ArmId(1, space.n - 1), space, t) for t in range(1, 30)]
        assert a == b


def numpy_rewards(model, levels, values, u):
    """The per-family numpy reward formulas, evaluated on one round's (K,)
    arrays of levels, level values and uniforms."""
    if model.family == "table":
        picked = model.probs[np.arange(levels.shape[0]), levels]
        return (u < picked).astype(np.float64)
    if model.family == "hinge":
        requirement = model.thetas * model.budget * u
        return np.maximum(values - requirement, 0.0) / model.budget
    met = u < model.success_probs
    return np.where(met, 1.0 - np.exp(-values / model.thetas), 0.0)


def numpy_means(model, space):
    """The per-family closed-form mean formulas over the level space."""
    if model.family == "table":
        return np.array(model.probs)
    values = space.level_values[None, :]
    if model.family == "hinge":
        spread = (model.thetas * model.budget)[:, None]
        below = values * values / (2.0 * spread)
        above = values - spread / 2.0
        return np.where(values <= spread, below, above) / model.budget
    return model.success_probs[:, None] * (1.0 - np.exp(-values / model.thetas[:, None]))


def workload_instances():
    # The 3x4 acceptance table, the 6x6 hinge of the greedy-coin benchmark
    # workload, and concave_exp on the grids planned at T = 10^3 .. 10^7.
    probs = (
        (0.014067035665647709, 0.2577672456246177, 0.47156538101528966, 0.0914196711073687),
        (0.9791345000654033, 0.25608390326933783, 0.9355927732570025, 0.190052634671396),
        (0.03609107425258373, 0.05584159755756546, 0.781876100713399, 0.45294745661602376),
    )
    yield "table", RewardModel.table(probs, rng_seed=7), ActionSpace.integer_levels(4)
    thetas = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
    yield "hinge", RewardModel.hinge(thetas, 10.0, rng_seed=7), ActionSpace.integer_levels(6)
    model = RewardModel.concave_exp((0.9, 0.7), (0.8, 0.5), rng_seed=7)
    for horizon in (10**3, 10**4, 10**5, 10**6, 10**7):
        plan = plan_discretization(1.0, 1.0, model.lipschitz_constant(), 2, horizon)
        yield f"concave_exp-{plan.levels}", model, plan.grid


class TestSuccessTable:
    def test_planned_grid_sizes(self):
        sizes = [space.n for _, _, space in workload_instances()]
        assert sizes == [4, 6, 12, 22, 43, 85, 172]

    @pytest.mark.parametrize(
        "model,space",
        [case[1:] for case in workload_instances()],
        ids=[case[0] for case in workload_instances()],
    )
    def test_equals_numpy_formulas(self, model, space):
        # every (level, u) pair: resource k plays level (shift + k) mod n,
        # against block uniforms and the success thresholds themselves
        table = model.success_table(space)
        values = space.level_values
        resources = model.k_count
        edges = [0.0, 0.5, np.nextafter(1.0, 0.0)]
        if model.family == "table":
            edges += model.probs.ravel().tolist()
        elif model.family == "concave_exp":
            edges += model.success_probs.tolist()
        uniforms = [np.full(resources, e) for e in edges]
        uniforms += list(model.uniform_block(1, 1, 64 * resources).reshape(64, resources))
        for shift in range(space.n):
            levels = (np.arange(resources) + shift) % space.n
            for u in uniforms:
                got = model.rewards_from_uniforms(table, levels, u)
                want = numpy_rewards(model, levels, values[levels], u).tolist()
                assert got == want
        assert np.array_equal(model.mean_matrix(space), numpy_means(model, space))


class TestMonteCarloMeans:
    @pytest.mark.parametrize(
        "model,space",
        [
            (
                RewardModel.table([[0.25, 0.75]], rng_seed=3),
                ActionSpace.integer_levels(2),
            ),
            (
                RewardModel.hinge([0.8], budget=1.0, rng_seed=3),
                ActionSpace.uniform_grid(3, 0.5),
            ),
            (
                RewardModel.concave_exp([0.6], [1.5], rng_seed=3),
                ActionSpace.uniform_grid(3, 0.5),
            ),
        ],
        ids=["table", "hinge", "concave_exp"],
    )
    def test_sample_mean_approaches_true_mean(self, model, space):
        # a light version of the full Monte Carlo acceptance check
        n_draws = 2000
        for a in range(space.n):
            arm = ArmId(1, a)
            draws = np.array(
                [model.sample_reward(arm, space, t) for t in range(1, n_draws + 1)]
            )
            true = model.true_mean(arm, space)
            se = draws.std(ddof=1) / np.sqrt(n_draws)
            assert abs(draws.mean() - true) <= 4 * se + 1e-12
