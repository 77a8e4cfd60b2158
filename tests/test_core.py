import itertools

import pytest

from banditalloc import ActionSpace, ProblemConfig, iter_feasible_levels


def make_cfg(resources=3, budget=5.0, n=4):
    return ProblemConfig(
        resources=resources, budget=budget, space=ActionSpace.integer_levels(n)
    )


class TestActionSpace:
    def test_integer_levels_values(self):
        space = ActionSpace.integer_levels(4)
        assert space.level_values.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert space.value(0) == 0.0
        assert space.value(3) == 3.0
        assert space.max_value == 3.0
        assert not space.is_grid

    def test_uniform_grid_values(self):
        space = ActionSpace.uniform_grid(3, 0.5)
        assert space.level_values.tolist() == [0.0, 0.5, 1.0]
        assert space.value(1) == 0.5
        assert space.is_grid

    def test_level_zero_is_free(self):
        for space in (ActionSpace.integer_levels(5), ActionSpace.uniform_grid(7, 0.3)):
            assert space.value(0) == 0.0

    def test_value_range_error(self):
        space = ActionSpace.integer_levels(3)
        with pytest.raises(ValueError):
            space.value(3)
        with pytest.raises(ValueError):
            space.value(-1)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            ActionSpace.integer_levels(0)
        with pytest.raises(ValueError):
            ActionSpace.uniform_grid(3, 0.0)
        with pytest.raises(ValueError):
            ActionSpace.uniform_grid(3, -0.5)
        with pytest.raises(ValueError):
            ActionSpace(n=3, pitch=0.5, is_grid=False)


class TestProblemConfig:
    def test_native_levels_must_fit_budget(self):
        # n - 1 levels of unit cost must be purchasable: n <= budget + 1
        with pytest.raises(ValueError):
            make_cfg(resources=2, budget=2.5, n=4)
        make_cfg(resources=2, budget=3.0, n=4)

    def test_capacity_units_native(self):
        assert make_cfg(budget=5.0).capacity_units == 5
        assert make_cfg(budget=5.9, n=4).capacity_units == 5
        assert make_cfg(budget=0.0, n=1).capacity_units == 0

    def test_capacity_units_grid_absorbs_float_error(self):
        # 33 * (2/33) can land a hair above 2.0; the epsilon keeps all 33
        # units purchasable.
        pitch = 2.0 / 33.0
        cfg = ProblemConfig(
            resources=4, budget=2.0, space=ActionSpace.uniform_grid(34, pitch)
        )
        assert cfg.capacity_units == 33

    def test_arm_count(self):
        assert make_cfg(resources=3, n=4).arm_count == 12

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            make_cfg(resources=0)
        with pytest.raises(ValueError):
            make_cfg(budget=-1.0, n=1)
        with pytest.raises(ValueError):
            ProblemConfig(
                resources=1, budget=float("nan"), space=ActionSpace.integer_levels(1)
            )


class TestFeasibility:
    """A level vector is feasible exactly when the enumeration yields it."""

    def test_native_exact_comparison(self):
        feasible = set(iter_feasible_levels(make_cfg(resources=2, budget=2.0, n=3)))
        assert (1, 1) in feasible
        assert (0, 2) in feasible
        assert (2, 1) not in feasible

    def test_all_zeros_always_feasible(self):
        for cfg in (
            make_cfg(resources=4, budget=0.0, n=1),
            ProblemConfig(
                resources=3, budget=0.5, space=ActionSpace.uniform_grid(9, 0.7)
            ),
        ):
            assert (0,) * cfg.resources in set(iter_feasible_levels(cfg))

    def test_grid_tolerance(self):
        # 0.3 / 0.1 = 2.9999999999999996 in floats; the 1e-9 tolerance keeps
        # the exact-budget allocation feasible.
        cfg = ProblemConfig(
            resources=2, budget=0.3, space=ActionSpace.uniform_grid(4, 0.1)
        )
        feasible = set(iter_feasible_levels(cfg))
        assert (1, 2) in feasible
        assert (2, 2) not in feasible

    def test_shape_and_range_errors(self):
        # wrong-length vectors and levels outside the space are never yielded
        feasible = set(iter_feasible_levels(make_cfg(resources=2, budget=2.0, n=3)))
        assert (1,) not in feasible
        assert (1, 3) not in feasible
        assert all(len(lv) == 2 and max(lv) < 3 for lv in feasible)


def count_allocations(resources: int, n: int, cap: int) -> int:
    """Independent count via generating-function coefficients."""
    coeff = [1] + [0] * cap
    for _ in range(resources):
        nxt = [0] * (cap + 1)
        for used in range(cap + 1):
            if coeff[used]:
                for a in range(min(n - 1, cap - used) + 1):
                    nxt[used + a] += coeff[used]
        coeff = nxt
    return sum(coeff)


class TestEnumeration:
    def test_small_example_lexicographic(self):
        cfg = make_cfg(resources=2, budget=2.0, n=3)
        assert list(iter_feasible_levels(cfg)) == [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (2, 0),
        ]

    @pytest.mark.parametrize(
        "resources,n,budget",
        [(1, 5, 4.0), (2, 4, 3.0), (3, 3, 2.0), (4, 5, 8.0), (4, 2, 1.0)],
    )
    def test_count_matches_independent_counter(self, resources, n, budget):
        cfg = make_cfg(resources=resources, budget=budget, n=n)
        allocs = list(iter_feasible_levels(cfg))
        assert len(allocs) == count_allocations(resources, n, cfg.capacity_units)
        assert len(set(allocs)) == len(allocs)
        for lv in allocs:
            assert len(lv) == resources and 0 <= min(lv) and max(lv) < n
            assert sum(lv) <= cfg.capacity_units
        # the same rows in the same (lexicographic) order as filtering the
        # full product
        assert allocs == [
            lv
            for lv in itertools.product(range(n), repeat=resources)
            if sum(lv) <= cfg.capacity_units
        ]

    def test_grid_count_uses_units(self):
        cfg = ProblemConfig(
            resources=3, budget=1.0, space=ActionSpace.uniform_grid(4, 0.4)
        )
        # capacity floor(1.0 / 0.4) = 2 units
        allocs = list(iter_feasible_levels(cfg))
        assert len(allocs) == count_allocations(3, 4, 2)
