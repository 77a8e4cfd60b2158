"""
Continuous budgets via planned discretization
=============================================

When budgets live on a continuum there is no finite set of arms to learn.
The planner lays a uniform grid over [0, Q] whose pitch shrinks with the
horizon, trading what rounding gives up against what exploring more levels
costs, and the discrete learner runs on top, unchanged. The grid is not
coarse enough for the learner to resolve every level: near the optimum,
neighbouring levels differ in mean by about 1e-3, which the confidence
radii cannot separate within 10^5 rounds.

Total regret then splits into two parts: what the learner lost against the
best GRID allocation (learning), and what the grid itself gives up against
the continuum (discretization). The pitch balances the two.
"""

import numpy as np

from banditalloc import (
    OracleSpec,
    ProblemConfig,
    RewardModel,
    build_solver,
    compute_continuous_reference,
    compute_opt,
    plan_discretization,
    run,
    split_discretization_regret,
)
from banditalloc.streams import mix_seed

PROBS = (0.9, 0.7)
THETAS = (0.8, 0.5)
BUDGET = 1.0

# A two-sided bracket of the true continuous optimum, from a reference grid
# far finer than anything the learner will see. All regret below is charged
# against the bracket's upper end — the conservative choice.
truth = RewardModel.concave_exp(PROBS, THETAS, rng_seed=0)
reference = compute_continuous_reference(truth, BUDGET, refinement=4096)
print(f"continuous optimum in [{reference.lo:.6f}, {reference.hi:.6f}]"
      f" (width {reference.hi - reference.lo:.2e})")

# ---------------------------------------------------------------------------
# The planned grid refines with the horizon: pitch ~ (ln T / T)^(1/3).
print("\nhorizon   levels   pitch")
for horizon in (1_000, 10_000, 100_000):
    plan = plan_discretization(
        1.0, BUDGET, truth.lipschitz_constant(), truth.k_count, horizon
    )
    print(f"{horizon:>7}   {plan.levels:>6}   {plan.pitch:.4f}")

# ---------------------------------------------------------------------------
# Run at two horizons and split the regret. Each run is the one
# run_discretized makes (plan the grid, build the solver, run the learner),
# written out so that a sink can keep the per-round expected rewards.
def expected_rewards(model, cfg, horizon):
    """Run the learner; return the (T,) true expected reward of each round's
    allocation, which its sink is shown one chunk of rounds at a time."""
    chunks = []

    def keep(start, levels, rewards, expected):
        chunks.append(expected.copy())

    run(model, build_solver(OracleSpec(), cfg), cfg, horizon, sink=keep)
    return np.concatenate(chunks)


for horizon in (2_000, 20_000):
    model = RewardModel.concave_exp(PROBS, THETAS, rng_seed=mix_seed(5, 0))
    plan = plan_discretization(
        1.0, BUDGET, model.lipschitz_constant(), model.k_count, horizon
    )
    cfg = ProblemConfig(resources=2, budget=BUDGET, space=plan.grid)
    expected = expected_rewards(model, cfg, horizon)
    grid_opt = compute_opt(model, cfg)
    report = split_discretization_regret(expected, grid_opt, reference)
    print(f"\nT={horizon}: grid of {plan.levels} levels, pitch {plan.pitch:.4f}")
    print(f"  regret {report.final:9.2f}  = learning {report.term_learning:.2f}"
          f" + discretization {report.term_discretization:.2f}")
    law = horizon ** (2 / 3) * np.log(horizon) ** (1 / 3)
    print(f"  normalized by T^(2/3) (ln T)^(1/3): {report.final / law:.3f}")

# The normalized figure is the quantity the acceptance suite tracks across
# decade horizons: under the target law it should flatten as T grows. At
# these desk-scale horizons it still rises about 30% per decade, almost all
# of it in the learning part, while the learner cannot yet tell the
# near-optimal levels apart. From 10^5 rounds on it flattens (+19%, then +7%
# per decade up to 10^7), which is where the acceptance check measures it.
