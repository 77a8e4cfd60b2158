"""Outside-in tracing of banditalloc for the benchmark's traced run.

Nothing here edits the package. ``instrument`` swaps module and class
attributes of an imported ``banditalloc`` for wrappers that time each call
into a layer's public functions, runs the caller's block, then puts every
original back. Each call becomes a span (name, start, end, parent); spans stay
in memory until ``layer_metrics`` folds them into the per-layer numbers.

Which attribute is swapped follows how the package looks names up: the
experiment harness imports ``run``, ``plan_discretization``, the ``analysis``
functions, ``build_solver`` and ``CoverageObserver`` by name, so those are
swapped in ``banditalloc.experiment``; ``streams`` functions are read through
the module at each call, and ``RewardModel`` methods through the class.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc

import numpy as np


class Tracer:
    """In-memory span recorder. Spans nest by call order on one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack = [-1]
        # Values recorded at the boundaries alongside the spans.
        self.rounds = 0
        self.plan_levels: list[int] = []
        self.reference_peaks: list[int] = []
        self.arm_count = 0
        self.capacity_units = 0
        self.coin_wrapped = False

    def wrap(self, name: str, fn):
        """Return fn timed as a span called ``name``."""
        names, starts, ends, parents, stack = (
            self.names,
            self.starts,
            self.ends,
            self.parents,
            self._stack,
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the package's layer calls through ``tracer`` inside the block."""
    saved: list[tuple[object, str, object]] = []

    def swap(owner, attr: str, value) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        _install(tracer, swap)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _install(tracer: Tracer, swap) -> None:
    import banditalloc.analysis as analysis
    import banditalloc.cli as cli
    import banditalloc.environment as environment
    import banditalloc.experiment as experiment
    import banditalloc.oracle as oracle
    import banditalloc.streams as streams

    # experiment: config parsing and the whole harness run.
    config_cls = experiment.ExperimentConfig
    swap(
        config_cls,
        "from_file",
        classmethod(
            tracer.wrap("experiment.parse", config_cls.__dict__["from_file"].__func__)
        ),
    )
    swap(cli, "run_experiment", tracer.wrap("experiment.run", cli.run_experiment))

    # learner: one span per run(), plus the rounds it was asked for.
    timed_run = tracer.wrap("learner.run", experiment.run)

    def run(*args, **kwargs):
        tracer.rounds += int(args[3] if len(args) > 3 else kwargs["horizon"])
        return timed_run(*args, **kwargs)

    swap(experiment, "run", run)

    # oracle: time the solver build_solver hands out; when it is the coin
    # wrapper, time its base solver too, so coin successes are the base calls.
    build_solver = experiment.build_solver

    def traced_build_solver(spec, cfg, seed=0):
        solver = build_solver(spec, cfg, seed=seed)
        tracer.arm_count = max(tracer.arm_count, cfg.arm_count)
        tracer.capacity_units = max(tracer.capacity_units, cfg.capacity_units)
        solver.solve_levels = tracer.wrap("oracle.solve", solver.solve_levels)
        if isinstance(solver, oracle.CoinFlipOracle):
            tracer.coin_wrapped = True
            solver.base.solve_levels = tracer.wrap(
                "oracle.base_solve", solver.base.solve_levels
            )
        return solver

    swap(experiment, "build_solver", traced_build_solver)

    # environment: the per-round reward transform and the mean matrix.
    model_cls = environment.RewardModel
    for attr, name in (
        ("rewards_from_uniforms", "environment.rewards"),
        ("mean_matrix", "environment.mean_matrix"),
    ):
        swap(model_cls, attr, tracer.wrap(name, model_cls.__dict__[attr]))

    # streams: read through the module at every call site.
    for attr in ("uniform_at", "uniform_block"):
        swap(streams, attr, tracer.wrap(f"streams.{attr}", getattr(streams, attr)))

    # analysis: the coverage observer, gaps, optimum and continuous reference.
    observer_cls = experiment.CoverageObserver
    swap(
        experiment,
        "CoverageObserver",
        type(
            observer_cls.__name__,
            (observer_cls,),
            {"__call__": tracer.wrap("analysis.coverage", observer_cls.__call__)},
        ),
    )
    timed_gaps = tracer.wrap("analysis.gaps", experiment.compute_gaps)
    swap(experiment, "compute_gaps", timed_gaps)
    timed_opt = tracer.wrap("analysis.opt", analysis.compute_opt)
    swap(experiment, "compute_opt", timed_opt)
    swap(analysis, "compute_opt", timed_opt)
    timed_reference = tracer.wrap(
        "analysis.reference", experiment.compute_continuous_reference
    )

    def reference(*args, **kwargs):
        tracemalloc.start()
        try:
            return timed_reference(*args, **kwargs)
        finally:
            tracer.reference_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    swap(experiment, "compute_continuous_reference", reference)

    # continuous: grid planning, plus the size of each planned grid.
    timed_plan = tracer.wrap("continuous.plan", experiment.plan_discretization)

    def plan(*args, **kwargs):
        result = timed_plan(*args, **kwargs)
        tracer.plan_levels.append(result.levels)
        return result

    swap(experiment, "plan_discretization", plan)


# Per-layer metrics: name -> unit. The order is the order they are printed.
LAYER_UNITS = {
    "cli.main_s": "s",
    "oracle.solve_us_p50": "us",
    "oracle.solve_us_p99": "us",
    "oracle.solve_calls": "count",
    "oracle.solve_share": "frac",
    "oracle.coin_failures": "count",
    "oracle.coin_success_ratio": "frac",
    "learner.run_s": "s",
    "learner.rounds": "count",
    "learner.round_us": "us",
    "learner.self_us_per_round": "us",
    "environment.rewards_us_p50": "us",
    "environment.rewards_us_p99": "us",
    "environment.rewards_calls": "count",
    "environment.mean_matrix_us": "us",
    "streams.uniform_block_us": "us",
    "streams.uniform_block_calls": "count",
    "streams.uniform_at_us": "us",
    "streams.uniform_at_calls": "count",
    "analysis.reference_s": "s",
    "analysis.reference_peak_mb": "MB",
    "analysis.reference_calls": "count",
    "analysis.coverage_us_p50": "us",
    "analysis.coverage_calls": "count",
    "analysis.gaps_ms": "ms",
    "analysis.gaps_calls": "count",
    "analysis.opt_us": "us",
    "continuous.plan_us": "us",
    "continuous.plan_calls": "count",
    "continuous.levels_max": "count",
    "experiment.parse_ms": "ms",
    "experiment.self_s": "s",
    "experiment.bytes_written": "bytes",
    "core.arm_count": "count",
    "core.capacity_units": "count",
    "trace.overhead_frac": "frac",
}

# Counters that must read the same on every traced run of one workload and seed.
EXACT_COUNTERS = (
    "oracle.solve_calls",
    "oracle.coin_failures",
    "streams.uniform_at_calls",
    "analysis.reference_calls",
    "continuous.plan_calls",
    "experiment.bytes_written",
)


class SpanTable:
    """Per-name durations and self times of one traced run, in nanoseconds."""

    def __init__(self, tracer: Tracer) -> None:
        names = np.asarray(tracer.names, dtype=object)
        dur = np.asarray(tracer.ends, dtype=np.int64) - np.asarray(
            tracer.starts, dtype=np.int64
        )
        parents = np.asarray(tracer.parents, dtype=np.int64)
        child = np.zeros(dur.shape[0], dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self._dur = {}
        self._self = {}
        for name in dict.fromkeys(tracer.names):
            mask = names == name
            self._dur[name] = dur[mask]
            self._self[name] = dur[mask] - child[mask]

    def names(self) -> list[str]:
        return list(self._dur)

    def calls(self, name: str) -> int:
        return int(self._dur.get(name, np.empty(0)).size)

    def total_s(self, name: str) -> float:
        return float(self._dur.get(name, np.zeros(1)).sum()) / 1e9

    def self_s(self, name: str) -> float:
        return float(self._self.get(name, np.zeros(1)).sum()) / 1e9

    def pct_s(self, name: str, q: float) -> float:
        d = self._dur.get(name)
        return float(np.percentile(d, q)) / 1e9 if d is not None and d.size else 0.0


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Fold one traced run's spans into every per-layer metric except
    ``trace.overhead_frac``, which needs the untraced runs too."""
    t = SpanTable(tracer)
    run_s = t.total_s("learner.run")
    rounds = tracer.rounds
    solve_calls = t.calls("oracle.solve")
    successes = t.calls("oracle.base_solve") if tracer.coin_wrapped else solve_calls
    return {
        "cli.main_s": t.total_s("cli.main"),
        "oracle.solve_us_p50": t.pct_s("oracle.solve", 50) * 1e6,
        "oracle.solve_us_p99": t.pct_s("oracle.solve", 99) * 1e6,
        "oracle.solve_calls": solve_calls,
        "oracle.solve_share": t.total_s("oracle.solve") / run_s if run_s else 0.0,
        "oracle.coin_failures": solve_calls - successes,
        "oracle.coin_success_ratio": successes / solve_calls if solve_calls else 0.0,
        "learner.run_s": run_s,
        "learner.rounds": rounds,
        "learner.round_us": run_s / rounds * 1e6 if rounds else 0.0,
        "learner.self_us_per_round": t.self_s("learner.run") / rounds * 1e6
        if rounds
        else 0.0,
        "environment.rewards_us_p50": t.pct_s("environment.rewards", 50) * 1e6,
        "environment.rewards_us_p99": t.pct_s("environment.rewards", 99) * 1e6,
        "environment.rewards_calls": t.calls("environment.rewards"),
        "environment.mean_matrix_us": t.pct_s("environment.mean_matrix", 50) * 1e6,
        "streams.uniform_block_us": t.pct_s("streams.uniform_block", 50) * 1e6,
        "streams.uniform_block_calls": t.calls("streams.uniform_block"),
        "streams.uniform_at_us": t.pct_s("streams.uniform_at", 50) * 1e6,
        "streams.uniform_at_calls": t.calls("streams.uniform_at"),
        "analysis.reference_s": t.pct_s("analysis.reference", 50),
        "analysis.reference_peak_mb": max(tracer.reference_peaks, default=0) / 2**20,
        "analysis.reference_calls": t.calls("analysis.reference"),
        "analysis.coverage_us_p50": t.pct_s("analysis.coverage", 50) * 1e6,
        "analysis.coverage_calls": t.calls("analysis.coverage"),
        "analysis.gaps_ms": t.pct_s("analysis.gaps", 50) * 1e3,
        "analysis.gaps_calls": t.calls("analysis.gaps"),
        "analysis.opt_us": t.pct_s("analysis.opt", 50) * 1e6,
        "continuous.plan_us": t.pct_s("continuous.plan", 50) * 1e6,
        "continuous.plan_calls": t.calls("continuous.plan"),
        "continuous.levels_max": max(tracer.plan_levels, default=0),
        "experiment.parse_ms": t.pct_s("experiment.parse", 50) * 1e3,
        "experiment.self_s": t.self_s("experiment.run"),
        "experiment.bytes_written": bytes_written,
        "core.arm_count": tracer.arm_count,
        "core.capacity_units": tracer.capacity_units,
    }


def span_report(tracer: Tracer) -> list[str]:
    """Human-readable per-span table: calls, total, self time and p50."""
    t = SpanTable(tracer)
    lines = [f"{'span':<26}{'calls':>9}{'total_s':>11}{'self_s':>11}{'p50_us':>11}"]
    for name in t.names():
        lines.append(
            f"{name:<26}{t.calls(name):>9}{t.total_s(name):>11.4f}"
            f"{t.self_s(name):>11.4f}{t.pct_s(name, 50) * 1e6:>11.2f}"
        )
    return lines
