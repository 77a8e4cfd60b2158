"""JSON-configured experiment harness with deterministic file outputs.

A config names a mode (``dra`` for native discrete budgets, ``cra`` for
discretized continuous budgets, ``oracle-check`` for solver validation,
``bounds`` for bound tables), an instance, a reward family, an oracle and
the run shape (horizons, replications, seed). Runs write plain CSV files
whose bytes depend only on the config's science fields and seed: replication
r always draws from the stream mix_seed(seed, r), aggregation always folds
replications in index order, and no timestamps or environment details leak
into the output, so reruns and different --jobs settings produce identical
files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import streams
from .analysis import (
    BoundParams,
    CoverageObserver,
    EnumerationInfeasibleError,
    GapReport,
    compute_continuous_reference,
    compute_gaps,
    compute_opt,
    dependent_regret_bound,
    independent_regret_bound,
)
from .continuous import DEFAULT_MAX_LEVELS, plan_discretization
from .core import ActionSpace, ProblemConfig, iter_feasible_levels
from .environment import RewardModel
from .learner import RunTrace, run
from .oracle import ExactDpSolver, GreedySolver, OracleSpec, allocation_value, build_solver

MODES = ("dra", "cra", "oracle-check", "bounds")

AGGREGATE_COLUMNS = (
    "horizon",
    "mean_regret",
    "std_regret",
    "theorem1_dep_bound",
    "theorem1_indep_bound",
    "theorem2_normalized",
    "epsilon",
    "N",
    "lemma1_violations",
)

BOUNDS_COLUMNS = (
    "horizon",
    "theorem1_dep_bound",
    "theorem1_indep_bound",
    "delta_min",
    "delta_max",
    "opt",
)

ORACLE_CHECK_COLUMNS = (
    "instance",
    "resources",
    "levels",
    "budget",
    "dp_value",
    "enum_value",
    "exact_match",
    "greedy_value",
    "greedy_ratio",
)


class ConfigurationError(ValueError):
    """A config file or dict failed validation; the message names the field."""


@dataclass(frozen=True)
class ProblemParams:
    """Instance shape: resources sharing a budget, and (for native discrete
    modes) the number of integer levels."""

    resources: int
    budget: float
    levels: int | None = None


@dataclass(frozen=True)
class RewardParams:
    """Reward family plus its family-specific parameters."""

    family: str
    probs: tuple[tuple[float, ...], ...] | None = None
    thetas: tuple[float, ...] | None = None
    success_probs: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; see ``from_dict`` for the JSON schema."""

    mode: str
    seed: int
    problem: ProblemParams
    rewards: RewardParams
    oracle: OracleSpec = OracleSpec()
    horizons: tuple[int, ...] = ()
    replications: int = 1
    out: str = "results"
    jobs: int = 1
    write_traces: bool = False
    smoothness: float = 1.0
    lipschitz: float | None = None
    max_levels: int = DEFAULT_MAX_LEVELS
    reference_refinement: int = 4096

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return _parse_config(raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: top level must be a JSON object")
        return _parse_config(raw)

    def to_dict(self) -> dict:
        """Lossless dict form; from_dict(to_dict()) == self."""
        out: dict = {
            "mode": self.mode,
            "seed": self.seed,
            "problem": {
                "resources": self.problem.resources,
                "budget": self.problem.budget,
            },
            "rewards": {"family": self.rewards.family},
            "oracle": {
                "kind": self.oracle.kind,
                "alpha": self.oracle.alpha,
                "beta": self.oracle.beta,
            },
            "horizons": list(self.horizons),
            "replications": self.replications,
            "out": self.out,
            "jobs": self.jobs,
            "write_traces": self.write_traces,
            "smoothness": self.smoothness,
            "lipschitz": self.lipschitz,
            "max_levels": self.max_levels,
            "reference_refinement": self.reference_refinement,
        }
        if self.problem.levels is not None:
            out["problem"]["levels"] = self.problem.levels
        if self.rewards.probs is not None:
            out["rewards"]["probs"] = [list(row) for row in self.rewards.probs]
        if self.rewards.thetas is not None:
            out["rewards"]["thetas"] = list(self.rewards.thetas)
        if self.rewards.success_probs is not None:
            out["rewards"]["success_probs"] = list(self.rewards.success_probs)
        return out

    def config_hash(self) -> str:
        """sha256 over the science fields only.

        Execution knobs (out, jobs, write_traces) are excluded so the hash
        stamped into output files is stable across how the run was executed.
        """
        science = self.to_dict()
        for key in ("out", "jobs", "write_traces"):
            science.pop(key, None)
        canon = json.dumps(science, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _require(raw: dict, key: str, kind, path: str):
    if key not in raw:
        raise ConfigurationError(f"missing field {path}{key}")
    return _typed(raw[key], key, kind, path)


def _typed(value, key: str, kind, path: str):
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if kind is bool and isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    if kind is list and isinstance(value, list):
        return value
    raise ConfigurationError(
        f"field {path}{key} must be {kind.__name__}, got {type(value).__name__}"
    )


def _optional(raw: dict, key: str, kind, path: str, default):
    if key not in raw or raw[key] is None:
        return default
    return _typed(raw[key], key, kind, path)


def _check_unknown(raw: dict, known: Iterable[str], path: str) -> None:
    extra = set(raw) - set(known)
    if extra:
        raise ConfigurationError(
            f"unknown field{'s' if len(extra) > 1 else ''} "
            f"{', '.join(path + k for k in sorted(extra))}"
        )


@contextmanager
def _field_errors(prefix: str) -> Iterator[None]:
    """Report a domain constructor's ValueError as a ConfigurationError
    under the field it checked, e.g. "field problem." + "resources must be
    >= 1, got 0"."""
    try:
        yield
    except ValueError as exc:
        raise ConfigurationError(f"{prefix}{exc}") from exc


def _float_vector(value, key: str, path: str) -> tuple[float, ...]:
    value = _typed(value, key, list, path)
    out = []
    for i, item in enumerate(value):
        if not isinstance(item, (int, float)) or isinstance(item, bool):
            raise ConfigurationError(f"field {path}{key}[{i}] must be a number")
        out.append(float(item))
    if not out:
        raise ConfigurationError(f"field {path}{key} must not be empty")
    return tuple(out)


def _parse_config(raw: dict) -> ExperimentConfig:
    _check_unknown(
        raw,
        (
            "mode",
            "seed",
            "problem",
            "rewards",
            "oracle",
            "horizons",
            "replications",
            "out",
            "jobs",
            "write_traces",
            "smoothness",
            "lipschitz",
            "max_levels",
            "reference_refinement",
        ),
        "",
    )
    mode = _require(raw, "mode", str, "")
    if mode not in MODES:
        raise ConfigurationError(f"field mode must be one of {MODES}, got {mode!r}")
    seed = _require(raw, "seed", int, "")
    if seed < 0:
        raise ConfigurationError("field seed must be nonnegative")

    problem_raw = raw.get("problem")
    if not isinstance(problem_raw, dict):
        raise ConfigurationError("field problem must be an object")
    _check_unknown(problem_raw, ("resources", "budget", "levels"), "problem.")
    resources = _require(problem_raw, "resources", int, "problem.")
    budget = _require(problem_raw, "budget", float, "problem.")
    levels = _optional(problem_raw, "levels", int, "problem.", None)
    problem = ProblemParams(resources=resources, budget=budget, levels=levels)

    rewards_raw = raw.get("rewards")
    if not isinstance(rewards_raw, dict):
        raise ConfigurationError("field rewards must be an object")
    _check_unknown(
        rewards_raw, ("family", "probs", "thetas", "success_probs"), "rewards."
    )
    family = _require(rewards_raw, "family", str, "rewards.")
    if family not in ("table", "hinge", "concave_exp"):
        raise ConfigurationError(
            f"field rewards.family must be table, hinge or concave_exp, got {family!r}"
        )
    probs = None
    thetas = None
    success_probs = None
    if family == "table":
        rows = _require(rewards_raw, "probs", list, "rewards.")
        parsed_rows = []
        for i, row in enumerate(rows):
            parsed_rows.append(_float_vector(row, f"probs[{i}]", "rewards."))
        if not parsed_rows:
            raise ConfigurationError("field rewards.probs must not be empty")
        widths = {len(r) for r in parsed_rows}
        if len(widths) != 1:
            raise ConfigurationError("field rewards.probs rows must share one length")
        probs = tuple(parsed_rows)
    else:
        thetas = _float_vector(
            _require(rewards_raw, "thetas", list, "rewards."), "thetas", "rewards."
        )
        if family == "concave_exp":
            success_probs = _float_vector(
                _require(rewards_raw, "success_probs", list, "rewards."),
                "success_probs",
                "rewards.",
            )
    rewards = RewardParams(
        family=family, probs=probs, thetas=thetas, success_probs=success_probs
    )

    oracle_raw = raw.get("oracle", {})
    if not isinstance(oracle_raw, dict):
        raise ConfigurationError("field oracle must be an object")
    _check_unknown(oracle_raw, ("kind", "alpha", "beta"), "oracle.")
    alpha = _optional(oracle_raw, "alpha", float, "oracle.", 1.0)
    beta = _optional(oracle_raw, "beta", float, "oracle.", 1.0)
    kind = _optional(oracle_raw, "kind", str, "oracle.", "exact_dp")
    with _field_errors("field oracle: "):
        oracle = OracleSpec(alpha=alpha, beta=beta, kind=kind)

    horizons_raw = _optional(raw, "horizons", list, "", [])
    horizons = []
    for i, h in enumerate(horizons_raw):
        if not isinstance(h, int) or isinstance(h, bool) or h < 1:
            raise ConfigurationError(f"field horizons[{i}] must be a positive integer")
        horizons.append(h)
    if horizons != sorted(horizons) or len(set(horizons)) != len(horizons):
        raise ConfigurationError("field horizons must be strictly increasing")

    replications = _optional(raw, "replications", int, "", 1)
    if replications < 1:
        raise ConfigurationError("field replications must be >= 1")
    jobs = _optional(raw, "jobs", int, "", 1)
    if jobs < 1:
        raise ConfigurationError("field jobs must be >= 1")
    lipschitz = _optional(raw, "lipschitz", float, "", None)
    if lipschitz is not None and not (math.isfinite(lipschitz) and lipschitz > 0):
        raise ConfigurationError("field lipschitz must be positive")
    max_levels = _optional(raw, "max_levels", int, "", DEFAULT_MAX_LEVELS)
    if max_levels < 2:
        raise ConfigurationError("field max_levels must be >= 2")
    reference_refinement = _optional(raw, "reference_refinement", int, "", 4096)
    if reference_refinement < 2:
        raise ConfigurationError("field reference_refinement must be >= 2")

    config = ExperimentConfig(
        mode=mode,
        seed=seed,
        problem=problem,
        rewards=rewards,
        oracle=oracle,
        horizons=tuple(horizons),
        replications=replications,
        out=_optional(raw, "out", str, "", "results"),
        jobs=jobs,
        write_traces=_optional(raw, "write_traces", bool, "", False),
        smoothness=_optional(raw, "smoothness", float, "", 1.0),
        lipschitz=lipschitz,
        max_levels=max_levels,
        reference_refinement=reference_refinement,
    )
    _check_config(config)
    return config


def _check_config(config: ExperimentConfig) -> None:
    """Cross-field and mode rules here; range rules belong to the domain
    constructors, so build each domain object once and report its error
    under the field it checked."""
    mode = config.mode
    problem = config.problem
    family = config.rewards.family
    if mode in ("dra", "bounds"):
        if problem.levels is None:
            raise ConfigurationError(f"field problem.levels is required for mode {mode}")
        if problem.levels < 2:
            raise ConfigurationError("field problem.levels must be >= 2")
    if mode == "cra":
        if family == "table":
            raise ConfigurationError(
                "mode cra needs a reward family with a budget continuum "
                "(hinge or concave_exp)"
            )
        if not problem.budget > 0:
            raise ConfigurationError("field problem.budget must be positive for cra")
    if mode in ("dra", "cra") and not config.horizons:
        raise ConfigurationError(f"field horizons is required for mode {mode}")
    if mode == "cra" and config.horizons[0] < 2:
        raise ConfigurationError("field horizons must be >= 2 for mode cra so ln T > 0")

    with _field_errors("field problem."):
        cfg = _native_config(config)
    with _field_errors("field rewards."):
        model = build_model(config, 0)
    if family == "table":
        if len(config.rewards.probs) != problem.resources:
            raise ConfigurationError("field rewards.probs must have one row per resource")
    elif len(config.rewards.thetas) != problem.resources:
        raise ConfigurationError("field rewards.thetas must have one entry per resource")
    if mode in ("dra", "bounds"):
        with _field_errors("field rewards."):
            model.check_space(cfg.space)
    with _field_errors("field "):
        BoundParams(config.smoothness, config.oracle.alpha, config.oracle.beta)


def _native_config(config: ExperimentConfig) -> ProblemConfig:
    """The instance on the config's native integer levels (dra and bounds).
    Other modes get the one-level instance, whose only allocation is all
    zeros: cra plans its grid per horizon and oracle-check draws its own
    instances, but their resources and budget are checked through it."""
    levels = config.problem.levels if config.mode in ("dra", "bounds") else 1
    return ProblemConfig(
        resources=config.problem.resources,
        budget=config.problem.budget,
        space=ActionSpace.integer_levels(levels),
    )


def build_model(config: ExperimentConfig, rng_seed: int) -> RewardModel:
    """Instantiate the configured reward family with a given noise seed."""
    r = config.rewards
    if r.family == "table":
        return RewardModel.table(r.probs, rng_seed)
    if r.family == "hinge":
        return RewardModel.hinge(r.thetas, config.problem.budget, rng_seed)
    return RewardModel.concave_exp(r.success_probs, r.thetas, rng_seed)


# -- deterministic CSV plumbing ---------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header: Iterable[str], rows, meta: dict) -> None:
    """Write the file beside ``path`` under a temporary name and move it into
    place once complete, so a failed or interrupted write never leaves a
    truncated file under the real name."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            for key, value in meta.items():
                fh.write(f"# {key}={value}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(cell) for cell in row])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_trace_csv(
    path: Path, trace: RunTrace, meta: dict
) -> None:
    resources = trace.levels.shape[1]
    header = (
        ["round"]
        + [f"level_{k}" for k in range(1, resources + 1)]
        + [f"reward_{k}" for k in range(1, resources + 1)]
        + ["expected_total"]
    )
    rows = (
        [t + 1, *trace.levels[t], *trace.rewards[t], trace.expected[t]]
        for t in range(len(trace))
    )
    _write_csv(path, header, rows, meta)


# -- replication workers ------------------------------------------------------


def _bandit_task(payload: tuple) -> tuple[np.ndarray, int]:
    """Run one replication on an instance the parent built; returns
    (per-round expected rewards, coverage violation count). Top level so
    process pools can pickle it."""
    config, cfg, horizon, rep, out = payload
    rng_seed = streams.mix_seed(config.seed, rep)
    model = build_model(config, rng_seed)
    solver = build_solver(config.oracle, cfg, seed=rng_seed)
    observer = CoverageObserver(model.mean_matrix(cfg.space))
    trace = run(model, solver, cfg, horizon, observer=observer)
    if config.write_traces:
        meta = {
            "config_hash": config.config_hash(),
            "mode": config.mode,
            "horizon": horizon,
            "replication": rep,
            "rng_seed": rng_seed,
        }
        if cfg.space.is_grid:
            meta["epsilon"] = repr(cfg.space.pitch)
            meta["N"] = cfg.space.n
        name = f"trace_{config.mode}_T{horizon}_rep{rep}.csv"
        _write_trace_csv(Path(out) / "traces" / name, trace, meta)
    return trace.expected, observer.count


def _map_ordered(fn, payloads: list, jobs: int) -> Iterator:
    """Apply fn to payloads, preserving order; jobs > 1 fans out to processes."""
    if jobs <= 1:
        yield from map(fn, payloads)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(fn, payloads, chunksize=1)


# -- mode runners -------------------------------------------------------------


@dataclass
class AggregateRow:
    """One aggregate CSV row; None cells print blank."""

    horizon: int
    mean_regret: float
    std_regret: float
    theorem1_dep_bound: float | None
    theorem1_indep_bound: float | None
    theorem2_normalized: float | None
    epsilon: float | None
    levels: int
    lemma1_violations: float

    def cells(self) -> list:
        return [
            self.horizon,
            self.mean_regret,
            self.std_regret,
            self.theorem1_dep_bound,
            self.theorem1_indep_bound,
            self.theorem2_normalized,
            self.epsilon,
            self.levels,
            self.lemma1_violations,
        ]


@dataclass
class ExperimentSummary:
    """What a run produced: aggregate rows, per-replication finals and the
    files written."""

    mode: str
    rows: list = field(default_factory=list)
    rep_finals: dict = field(default_factory=dict)  # horizon -> list[float]
    files: list = field(default_factory=list)
    ok: bool = True
    lines: list = field(default_factory=list)  # human-readable outcome lines


def _std1(values: np.ndarray) -> float:
    return float(np.std(values, ddof=1)) if values.size > 1 else 0.0


def _instance_bounds(
    config: ExperimentConfig,
    cfg: ProblemConfig,
    horizon: int,
    gaps: GapReport | None,
) -> tuple[float | None, float | None]:
    """(dependent, independent) bounds, None where inapplicable."""
    if gaps is None:
        return None, None
    params = BoundParams(
        smoothness=config.smoothness,
        alpha=config.oracle.alpha,
        beta=config.oracle.beta,
    )
    dep: float | None
    try:
        dep = dependent_regret_bound(
            gaps, params, cfg.budget, cfg.resources, cfg.space.n, horizon
        )
    except ValueError:
        dep = None
    indep = independent_regret_bound(
        params, cfg.budget, cfg.resources, cfg.space.n, horizon, gaps.delta_max
    )
    return dep, indep


def _safe_gaps(
    model: RewardModel, cfg: ProblemConfig, alpha: float
) -> GapReport | None:
    try:
        return compute_gaps(model, cfg, alpha)
    except EnumerationInfeasibleError:
        return None


def _instances(config: ExperimentConfig, model: RewardModel) -> Iterator[tuple]:
    """(horizon, instance, gaps, benchmark, grid pitch) for each horizon,
    with every instance built once. dra plays the native levels (pitch None)
    against alpha * beta * opt at every horizon; cra plays each horizon's
    planned grid against alpha * beta * reference.hi of one continuous
    reference."""
    scale = config.oracle.alpha * config.oracle.beta
    if config.mode == "dra":
        cfg = _native_config(config)
        benchmark = scale * compute_opt(model, cfg)
        gaps = _safe_gaps(model, cfg, config.oracle.alpha)
        for horizon in config.horizons:
            yield horizon, cfg, gaps, benchmark, None
        return
    resources, budget = config.problem.resources, config.problem.budget
    reference = compute_continuous_reference(
        model, budget, config.reference_refinement
    )
    lip = model.lipschitz_constant() if config.lipschitz is None else config.lipschitz
    for horizon in config.horizons:
        plan = plan_discretization(
            config.smoothness, budget, lip, resources, horizon, config.max_levels
        )
        cfg = ProblemConfig(resources=resources, budget=budget, space=plan.grid)
        gaps = _safe_gaps(model, cfg, config.oracle.alpha)
        yield horizon, cfg, gaps, scale * reference.hi, plan.pitch


def _run_bandit_modes(config: ExperimentConfig, out_dir: Path) -> ExperimentSummary:
    summary = ExperimentSummary(mode=config.mode)
    model0 = build_model(config, rng_seed=0)  # means only; the seed is unused
    if config.write_traces:
        (out_dir / "traces").mkdir(parents=True, exist_ok=True)

    for horizon, cfg, gaps, benchmark, epsilon in _instances(config, model0):
        payloads = [
            (config, cfg, horizon, rep, str(out_dir))
            for rep in range(config.replications)
        ]
        finals = []
        coverage = []
        cum_sum = np.zeros(horizon)
        cum_sq = np.zeros(horizon)
        for expected, violations in _map_ordered(
            _bandit_task, payloads, config.jobs
        ):
            series = np.cumsum(benchmark - expected)
            finals.append(float(series[-1]))
            coverage.append(violations)
            cum_sum += series
            cum_sq += series * series

        reps = config.replications
        finals_arr = np.asarray(finals)
        curve_mean = cum_sum / reps
        if reps > 1:
            var = (cum_sq - reps * curve_mean * curve_mean) / (reps - 1)
            curve_std = np.sqrt(np.maximum(var, 0.0))
        else:
            curve_std = np.zeros(horizon)

        dep, indep = _instance_bounds(config, cfg, horizon, gaps)
        normalized = (
            float(np.mean(finals_arr))
            / (horizon ** (2.0 / 3.0) * math.log(horizon) ** (1.0 / 3.0))
            if epsilon is not None
            else None
        )
        row = AggregateRow(
            horizon=horizon,
            mean_regret=float(np.mean(finals_arr)),
            std_regret=_std1(finals_arr),
            theorem1_dep_bound=dep,
            theorem1_indep_bound=indep,
            theorem2_normalized=normalized,
            epsilon=epsilon,
            levels=cfg.space.n,
            lemma1_violations=float(np.mean(coverage)),
        )
        summary.rows.append(row)
        summary.rep_finals[horizon] = finals

        curve_path = out_dir / f"curve_T{horizon}.csv"
        _write_csv(
            curve_path,
            ("round", "mean_cum_regret", "std_cum_regret"),
            (
                [t + 1, curve_mean[t], curve_std[t]]
                for t in range(horizon)
            ),
            {
                "config_hash": config.config_hash(),
                "mode": config.mode,
                "horizon": horizon,
                "replications": reps,
            },
        )
        summary.files.append(curve_path)
        summary.lines.append(
            f"T={horizon}: mean regret {row.mean_regret:.4f} "
            f"(std {row.std_regret:.4f}) over {reps} replications"
        )

    aggregate_path = out_dir / "aggregate.csv"
    _write_csv(
        aggregate_path,
        AGGREGATE_COLUMNS,
        (row.cells() for row in summary.rows),
        {"config_hash": config.config_hash(), "mode": config.mode, "seed": config.seed},
    )
    summary.files.append(aggregate_path)
    return summary


def _run_oracle_check(config: ExperimentConfig, out_dir: Path) -> ExperimentSummary:
    """Random small instances: exact solver versus enumeration, greedy ratio."""
    summary = ExperimentSummary(mode="oracle-check")
    rng = np.random.default_rng(config.seed)
    rows = []
    ratios = []
    all_match = True
    for i in range(config.replications):
        resources = int(rng.integers(1, 5))
        levels = int(rng.integers(2, 6))
        budget = int(rng.integers(levels - 1, 9))
        means = rng.random((resources, levels))
        cfg = ProblemConfig(
            resources=resources,
            budget=float(budget),
            space=ActionSpace.integer_levels(levels),
        )
        dp = ExactDpSolver(cfg).solve(means)
        # The DP's tie order: the best value, then the fewest units, then
        # the lexicographically smallest level vector.
        best_l = min(
            iter_feasible_levels(cfg),
            key=lambda lv: (-allocation_value(means, lv), sum(lv), lv),
        )
        best_v = allocation_value(means, best_l)
        match = dp.value == best_v and dp.allocation.levels == best_l
        all_match = all_match and match
        greedy = GreedySolver(cfg).solve(means)
        ratio = greedy.value / dp.value if dp.value > 0 else 1.0
        ratios.append(ratio)
        rows.append(
            [i, resources, levels, budget, dp.value, best_v, int(match), greedy.value, ratio]
        )
    path = out_dir / "oracle_check.csv"
    _write_csv(
        path,
        ORACLE_CHECK_COLUMNS,
        rows,
        {"config_hash": config.config_hash(), "seed": config.seed},
    )
    summary.files.append(path)
    summary.ok = all_match
    summary.lines.append(
        f"exact solver vs enumeration: {'PASS' if all_match else 'FAIL'} "
        f"on {config.replications} instances"
    )
    summary.lines.append(
        f"greedy value ratio: min {min(ratios):.4f}, mean {float(np.mean(ratios)):.4f}"
    )
    return summary


def _run_bounds(config: ExperimentConfig, out_dir: Path) -> ExperimentSummary:
    """Tabulate the regret bounds for the configured instance per horizon."""
    summary = ExperimentSummary(mode="bounds")
    model0 = build_model(config, rng_seed=0)
    cfg = _native_config(config)
    try:
        gaps = compute_gaps(model0, cfg, config.oracle.alpha)
    except EnumerationInfeasibleError as exc:
        raise ConfigurationError(f"mode bounds: {exc}") from exc
    horizons = config.horizons or (1000, 10000, 100000)
    rows = []
    for horizon in horizons:
        dep, indep = _instance_bounds(config, cfg, horizon, gaps)
        rows.append([horizon, dep, indep, gaps.delta_min, gaps.delta_max, gaps.opt])
        summary.lines.append(
            f"T={horizon}: dependent bound "
            f"{'n/a' if dep is None else format(dep, '.4f')}, "
            f"independent bound {indep:.4f}"
        )
    path = out_dir / "bounds.csv"
    _write_csv(
        path,
        BOUNDS_COLUMNS,
        rows,
        {"config_hash": config.config_hash(), "seed": config.seed},
    )
    summary.files.append(path)
    summary.rows = rows
    return summary


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Execute a validated config and write its output files under
    config.out. Returns the summary with aggregate rows and written paths."""
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.mode in ("dra", "cra"):
        return _run_bandit_modes(config, out_dir)
    if config.mode == "oracle-check":
        return _run_oracle_check(config, out_dir)
    return _run_bounds(config, out_dir)
