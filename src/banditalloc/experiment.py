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

import json
import math
import os
from contextlib import ExitStack, closing, contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import chain, count
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import streams
from ._digest import sha256_hex
from .analysis import (
    REFERENCE_MEMORY_CEILING,
    BoundParams,
    CoverageObserver,
    EnumerationInfeasibleError,
    GapReport,
    _theorem2_rate,
    compute_continuous_reference,
    compute_gaps,
    compute_opt,
    dependent_regret_bound,
    independent_regret_bound,
    reference_memory_bytes,
    regret_series,
)
from .continuous import DEFAULT_MAX_LEVELS, plan_discretization
from .core import ActionSpace, ProblemConfig, iter_feasible_levels
from .environment import RewardModel
from .learner import Sink, run
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
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
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
        """Lossless dict form; from_dict(to_dict()) == self. Unset optional
        fields of problem and rewards are left out."""
        out = asdict(self)
        for key in ("problem", "rewards"):
            out[key] = {k: v for k, v in out[key].items() if v is not None}
        return json.loads(json.dumps(out))  # tuples become lists

    def config_hash(self) -> str:
        """sha256 over the science fields only.

        Execution knobs (out, jobs, write_traces) are excluded and fields the
        mode never reads are hashed at their defaults (oracle-check hashes
        only mode, seed and replications), so the hash stamped into output
        files changes only when the outputs can.
        """
        seen = self
        if self.mode in ("dra", "bounds"):
            seen = _at_defaults(self, "lipschitz", "max_levels", "reference_refinement")
        elif self.mode == "cra":
            seen = replace(self, problem=_at_defaults(self.problem, "levels"))
        science = seen.to_dict()
        if self.mode == "oracle-check":
            science = {key: science[key] for key in ("mode", "seed", "replications")}
        for key in ("out", "jobs", "write_traces"):
            science.pop(key, None)
        canon = json.dumps(science, sort_keys=True, separators=(",", ":"))
        return sha256_hex(canon.encode())


def _at_defaults(obj, *names: str):
    """The dataclass obj with the named fields put back to their defaults."""
    return replace(obj, **{f.name: f.default for f in fields(obj) if f.name in names})


# JSON types of the scalar config fields, by their annotation.
_KINDS = {"int": int, "float": float, "str": str, "bool": bool}

# Lower bounds of integer fields; each default meets its bound.
_FLOORS = {"replications": 1, "jobs": 1, "max_levels": 2, "reference_refinement": 2}


def _require(raw: dict, key: str, kind, path: str):
    if key not in raw:
        raise ConfigurationError(f"missing field {path}{key}")
    return _typed(raw[key], key, kind, path)


def _typed(value, key: str, kind, path: str):
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return _float(value, path + key)
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


def _float(value: int | float, name: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"field {name} is too large for a float") from None


def _scalars(raw: dict, cls, path: str) -> dict:
    """Constructor arguments for the int, float, str and bool fields of the
    dataclass ``cls`` found in ``raw``, after rejecting keys that ``cls``
    does not declare. A field without a default is required; an optional
    one that is absent or null is left out, so its default applies."""
    _check_unknown(raw, [f.name for f in fields(cls)], path)
    args = {}
    for f in fields(cls):
        kind = _KINDS.get(f.type.removesuffix(" | None"))
        if kind is None:
            continue
        if f.default is MISSING:
            args[f.name] = _require(raw, f.name, kind, path)
        elif raw.get(f.name) is not None:
            args[f.name] = _typed(raw[f.name], f.name, kind, path)
    return args


def _object(raw: dict, key: str) -> dict:
    value = raw.get(key)
    if not isinstance(value, dict):
        raise ConfigurationError(f"field {key} must be an object")
    return value


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
        out.append(_float(item, f"{path}{key}[{i}]"))
    if not out:
        raise ConfigurationError(f"field {path}{key} must not be empty")
    return tuple(out)


def _parse_config(raw: dict) -> ExperimentConfig:
    args = _scalars(raw, ExperimentConfig, "")
    mode = args["mode"]
    if mode not in MODES:
        raise ConfigurationError(f"field mode must be one of {MODES}, got {mode!r}")
    # mix_seed keeps 64 bits, so a larger seed would replay seed mod 2**64
    # under a different config_hash.
    if not 0 <= args["seed"] < 2**64:
        raise ConfigurationError("field seed must be nonnegative and below 2**64")

    problem_raw = _object(raw, "problem")
    args["problem"] = ProblemParams(**_scalars(problem_raw, ProblemParams, "problem."))

    rewards_raw = _object(raw, "rewards")
    rewards = _scalars(rewards_raw, RewardParams, "rewards.")
    family = rewards["family"]
    if family not in ("table", "hinge", "concave_exp"):
        raise ConfigurationError(
            f"field rewards.family must be table, hinge or concave_exp, got {family!r}"
        )
    if family == "table":
        rows = _require(rewards_raw, "probs", list, "rewards.")
        if not rows:
            raise ConfigurationError("field rewards.probs must not be empty")
        probs = tuple(
            _float_vector(row, f"probs[{i}]", "rewards.") for i, row in enumerate(rows)
        )
        if len({len(r) for r in probs}) != 1:
            raise ConfigurationError("field rewards.probs rows must share one length")
        rewards["probs"] = probs
    else:
        vectors = ("thetas", "success_probs") if family == "concave_exp" else ("thetas",)
        for key in vectors:
            rewards[key] = _float_vector(
                _require(rewards_raw, key, list, "rewards."), key, "rewards."
            )
    args["rewards"] = RewardParams(**rewards)

    oracle_raw = _object(raw, "oracle") if "oracle" in raw else {}
    oracle = _scalars(oracle_raw, OracleSpec, "oracle.")
    with _field_errors("field oracle: "):
        args["oracle"] = OracleSpec(**oracle)

    if raw.get("horizons") is not None:
        horizons = _typed(raw["horizons"], "horizons", list, "")
        for i, h in enumerate(horizons):
            if not isinstance(h, int) or isinstance(h, bool) or h < 1:
                raise ConfigurationError(
                    f"field horizons[{i}] must be a positive integer"
                )
        if horizons != sorted(horizons) or len(set(horizons)) != len(horizons):
            raise ConfigurationError("field horizons must be strictly increasing")
        args["horizons"] = tuple(horizons)

    for key, floor in _FLOORS.items():
        if args.get(key, floor) < floor:
            raise ConfigurationError(f"field {key} must be >= {floor}")
    lipschitz = args.get("lipschitz")
    if lipschitz is not None and not (math.isfinite(lipschitz) and lipschitz > 0):
        raise ConfigurationError("field lipschitz must be positive")

    config = ExperimentConfig(**args)
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
    if mode == "cra":
        need = reference_memory_bytes(problem.resources, config.reference_refinement)
        if need > REFERENCE_MEMORY_CEILING:
            raise ConfigurationError(
                f"field reference_refinement {config.reference_refinement} needs "
                f"~{need / 2**20:.0f} MiB for the reference DP on "
                f"{problem.resources} resources, above the "
                f"{REFERENCE_MEMORY_CEILING / 2**20:.0f} MiB ceiling"
            )
    with _field_errors("field "):
        BoundParams(config.smoothness)


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

# Rows that _round_rows converts to Python numbers at a time.
_CSV_CHUNK_ROWS = 1024


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@contextmanager
def _csv_file(path: Path, header: Iterable[str], meta: dict) -> Iterator[Callable]:
    """Yield append(rows), which adds ``rows``, an iterable of rows of
    numbers or None, as lines of comma-joined _fmt cells; no cell holds a
    comma or quote, so none needs quoting. The file is written beside
    ``path`` under a temporary name, opened only for the header and each
    append, and moved into place when the block completes or removed if it
    raises, so no failed write leaves a truncated file under the real name."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")

    def append(rows: Iterable) -> None:
        with open(tmp, "a", newline="") as fh:
            fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)

    try:
        with open(tmp, "w", newline="") as fh:
            fh.writelines(f"# {key}={value}\n" for key, value in meta.items())
            fh.write(",".join(header) + "\n")
        yield append
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: Iterable[str], rows, meta: dict) -> None:
    """Write ``rows`` to ``path`` in one append of a _csv_file."""
    with _csv_file(path, header, meta) as append:
        append(rows)


def _round_rows(*columns: np.ndarray, first: int = 1) -> Iterator[tuple]:
    """Rows (first + t, columns[0][t], columns[1][t], ...) for every index t
    of the equal-length columns, as Python numbers. Each column goes through
    tolist() one slice of _CSV_CHUNK_ROWS rows at a time, which is cheaper
    than indexing numpy scalars and never converts a whole column at once."""
    for lo in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        parts = [column[lo:lo + _CSV_CHUNK_ROWS].tolist() for column in columns]
        yield from zip(count(first + lo), *parts)


# -- replication workers ------------------------------------------------------


def _trace_sink(files: ExitStack, payload: tuple, seeds: list[int]) -> Sink:
    """A run sink for the block of replications of a _bandit_task payload,
    drawn from ``seeds``. It enters one _csv_file per replication and horizon
    on ``files`` and appends each replication's rows of a chunk to the file
    of every horizon the chunk reaches, up to that horizon."""
    config, config_hash, cfg, horizons, block, out = payload
    ids = range(1, cfg.resources + 1)
    header = ["round", *(f"level_{k}" for k in ids), *(f"reward_{k}" for k in ids)]
    header.append("expected_total")
    space = cfg.space
    grid = {"epsilon": repr(space.pitch), "N": space.n} if space.is_grid else {}
    appends = []  # per replication, one append per horizon
    for rep, rng_seed in zip(block, seeds):
        appends.append([])
        for horizon in horizons:
            meta = {"config_hash": config_hash, "mode": config.mode, "horizon": horizon,
                    "replication": rep, "rng_seed": rng_seed, **grid}
            path = Path(out) / "traces" / f"trace_{config.mode}_T{horizon}_rep{rep}.csv"
            appends[-1].append(files.enter_context(_csv_file(path, header, meta)))

    def sink(start, levels, rewards, expected) -> None:
        for lane, played, seen, exp in zip(appends, levels, rewards, expected):
            for horizon, append in zip(horizons, lane):
                if horizon >= start:
                    rows = slice(horizon - start + 1)
                    columns = (*played[rows].T, *seen[rows].T, exp[rows])
                    append(_round_rows(*columns, first=start))

    return sink


def _bandit_task(payload: tuple) -> list[tuple[np.ndarray, list[int]]]:
    """Run one block of replications in lockstep, each once, to the longest
    of ``horizons``, on an instance the parent built; returns, per
    replication in block order, (per-round expected rewards of its run,
    coverage violation count at each horizon). Top level so process pools
    can pickle it.

    The learner is anytime: round t's radius, noise and coin flips do not
    depend on the horizon, so the run of horizon h is the first h rounds of
    this one. Each horizon's trace file holds that prefix, and its
    violation count covers rounds 1..h. One coverage observer and one sink,
    which keeps the expected values and feeds any trace files, serve the
    block; the trace files move into place when it returns.
    ``config_hash`` is the config's, computed once by the parent."""
    config, config_hash, cfg, horizons, block, out = payload
    seeds = [streams.mix_seed(config.seed, rep) for rep in block]
    models = [build_model(config, rng_seed) for rng_seed in seeds]
    solvers = [build_solver(config.oracle, cfg, seed=rng_seed) for rng_seed in seeds]
    observer = CoverageObserver(models[0].mean_matrix(cfg.space), horizons)
    expected = np.empty((len(block), horizons[-1]))
    with ExitStack() as files:
        write = _trace_sink(files, payload, seeds) if config.write_traces else None

        def sink(start, levels, rewards, chunk) -> None:
            expected[:, start - 1:start - 1 + chunk.shape[1]] = chunk
            if write is not None:
                write(start, levels, rewards, chunk)

        run(models, solvers, cfg, horizons[-1], observer=observer, sink=sink)
    counts = zip(*(observer.counts_at[h].tolist() for h in horizons))
    return [(exp, list(lane)) for exp, lane in zip(expected, counts)]


def _workers(jobs: int, tasks: int) -> int:
    """Processes for ``tasks`` independent tasks: never more than the tasks
    or the CPUs this process may run on (its affinity set, where the
    platform has one), since a pool starts every worker at once."""
    affinity = getattr(os, "sched_getaffinity", None)
    return min(jobs, tasks, len(affinity(0)) if affinity else (os.cpu_count() or 1))


def _map_ordered(fn, payloads: list, jobs: int) -> Iterator:
    """Apply fn to payloads, preserving order. More than one worker fans out
    to processes."""
    workers = _workers(jobs, len(payloads))
    if workers <= 1:
        yield from map(fn, payloads)
    else:
        # Imported here: it loads multiprocessing, which a run that starts
        # no workers never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, payloads, chunksize=1)


# -- mode runners -------------------------------------------------------------


@dataclass
class ExperimentSummary:
    """What a run produced: aggregate rows (lists in the order of the mode's
    columns; None cells print blank), per-replication finals and the files
    written."""

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
    params = BoundParams(config.smoothness)
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
    """(horizons, instance, gaps, benchmark, grid pitch) for each run of
    consecutive horizons that play an equal instance against an equal
    benchmark, with every instance built once. The horizons of one group
    share their replications: each runs once, to the group's longest
    horizon. dra plays the native levels (pitch None) against
    alpha * beta * opt, so all its horizons form one group. cra plays each
    horizon's planned grid against alpha * beta * reference.hi of one
    continuous reference, so a horizon joins the previous group only when
    its plan gives the same grid, as two plans capped at max_levels do."""
    scale = config.oracle.alpha * config.oracle.beta
    if config.mode == "dra":
        cfg = _native_config(config)
        benchmark = scale * compute_opt(model, cfg)
        gaps = _safe_gaps(model, cfg, config.oracle.alpha)
        yield config.horizons, cfg, gaps, benchmark, None
        return
    resources, budget = config.problem.resources, config.problem.budget
    reference = compute_continuous_reference(
        model, budget, config.reference_refinement
    )
    lip = model.lipschitz_constant() if config.lipschitz is None else config.lipschitz
    groups = []  # (horizons, instance, pitch)
    for horizon in config.horizons:
        plan = plan_discretization(
            config.smoothness, budget, lip, resources, horizon, config.max_levels
        )
        cfg = ProblemConfig(resources=resources, budget=budget, space=plan.grid)
        if groups and groups[-1][1] == cfg:
            groups[-1][0].append(horizon)
        else:
            groups.append(([horizon], cfg, plan.pitch))
    for horizons, cfg, pitch in groups:
        gaps = _safe_gaps(model, cfg, config.oracle.alpha)
        yield tuple(horizons), cfg, gaps, scale * reference.hi, pitch


def _replications(
    config: ExperimentConfig, config_hash: str, model: RewardModel, out_dir: Path
) -> Iterator[tuple]:
    """(horizon, instance, gaps, grid pitch, finals, violation counts,
    curve sums) for each horizon in order, over the groups of _instances.
    Each group's replications are split into one contiguous block per
    worker, and each block runs in lockstep in one learner call; every
    (group, block) goes through one call of _map_ordered, so a run starts
    at most one process pool, and each group's replications are folded in
    index order as they arrive. The curve sums are the sums over
    replications of the cumulative regret and of its square. A group keeps
    one (longest,) pair: regret_series adds in order and the fold is
    elementwise, so the first h entries are exactly what a run of horizon h
    alone would give."""
    reps = config.replications
    groups = list(_instances(config, model))
    workers = _workers(config.jobs, reps)
    cuts = [reps * i // workers for i in range(workers + 1)]
    payloads = [
        (config, config_hash, cfg, horizons, range(lo, hi), str(out_dir))
        for horizons, cfg, *_ in groups
        for lo, hi in zip(cuts, cuts[1:])
    ]
    # closing() shuts the pool down once the last result is read, although
    # zip leaves the generator suspended at its final yield.
    with closing(_map_ordered(_bandit_task, payloads, config.jobs)) as blocks:
        results = chain.from_iterable(blocks)
        for horizons, cfg, gaps, benchmark, epsilon in groups:
            finals = {horizon: [] for horizon in horizons}
            coverage = {horizon: [] for horizon in horizons}
            cum_sum = np.zeros(horizons[-1])
            cum_sq = np.zeros(horizons[-1])
            for _, (expected, counts) in zip(range(reps), results):
                series = regret_series(expected, benchmark).series
                for horizon, violations in zip(horizons, counts):
                    finals[horizon].append(float(series[horizon - 1]))
                    coverage[horizon].append(violations)
                cum_sum += series
                cum_sq += series * series
            for horizon in horizons:
                yield (
                    horizon, cfg, gaps, epsilon, finals[horizon], coverage[horizon],
                    cum_sum[:horizon], cum_sq[:horizon],
                )


def _run_bandit_modes(config: ExperimentConfig, out_dir: Path) -> ExperimentSummary:
    summary = ExperimentSummary()
    config_hash = config.config_hash()
    model0 = build_model(config, rng_seed=0)  # means only; the seed is unused
    if config.write_traces:
        (out_dir / "traces").mkdir(parents=True, exist_ok=True)

    reps = config.replications
    for horizon, cfg, gaps, epsilon, finals, coverage, cum_sum, cum_sq in _replications(
        config, config_hash, model0, out_dir
    ):
        finals_arr = np.asarray(finals)
        curve_mean = cum_sum / reps
        if reps > 1:
            var = (cum_sq - reps * curve_mean * curve_mean) / (reps - 1)
            curve_std = np.sqrt(np.maximum(var, 0.0))
        else:
            curve_std = np.zeros(horizon)

        dep, indep = _instance_bounds(config, cfg, horizon, gaps)
        mean_regret = float(np.mean(finals_arr))
        std_regret = _std1(finals_arr)
        normalized = (
            mean_regret / _theorem2_rate(horizon) if epsilon is not None else None
        )
        summary.rows.append(
            [horizon, mean_regret, std_regret, dep, indep, normalized, epsilon,
             cfg.space.n, float(np.mean(coverage))]
        )
        summary.rep_finals[horizon] = finals

        curve_path = out_dir / f"curve_T{horizon}.csv"
        _write_csv(
            curve_path,
            ("round", "mean_cum_regret", "std_cum_regret"),
            _round_rows(curve_mean, curve_std),
            {
                "config_hash": config_hash,
                "mode": config.mode,
                "horizon": horizon,
                "replications": reps,
            },
        )
        summary.files.append(curve_path)
        summary.lines.append(
            f"T={horizon}: mean regret {mean_regret:.4f} "
            f"(std {std_regret:.4f}) over {reps} replications"
        )

    aggregate_path = out_dir / "aggregate.csv"
    _write_csv(
        aggregate_path,
        AGGREGATE_COLUMNS,
        summary.rows,
        {"config_hash": config_hash, "mode": config.mode, "seed": config.seed},
    )
    summary.files.append(aggregate_path)
    return summary


def _run_oracle_check(config: ExperimentConfig, out_dir: Path) -> ExperimentSummary:
    """Random small instances: exact solver versus enumeration, greedy ratio."""
    summary = ExperimentSummary()
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
    summary = ExperimentSummary()
    model0 = build_model(config, rng_seed=0)
    cfg = _native_config(config)
    try:
        gaps = compute_gaps(model0, cfg, config.oracle.alpha)
    except EnumerationInfeasibleError as exc:
        raise ConfigurationError(f"mode bounds: {exc}") from exc
    horizons = config.horizons or (1000, 10000, 100000)
    for horizon in horizons:
        dep, indep = _instance_bounds(config, cfg, horizon, gaps)
        summary.rows.append([horizon, dep, indep, gaps.delta_min, gaps.delta_max, gaps.opt])
        summary.lines.append(
            f"T={horizon}: dependent bound "
            f"{'n/a' if dep is None else format(dep, '.4f')}, "
            f"independent bound {indep:.4f}"
        )
    path = out_dir / "bounds.csv"
    _write_csv(
        path,
        BOUNDS_COLUMNS,
        summary.rows,
        {"config_hash": config.config_hash(), "seed": config.seed},
    )
    summary.files.append(path)
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
