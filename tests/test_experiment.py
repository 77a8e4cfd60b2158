"""Experiment harness and CLI: config validation, file determinism, modes."""

import concurrent.futures
import copy
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from itertools import count
from pathlib import Path

import numpy as np
import pytest

from banditalloc import (
    ConfigurationError,
    ExperimentConfig,
    RewardModel,
    experiment,
    run_experiment,
    streams,
)
from banditalloc.cli import main as cli_main
from banditalloc.experiment import (
    AGGREGATE_COLUMNS,
    BOUNDS_COLUMNS,
    ORACLE_CHECK_COLUMNS,
    _CSV_CHUNK_ROWS,
    _fmt,
    _round_rows,
    _write_csv,
    build_model,
)


def dra_dict(**over):
    base = {
        "mode": "dra",
        "seed": 7,
        "problem": {"resources": 2, "budget": 2.0, "levels": 3},
        "rewards": {"family": "table", "probs": [[0.1, 0.5, 0.6], [0.05, 0.3, 0.9]]},
        "horizons": [50, 200],
        "replications": 3,
    }
    base.update(over)
    return base


def cra_dict(**over):
    base = {
        "mode": "cra",
        "seed": 11,
        "problem": {"resources": 2, "budget": 1.0},
        "rewards": {
            "family": "concave_exp",
            "thetas": [0.8, 0.5],
            "success_probs": [0.9, 0.7],
        },
        "horizons": [60, 240],
        "replications": 3,
        "reference_refinement": 256,
    }
    base.update(over)
    return base


def read_csv(path):
    """Split one of our CSV files into (meta, header, rows)."""
    meta = {}
    table = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            table.append(line.split(","))
    return meta, table[0], table[1:]


class TestConfigParsing:
    def test_round_trip_dra(self):
        config = ExperimentConfig.from_dict(dra_dict())
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        assert config.horizons == (50, 200)
        assert config.problem.levels == 3
        assert config.rewards.probs[1][2] == 0.9

    def test_round_trip_cra(self):
        config = ExperimentConfig.from_dict(cra_dict())
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        assert config.rewards.probs is None
        assert config.reference_refinement == 256

    def test_round_trip_with_all_knobs(self):
        raw = dra_dict(
            oracle={"kind": "greedy", "alpha": 0.5, "beta": 0.9},
            out="elsewhere",
            jobs=4,
            write_traces=True,
            smoothness=2.0,
            lipschitz=3.5,
            max_levels=128,
        )
        config = ExperimentConfig.from_dict(raw)
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        assert config.oracle.kind == "greedy"
        assert config.lipschitz == 3.5

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dra_dict()))
        assert ExperimentConfig.from_file(path) == ExperimentConfig.from_dict(dra_dict())

    def test_from_file_reports_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "mode": "dra",\n  oops\n}\n')
        with pytest.raises(ConfigurationError, match=r"line 3, column 3"):
            ExperimentConfig.from_file(path)

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            ExperimentConfig.from_file(tmp_path / "nope.json")

    def test_from_file_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"mode": "dr\xe4"}')
        with pytest.raises(ConfigurationError, match="cannot read config"):
            ExperimentConfig.from_file(path)

    def test_from_file_top_level_array(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="top level"):
            ExperimentConfig.from_file(path)

    def test_build_model_families(self):
        table = build_model(ExperimentConfig.from_dict(dra_dict()), rng_seed=3)
        assert table.family == "table" and table.rng_seed == 3
        concave = build_model(ExperimentConfig.from_dict(cra_dict()), rng_seed=4)
        assert concave.family == "concave_exp"
        hinge_raw = cra_dict(rewards={"family": "hinge", "thetas": [0.6, 0.8]})
        hinge = build_model(ExperimentConfig.from_dict(hinge_raw), rng_seed=5)
        assert hinge.family == "hinge" and hinge.budget == 1.0


def _drop(raw, *keys):
    node = raw
    for key in keys[:-1]:
        node = node[key]
    del node[keys[-1]]
    return raw


BAD_CONFIGS = [
    pytest.param(_drop(dra_dict(), "mode"), "missing field mode", id="no-mode"),
    pytest.param(dra_dict(mode="dpa"), "field mode must be one of", id="bad-mode"),
    pytest.param(dra_dict(seed=-1), "seed must be nonnegative", id="negative-seed"),
    pytest.param(dra_dict(seed=True), "field seed must be int", id="bool-seed"),
    # mix_seed keeps 64 bits: a larger seed would replay seed mod 2**64
    pytest.param(dra_dict(seed=2**64), "seed must be nonnegative", id="seed-too-big"),
    pytest.param(dra_dict(typo=1), "unknown field typo", id="unknown-key"),
    pytest.param(
        dra_dict(problem={"resources": 2, "budget": 2.0, "levels": 3, "pitch": 1}),
        "unknown field problem.pitch",
        id="unknown-nested-key",
    ),
    pytest.param(
        _drop(dra_dict(), "problem", "budget"),
        "missing field problem.budget",
        id="no-budget",
    ),
    pytest.param(
        dra_dict(problem={"resources": 2, "budget": 10**400, "levels": 3}),
        "field problem.budget is too large for a float",
        id="budget-overflows-float",
    ),
    pytest.param(
        cra_dict(rewards={"family": "hinge", "thetas": [0.6, 10**400]}),
        r"field rewards.thetas\[1\] is too large for a float",
        id="theta-overflows-float",
    ),
    pytest.param(
        dra_dict(problem={"resources": 0, "budget": 2.0, "levels": 3}),
        "problem.resources must be >= 1",
        id="zero-resources",
    ),
    pytest.param(
        _drop(dra_dict(), "problem", "levels"),
        "problem.levels is required for mode dra",
        id="dra-needs-levels",
    ),
    pytest.param(
        dra_dict(problem={"resources": 2, "budget": 2.0, "levels": 5}),
        r"levels <= budget \+ 1",
        id="levels-exceed-budget",
    ),
    pytest.param(
        dra_dict(rewards={"family": "step", "probs": [[0.5]]}),
        "rewards.family must be",
        id="bad-family",
    ),
    pytest.param(
        dra_dict(rewards={"family": "table", "probs": [[0.1, 0.5, 0.6], [0.3, 0.9]]}),
        "share one length",
        id="ragged-probs",
    ),
    pytest.param(
        dra_dict(rewards={"family": "table", "probs": [[0.1, 0.5, 1.6], [0.0, 0.3, 0.9]]}),
        r"probs entries must lie in \[0, 1\]",
        id="probs-out-of-range",
    ),
    pytest.param(
        dra_dict(rewards={"family": "table", "probs": [[0.1, 0.5, 0.6]]}),
        "one row per resource",
        id="probs-rows-mismatch",
    ),
    pytest.param(
        dra_dict(rewards={"family": "table", "probs": [[0.1, "x", 0.6], [0, 0, 0]]}),
        r"probs\[0\]\[1\] must be a number",
        id="non-numeric-prob",
    ),
    pytest.param(
        cra_dict(rewards={"family": "table", "probs": [[0.5, 0.5], [0.5, 0.5]]}),
        "mode cra needs a reward family with a budget continuum",
        id="cra-rejects-table",
    ),
    pytest.param(
        cra_dict(rewards={"family": "concave_exp", "thetas": [0.8], "success_probs": [0.9, 0.7]}),
        "must match in length",
        id="theta-prob-mismatch",
    ),
    pytest.param(
        cra_dict(rewards={"family": "hinge", "thetas": [0.6, 1.4]}),
        r"thetas must lie in \(0, 1\] for hinge",
        id="hinge-theta-too-big",
    ),
    pytest.param(dra_dict(horizons=[200, 50]), "strictly increasing", id="horizons-order"),
    pytest.param(dra_dict(horizons=[50, 50]), "strictly increasing", id="horizons-dup"),
    pytest.param(dra_dict(horizons=[50, 0]), r"horizons\[1\]", id="horizon-zero"),
    pytest.param(dra_dict(horizons=[]), "horizons is required", id="horizons-empty"),
    pytest.param(
        cra_dict(horizons=[1, 50]), "horizons must be >= 2 for mode cra", id="cra-horizon-one"
    ),
    pytest.param(dra_dict(replications=0), "replications must be >= 1", id="zero-reps"),
    pytest.param(dra_dict(jobs=0), "jobs must be >= 1", id="zero-jobs"),
    pytest.param(dra_dict(smoothness=0), "smoothness must be positive", id="zero-smoothness"),
    pytest.param(dra_dict(lipschitz=-2.0), "lipschitz must be positive", id="bad-lipschitz"),
    pytest.param(
        dra_dict(oracle={"kind": "exact_dp", "alpha": 0.5}),
        "field oracle",
        id="exact-dp-alpha",
    ),
    pytest.param(dra_dict(max_levels=1), "max_levels must be >= 2", id="max-levels-low"),
    pytest.param(
        dra_dict(problem={"resources": 2, "budget": -1.0, "levels": 3}),
        "problem.budget must be a nonnegative real",
        id="dra-negative-budget",
    ),
    pytest.param(
        cra_dict(problem={"resources": 2, "budget": math.inf}),
        "problem.budget must be a nonnegative real",
        id="cra-infinite-budget",
    ),
    pytest.param(
        {
            "mode": "oracle-check",
            "seed": 0,
            "problem": {"resources": 1, "budget": -1.0},
            "rewards": {"family": "table", "probs": [[0.5, 0.5]]},
        },
        "problem.budget must be a nonnegative real",
        id="oracle-check-negative-budget",
    ),
    pytest.param(
        cra_dict(
            rewards={
                "family": "concave_exp",
                "thetas": [0.8, 0.0],
                "success_probs": [0.9, 0.7],
            }
        ),
        "rewards.thetas must be positive",
        id="concave-theta-zero",
    ),
    pytest.param(
        cra_dict(
            rewards={
                "family": "concave_exp",
                "thetas": [0.8, 0.5],
                "success_probs": [0.9, 1.5],
            }
        ),
        r"rewards.success_probs must lie in \[0, 1\]",
        id="success-prob-too-big",
    ),
    pytest.param(
        dra_dict(problem={"resources": 2, "budget": 2.0, "levels": 2}),
        "rewards.probs must have .*columns",
        id="probs-columns-mismatch",
    ),
    pytest.param(
        cra_dict(rewards={"family": "hinge", "thetas": [0.6]}),
        "rewards.thetas must have one entry per resource",
        id="thetas-count-mismatch",
    ),
    pytest.param(
        cra_dict(reference_refinement=1),
        "reference_refinement must be >= 2",
        id="reference-refinement-low",
    ),
    # The reference DP on three resources holds ~8 (refinement + 1)^2 bytes,
    # past the 1 GiB ceiling from refinement 11578 on.
    pytest.param(
        cra_dict(
            problem={"resources": 3, "budget": 1.0},
            rewards={
                "family": "concave_exp",
                "thetas": [0.8, 0.5, 0.6],
                "success_probs": [0.9, 0.7, 0.8],
            },
            reference_refinement=12000,
        ),
        "reference_refinement 12000 needs .* MiB ceiling",
        id="reference-refinement-memory",
    ),
    # Non-finite parameters: NaN fails every comparison, so each range rule
    # is a membership test that NaN and infinity cannot pass.
    pytest.param(
        dra_dict(rewards={"family": "table", "probs": [[0.1, math.nan, 0.6], [0, 0, 0]]}),
        r"probs entries must lie in \[0, 1\]",
        id="probs-nan",
    ),
    pytest.param(
        cra_dict(
            rewards={
                "family": "concave_exp",
                "thetas": [math.nan, 0.5],
                "success_probs": [0.9, 0.7],
            }
        ),
        "rewards.thetas must be positive",
        id="concave-theta-nan",
    ),
    pytest.param(
        cra_dict(
            rewards={
                "family": "concave_exp",
                "thetas": [0.8, math.inf],
                "success_probs": [0.9, 0.7],
            }
        ),
        "rewards.thetas must be positive",
        id="concave-theta-inf",
    ),
    pytest.param(
        cra_dict(
            rewards={
                "family": "concave_exp",
                "thetas": [0.8, 0.5],
                "success_probs": [math.nan, 0.7],
            }
        ),
        r"rewards.success_probs must lie in \[0, 1\]",
        id="success-prob-nan",
    ),
    pytest.param(
        cra_dict(rewards={"family": "hinge", "thetas": [0.6, math.nan]}),
        r"thetas must lie in \(0, 1\] for hinge",
        id="hinge-theta-nan",
    ),
]


@pytest.mark.parametrize("raw,pattern", BAD_CONFIGS)
def test_config_rejection(raw, pattern):
    with pytest.raises(ConfigurationError, match=pattern):
        ExperimentConfig.from_dict(raw)


class TestConfigHash:
    def test_ignores_execution_knobs(self):
        base = ExperimentConfig.from_dict(dra_dict())
        tweaked = ExperimentConfig.from_dict(
            dra_dict(out="elsewhere", jobs=8, write_traces=True)
        )
        assert base.config_hash() == tweaked.config_hash()

    def test_tracks_science_fields(self):
        base = ExperimentConfig.from_dict(dra_dict())
        assert base.config_hash() != ExperimentConfig.from_dict(dra_dict(seed=8)).config_hash()
        bumped = copy.deepcopy(dra_dict())
        bumped["rewards"]["probs"][0][0] = 0.11
        assert base.config_hash() != ExperimentConfig.from_dict(bumped).config_hash()

    def test_dra_ignores_grid_and_reference_fields(self):
        base = ExperimentConfig.from_dict(dra_dict()).config_hash()
        unread = dra_dict(max_levels=128, reference_refinement=64, lipschitz=2.0)
        assert ExperimentConfig.from_dict(unread).config_hash() == base

    def test_cra_ignores_problem_levels(self):
        base = ExperimentConfig.from_dict(cra_dict()).config_hash()
        unread = cra_dict()
        unread["problem"] = {**unread["problem"], "levels": 5}
        assert ExperimentConfig.from_dict(unread).config_hash() == base
        # cra does read the planner's fields.
        assert ExperimentConfig.from_dict(cra_dict(lipschitz=2.0)).config_hash() != base

    def test_oracle_check_hashes_only_seed_and_replications(self):
        def check(**over):
            raw = {"mode": "oracle-check", "seed": 3, "replications": 5, **over}
            raw.setdefault("problem", {"resources": 1, "budget": 1.0, "levels": 2})
            raw.setdefault("rewards", {"family": "table", "probs": [[0.5, 0.5]]})
            return ExperimentConfig.from_dict(raw).config_hash()

        base = check()
        unread = check(
            problem={"resources": 3, "budget": 4.0, "levels": 3},
            rewards={"family": "hinge", "thetas": [0.5, 0.5, 0.5]},
            smoothness=2.0,
        )
        assert unread == base
        assert check(seed=4) != base
        assert check(replications=6) != base

    @pytest.mark.parametrize(
        "raw,digest",
        [
            (dra_dict(), "82db97ca00f19cede3940d14ec05d75acce15423390a3d1eb8b428dfd076711a"),
            (cra_dict(), "81c1e72686dbb08478eba4786fb8fdd525ffb568e2e4ce32f74ac214fed3b4ff"),
        ],
        ids=["dra", "cra"],
    )
    def test_pinned(self, raw, digest):
        # The hash is stamped into every output file, so the dict form it is
        # taken over, defaults included, must not drift.
        assert ExperimentConfig.from_dict(raw).config_hash() == digest

    @pytest.mark.parametrize(
        "raw",
        [
            dra_dict(),
            cra_dict(),
            dra_dict(mode="bounds"),
            {
                "mode": "oracle-check",
                "seed": 0,
                "problem": {"resources": 1, "budget": 1.0, "levels": 2},
                "rewards": {"family": "table", "probs": [[0.5, 0.5]]},
                "replications": 200,
            },
        ],
        ids=["dra", "cra", "bounds", "oracle-check"],
    )
    def test_is_the_sha256_of_the_canonical_json(self, raw, monkeypatch):
        hashed = []

        def recording_sha256_hex(data):
            hashed.append(data)
            return real_sha256_hex(data)

        real_sha256_hex = experiment.sha256_hex
        monkeypatch.setattr(experiment, "sha256_hex", recording_sha256_hex)
        digest = ExperimentConfig.from_dict(raw).config_hash()
        [canon] = hashed
        assert json.loads(canon)["mode"] == raw["mode"]
        assert digest == hashlib.sha256(canon).hexdigest()

    def test_stable_across_parses(self):
        one = ExperimentConfig.from_dict(dra_dict()).config_hash()
        two = ExperimentConfig.from_dict(
            json.loads(json.dumps(dra_dict()))
        ).config_hash()
        assert one == two
        assert len(one) == 64


@pytest.fixture(scope="module")
def dra_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("dra")
    config = ExperimentConfig.from_dict(dra_dict(out=str(out)))
    return run_experiment(config), out


@pytest.fixture(scope="module")
def cra_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cra")
    config = ExperimentConfig.from_dict(cra_dict(out=str(out)))
    return run_experiment(config), out


class TestDraRuns:
    def test_files_written(self, dra_run):
        summary, out = dra_run
        names = sorted(p.name for p in out.iterdir())
        assert names == ["aggregate.csv", "curve_T200.csv", "curve_T50.csv"]
        assert sorted(p.name for p in summary.files) == names

    def test_aggregate_schema(self, dra_run):
        _, out = dra_run
        meta, header, rows = read_csv(out / "aggregate.csv")
        assert header == list(AGGREGATE_COLUMNS)
        assert meta["mode"] == "dra" and meta["seed"] == "7"
        assert len(meta["config_hash"]) == 64
        assert [r[0] for r in rows] == ["50", "200"]
        for row in rows:
            cells = dict(zip(header, row))
            assert cells["N"] == "3"
            # native discrete budgets: no grid, so no epsilon and no
            # normalized-regret column
            assert cells["epsilon"] == ""
            assert cells["theorem2_normalized"] == ""
            assert float(cells["theorem1_dep_bound"]) > 0
            assert float(cells["theorem1_indep_bound"]) > 0
            assert float(cells["std_regret"]) >= 0
            assert float(cells["lemma1_violations"]) >= 0

    def test_aggregate_matches_replication_finals(self, dra_run):
        summary, out = dra_run
        _, header, rows = read_csv(out / "aggregate.csv")
        for row in rows:
            cells = dict(zip(header, row))
            finals = summary.rep_finals[int(cells["horizon"])]
            assert len(finals) == 3
            assert float(cells["mean_regret"]) == pytest.approx(
                np.mean(finals), rel=1e-12
            )

    def test_curve_consistency(self, dra_run):
        summary, out = dra_run
        meta, header, rows = read_csv(out / "curve_T200.csv")
        assert header == ["round", "mean_cum_regret", "std_cum_regret"]
        assert meta["horizon"] == "200" and meta["replications"] == "3"
        assert len(rows) == 200
        assert [r[0] for r in rows[:3]] == ["1", "2", "3"]
        assert float(rows[-1][1]) == pytest.approx(
            np.mean(summary.rep_finals[200]), rel=1e-12
        )

    def test_rerun_is_byte_identical(self, dra_run, tmp_path):
        _, out = dra_run
        config = ExperimentConfig.from_dict(dra_dict(out=str(tmp_path)))
        run_experiment(config)
        for name in ("aggregate.csv", "curve_T50.csv", "curve_T200.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_seed_changes_the_bytes(self, dra_run, tmp_path):
        _, out = dra_run
        config = ExperimentConfig.from_dict(dra_dict(seed=8, out=str(tmp_path)))
        run_experiment(config)
        assert (tmp_path / "aggregate.csv").read_bytes() != (
            out / "aggregate.csv"
        ).read_bytes()


@pytest.mark.parametrize(
    "raw",
    [
        dra_dict(replications=4, horizons=[40, 120], write_traces=True),
        # Grid traces carry epsilon and N in their metadata.
        cra_dict(replications=4, write_traces=True),
    ],
    ids=["dra", "cra"],
)
def test_parallel_jobs_do_not_change_bytes(tmp_path, raw):
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    run_experiment(ExperimentConfig.from_dict({**raw, "out": str(serial_dir)}))
    run_experiment(
        ExperimentConfig.from_dict({**raw, "out": str(parallel_dir), "jobs": 3})
    )
    serial_files = sorted(p.relative_to(serial_dir) for p in serial_dir.rglob("*.csv"))
    parallel_files = sorted(
        p.relative_to(parallel_dir) for p in parallel_dir.rglob("*.csv")
    )
    assert serial_files == parallel_files
    assert any(p.parts[0] == "traces" for p in serial_files)
    for rel in serial_files:
        assert (serial_dir / rel).read_bytes() == (parallel_dir / rel).read_bytes()


def test_trace_files(tmp_path):
    raw = dra_dict(replications=2, horizons=[30], write_traces=True, out=str(tmp_path))
    run_experiment(ExperimentConfig.from_dict(raw))
    trace_path = tmp_path / "traces" / "trace_dra_T30_rep1.csv"
    meta, header, rows = read_csv(trace_path)
    assert header == [
        "round", "level_1", "level_2", "reward_1", "reward_2", "expected_total",
    ]
    assert len(rows) == 30
    assert meta["replication"] == "1"
    levels = np.array([[int(r[1]), int(r[2])] for r in rows])
    assert levels.sum(axis=1).max() <= 2  # feasibility survives the round trip
    rewards = np.array([[float(r[3]), float(r[4])] for r in rows])
    assert rewards.min() >= 0.0 and rewards.max() <= 1.0


@pytest.mark.parametrize(
    "jobs,reps,cpus,pools,horizons",
    [
        (8, 3, 16, [3], [20]),
        (2, 4, 2, [2], [20]),
        (8, 4, 1, [], [20]),
        (8, 4, None, [], [20]),
        (1, 4, 16, [], [20]),
        (4, 1, 16, [], [20]),
        (2, 4, 2, [2], [20, 40]),
    ],
    ids=[
        "reps-cap", "jobs", "one-cpu", "unknown-cpus", "serial", "one-rep",
        "two-horizons",
    ],
)
def test_worker_count_is_capped(
    monkeypatch, tmp_path, jobs, reps, cpus, pools, horizons
):
    # The pool starts all of its workers on the first submit, so it must
    # never be asked for more than there are replications or CPUs. A run
    # starts one pool, however many horizons it has.
    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads, chunksize):
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # The CPU count of a platform without an affinity set.
    monkeypatch.delattr(experiment.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
    raw = dra_dict(horizons=horizons, replications=reps, jobs=jobs, out=str(tmp_path))
    run_experiment(ExperimentConfig.from_dict(raw))
    assert created == pools


def test_worker_count_follows_cpu_affinity(monkeypatch):
    # A process pinned to one CPU of a larger host starts no pool: the
    # affinity set, not the host's CPU count, caps the workers.
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 4)
    assert experiment._workers(4, 4) == 1
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0, 2, 3})
    assert experiment._workers(4, 4) == 3


def _csv_files(out):
    """Every CSV under ``out``, by relative path, as lists of lines."""
    return {
        str(p.relative_to(out)): p.read_text().splitlines()
        for p in sorted(out.rglob("*.csv"))
    }


def _without_hash(lines):
    return [line for line in lines if not line.startswith("# config_hash=")]


class TestSharedRuns:
    """Horizons that play one instance share each replication's run; what a
    horizon writes reads a prefix of it. None of that may show in the
    files: each equals, line for line apart from the config hash, the file
    of a run configured with that horizon alone."""

    CASES = {
        "dra-table-traces": dra_dict(write_traces=True),
        "dra-greedy-coin-jobs": dra_dict(
            oracle={"kind": "greedy", "beta": 0.9}, jobs=2, write_traces=True
        ),
        # max_levels 4 caps both plans, so both horizons play one grid.
        "cra-capped-grid": cra_dict(max_levels=4, write_traces=True),
    }

    class EveryThirdRound(experiment.CoverageObserver):
        """Sees a violation in every third round, where zero radii put
        every arm outside its interval, so the count grows between the
        horizons; the real observer counts none on these instances."""

        def __call__(self, t, emp_means, radii):
            super().__call__(t, emp_means, radii if t % 3 else 0.0 * radii)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_files_equal_single_horizon_runs(self, case, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "CoverageObserver", self.EveryThirdRound)
        raw = self.CASES[case]
        shared_out = tmp_path / "shared"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # capped plans warn
            run_experiment(ExperimentConfig.from_dict({**raw, "out": str(shared_out)}))
            alone = {}
            for horizon in raw["horizons"]:
                out = tmp_path / f"T{horizon}"
                run_experiment(
                    ExperimentConfig.from_dict(
                        {**raw, "horizons": [horizon], "out": str(out)}
                    )
                )
                alone[horizon] = out
        shared = _csv_files(shared_out)
        _, header, rows = read_csv(shared_out / "aggregate.csv")
        assert header[-1] == "lemma1_violations"
        assert [float(row[-1]) for row in rows] == [h // 3 for h in raw["horizons"]]
        compared = {"aggregate.csv"}
        for (horizon, out), row in zip(alone.items(), rows):
            _, _, alone_rows = read_csv(out / "aggregate.csv")
            assert alone_rows == [row]
            for name, lines in _csv_files(out).items():
                if name != "aggregate.csv":
                    assert _without_hash(shared[name]) == _without_hash(lines), name
                    compared.add(name)
        assert compared == set(shared)
        assert sum(name.startswith("traces") for name in compared) == 2 * 3


class TestWorkIsShared:
    @staticmethod
    def recorded_calls(monkeypatch, raw):
        """(horizon, replications) of each learner call: a call steps a
        block of replications in lockstep, one model per replication.
        Every call is given one sink, which collects the expected values."""
        calls = []
        original = experiment.run

        def recording_run(models, solvers, cfg, horizon, **kwargs):
            assert callable(kwargs["sink"])
            seeds = [model.rng_seed for model in models]
            reps = [streams.mix_seed(raw["seed"], rep) for rep in range(raw["replications"])]
            calls.append((horizon, [reps.index(seed) for seed in seeds]))
            return original(models, solvers, cfg, horizon, **kwargs)

        monkeypatch.setattr(experiment, "run", recording_run)
        run_experiment(ExperimentConfig.from_dict(raw))
        return calls

    def test_dra_runs_each_replication_once(self, monkeypatch, tmp_path):
        raw = dra_dict(out=str(tmp_path))
        assert self.recorded_calls(monkeypatch, raw) == [(200, [0, 1, 2])]

    def test_cra_distinct_grids_run_per_horizon(self, monkeypatch, tmp_path):
        raw = cra_dict(out=str(tmp_path))
        assert self.recorded_calls(monkeypatch, raw) == [(60, [0, 1, 2]), (240, [0, 1, 2])]

    def test_cra_equal_grids_share_runs(self, monkeypatch, tmp_path):
        raw = cra_dict(max_levels=4, out=str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # capped plans warn
            assert self.recorded_calls(monkeypatch, raw) == [(240, [0, 1, 2])]

    def test_blocks_split_replications_per_worker(self, monkeypatch, tmp_path):
        # Two jobs on two CPUs: the five replications form two contiguous
        # blocks, one per worker, each stepped in one learner call.
        class InProcessPool:
            def __init__(self, max_workers):
                assert max_workers == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads, chunksize):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        raw = dra_dict(replications=5, jobs=2, out=str(tmp_path))
        assert self.recorded_calls(monkeypatch, raw) == [(200, [0, 1]), (200, [2, 3, 4])]


class TestAtomicCsv:
    """A write that fails part way leaves no half-written file behind."""

    @staticmethod
    def rows_then_crash():
        yield [1, 0.5]
        yield [2, 0.25]
        raise RuntimeError("interrupted")

    def test_failed_write_leaves_no_target(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(RuntimeError, match="interrupted"):
            _write_csv(path, ("a", "b"), self.rows_then_crash(), {"k": "v"})
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_existing_target(self, tmp_path):
        path = tmp_path / "out.csv"
        _write_csv(path, ("a", "b"), [[1, 0.5]], {"k": "v"})
        before = path.read_bytes()
        assert before == b"# k=v\na,b\n1,0.5\n"
        with pytest.raises(RuntimeError, match="interrupted"):
            _write_csv(path, ("a", "b"), self.rows_then_crash(), {"k": "w"})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def _file_bytes(out):
    """Every file under ``out``, by relative path, as bytes."""
    files = (p for p in out.rglob("*") if p.is_file())
    return {str(p.relative_to(out)): p.read_bytes() for p in files}


class TestStreamedTraces:
    """Trace files are appended chunk by chunk under temporary names, with no
    file held open between appends, and moved into place only when the run
    completes."""

    def test_failed_run_leaves_no_trace_files(self, tmp_path, monkeypatch):
        raw = dra_dict(replications=2, horizons=[1000, 2000], write_traces=True)
        run_experiment(ExperimentConfig.from_dict({**raw, "out": str(tmp_path)}))
        before = _file_bytes(tmp_path / "traces")
        assert len(before) == 4
        # The two lanes transform their rewards in turn, so the call that
        # raises is lane 0's in round 1500: the run's second chunk, after the
        # first has reached every trace file.
        transform = RewardModel.rewards_from_uniforms

        def failing(self, table, levels, u):
            if next(calls) > 2 * 1499:
                raise RuntimeError("interrupted")
            return transform(self, table, levels, u)

        monkeypatch.setattr(RewardModel, "rewards_from_uniforms", failing)
        for out, kept in ((tmp_path / "fresh", {}), (tmp_path, before)):
            calls = count(1)
            config = ExperimentConfig.from_dict({**raw, "seed": 8, "out": str(out)})
            with pytest.raises(RuntimeError, match="interrupted"):
                run_experiment(config)
            # No trace file, no temporary file, and the earlier run's bytes.
            assert _file_bytes(out / "traces") == kept

    def test_no_file_is_held_open_between_chunks(self, tmp_path):
        pytest.importorskip("resource")
        # 20 replications x 3 horizons write 60 trace files, past the 48
        # descriptors the child may hold, over two chunks of rounds.
        raw = dra_dict(replications=20, horizons=[500, 1100, 1500], write_traces=True)
        free, limited = tmp_path / "free", tmp_path / "limited"
        run_experiment(ExperimentConfig.from_dict({**raw, "out": str(free)}))
        code = (
            "import json, resource, sys\n"
            "from banditalloc import ExperimentConfig, run_experiment\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (48, hard))\n"
            "run_experiment(ExperimentConfig.from_dict(json.loads(sys.argv[1])))\n"
        )
        path = [str(Path(experiment.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps({**raw, "out": str(limited)})],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert len(list((limited / "traces").iterdir())) == 60
        assert _file_bytes(limited) == _file_bytes(free)

    @pytest.mark.slow
    def test_trace_files_add_no_peak_memory(self, tmp_path):
        # The rows leave each chunk as it ends, so writing traces holds no
        # (T, K) history: two lanes of 4,096 rounds, four chunks, peak as
        # high as the same run without traces, within 1.8 bytes a
        # lane-round.
        peaks = {}
        for traces in (False, True):
            raw = dra_dict(replications=2, horizons=[4096], write_traces=traces)
            raw["out"] = str(tmp_path / str(traces))
            config = ExperimentConfig.from_dict(raw)
            tracemalloc.start()
            try:
                run_experiment(config)
                peaks[traces] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[True] - peaks[False] < 1.8 * 2 * 4096, peaks


class TestCsvBytes:
    """_write_csv writes the bytes of csv.writer over the same _fmt cells,
    on both sides of the row chunk that _round_rows converts at a time."""

    CELLS = [None, 3, np.int64(-7), 0.1, np.float64(2 / 3), -0.0, 5e-324, 1e16, math.inf]
    ROWS = [0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS + 1]

    @staticmethod
    def reference(header, rows, meta):
        buf = io.StringIO()
        for key, value in meta.items():
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
        return buf.getvalue().encode()

    @pytest.mark.parametrize("n", ROWS)
    def test_rows_match_csv_writer(self, tmp_path, n):
        width = len(self.CELLS)
        header = [f"c{j}" for j in range(width)]
        rows = [[self.CELLS[(t + j) % width] for j in range(width)] for t in range(n)]
        path = tmp_path / "out.csv"
        _write_csv(path, header, rows, {"k": "v"})
        assert path.read_bytes() == self.reference(header, rows, {"k": "v"})

    @pytest.mark.parametrize("n", ROWS)
    def test_round_rows_match_indexed_cells(self, tmp_path, n):
        # Columns as the curve and trace files pass them: float64 arrays and
        # the strided columns of a (T, K) int64 array.
        values = np.array([-0.0, 5e-324, 1e16, np.inf, 0.1, 2 / 3])
        floats = values[np.arange(n) % values.size]
        levels = np.arange(2 * n, dtype=np.int64).reshape(n, 2) - n
        header = ["round", "level_1", "level_2", "value"]
        path = tmp_path / "out.csv"
        _write_csv(path, header, _round_rows(*levels.T, floats), {})
        # The former rows: numpy scalars indexed one round at a time.
        want = ([t + 1, *levels[t], floats[t]] for t in range(n))
        assert path.read_bytes() == self.reference(header, want, {})


class TestCraRuns:
    def test_grid_columns_are_filled(self, cra_run):
        _, out = cra_run
        _, header, rows = read_csv(out / "aggregate.csv")
        assert header == list(AGGREGATE_COLUMNS)
        for row in rows:
            cells = dict(zip(header, row))
            assert float(cells["epsilon"]) > 0
            assert int(cells["N"]) >= 2
            assert cells["theorem2_normalized"] != ""
        # the grid refines as the horizon grows
        eps = [float(dict(zip(header, r))["epsilon"]) for r in rows]
        ns = [int(dict(zip(header, r))["N"]) for r in rows]
        assert eps[1] < eps[0]
        assert ns[1] > ns[0]

    def test_normalized_column_arithmetic(self, cra_run):
        summary, out = cra_run
        _, header, rows = read_csv(out / "aggregate.csv")
        for row in rows:
            cells = dict(zip(header, row))
            horizon = int(cells["horizon"])
            want = float(cells["mean_regret"]) / (
                horizon ** (2 / 3) * np.log(horizon) ** (1 / 3)
            )
            assert float(cells["theorem2_normalized"]) == pytest.approx(want, rel=1e-12)

    def test_rerun_is_byte_identical(self, cra_run, tmp_path):
        _, out = cra_run
        run_experiment(ExperimentConfig.from_dict(cra_dict(out=str(tmp_path))))
        assert (tmp_path / "aggregate.csv").read_bytes() == (
            out / "aggregate.csv"
        ).read_bytes()


class TestOracleCheckMode:
    def test_battery_passes(self, tmp_path):
        raw = {
            "mode": "oracle-check",
            "seed": 5,
            "problem": {"resources": 1, "budget": 1.0, "levels": 2},
            "rewards": {"family": "table", "probs": [[0.5, 0.5]]},
            "replications": 25,
            "out": str(tmp_path),
        }
        summary = run_experiment(ExperimentConfig.from_dict(raw))
        assert summary.ok
        assert any("PASS" in line for line in summary.lines)
        _, header, rows = read_csv(tmp_path / "oracle_check.csv")
        assert header == list(ORACLE_CHECK_COLUMNS)
        assert len(rows) == 25
        assert all(r[6] == "1" for r in rows)  # exact_match column
        ratios = [float(r[8]) for r in rows]
        assert all(0 < ratio <= 1.0 + 1e-12 for ratio in ratios)


class TestBoundsMode:
    def test_default_horizons(self, tmp_path):
        raw = dra_dict(out=str(tmp_path))
        raw["mode"] = "bounds"
        del raw["horizons"]
        summary = run_experiment(ExperimentConfig.from_dict(raw))
        _, header, rows = read_csv(tmp_path / "bounds.csv")
        assert header == list(BOUNDS_COLUMNS)
        assert [r[0] for r in rows] == ["1000", "10000", "100000"]
        deps = [float(r[1]) for r in rows]
        indeps = [float(r[2]) for r in rows]
        assert deps == sorted(deps) and indeps == sorted(indeps)
        assert len(summary.lines) == 3

    def test_flat_instance_leaves_dependent_blank(self, tmp_path):
        raw = dra_dict(out=str(tmp_path))
        raw["mode"] = "bounds"
        raw["rewards"]["probs"] = [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]
        run_experiment(ExperimentConfig.from_dict(raw))
        _, header, rows = read_csv(tmp_path / "bounds.csv")
        for row in rows:
            cells = dict(zip(header, row))
            assert cells["theorem1_dep_bound"] == ""
            assert float(cells["theorem1_indep_bound"]) > 0
            assert cells["delta_min"] == "inf"
            assert float(cells["delta_max"]) == 0.0

    def test_infeasible_enumeration_is_a_config_error(self, tmp_path):
        raw = {
            "mode": "bounds",
            "seed": 0,
            "problem": {"resources": 8, "budget": 10.0, "levels": 11},
            "rewards": {"family": "table", "probs": [[0.5] * 11] * 8},
            "out": str(tmp_path),
        }
        with pytest.raises(ConfigurationError, match="mode bounds"):
            run_experiment(ExperimentConfig.from_dict(raw))


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_run_succeeds(self, tmp_path, capsys):
        out = tmp_path / "results"
        path = self.write_config(tmp_path, dra_dict(horizons=[40], out=str(out)))
        assert cli_main(["run", "--config", path]) == 0
        captured = capsys.readouterr()
        assert "mean regret" in captured.out
        assert (out / "aggregate.csv").exists()

    def test_run_overrides(self, tmp_path):
        base_out = tmp_path / "a"
        path = self.write_config(
            tmp_path, dra_dict(horizons=[40], replications=2, out=str(base_out))
        )
        assert cli_main(["run", "--config", path]) == 0

        other = tmp_path / "b"
        assert cli_main(["run", "--config", path, "--out", str(other), "--jobs", "2"]) == 0
        assert (other / "aggregate.csv").read_bytes() == (
            base_out / "aggregate.csv"
        ).read_bytes()

        reseeded = tmp_path / "c"
        assert (
            cli_main(
                ["run", "--config", path, "--out", str(reseeded), "--seed", "99"]
            )
            == 0
        )
        assert (reseeded / "aggregate.csv").read_bytes() != (
            base_out / "aggregate.csv"
        ).read_bytes()

    def test_bad_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"mode": "dra",}')
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_field_exits_1(self, tmp_path, capsys):
        path = self.write_config(tmp_path, dra_dict(seed=-3))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_runtime_failure_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        raw = dra_dict(horizons=[40], out=str(blocker / "sub"))
        path = self.write_config(tmp_path, raw)
        assert cli_main(["run", "--config", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_oracle_check_without_config(self, tmp_path, capsys):
        out = tmp_path / "check"
        code = cli_main(
            ["oracle-check", "--instances", "10", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert "PASS on 10 instances" in capsys.readouterr().out
        _, _, rows = read_csv(out / "oracle_check.csv")
        assert len(rows) == 10

    def test_subcommand_overrides_config_mode(self, tmp_path):
        # a dra config fed to the bounds subcommand runs the bounds mode
        out = tmp_path / "bounds"
        path = self.write_config(tmp_path, dra_dict(out=str(out)))
        assert cli_main(["bounds", "--config", path]) == 0
        assert (out / "bounds.csv").exists()
        assert not (out / "aggregate.csv").exists()

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["run", "--seed", "-1"], "seed"),
            (["run", "--seed", "18446744073709551616"], "seed"),
            (["run", "--jobs", "0"], "jobs"),
            (["oracle-check", "--seed", "-5"], "seed"),
            (["oracle-check", "--instances", "0"], "replications"),
        ],
        ids=["run-seed", "run-seed-too-big", "run-jobs", "check-seed", "check-instances"],
    )
    def test_overrides_are_validated_like_fields(self, tmp_path, capsys, argv, field):
        # a flag is checked by the rule of the config field it sets
        out = tmp_path / "results"
        if argv[0] == "run":
            argv = argv + ["--config", self.write_config(tmp_path, dra_dict())]
        assert cli_main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not out.exists()

    def test_cra_horizon_one_is_a_config_error(self, tmp_path, capsys):
        # rejected at parse, before the reference DP runs or out/ is made
        out = tmp_path / "results"
        path = self.write_config(tmp_path, cra_dict(horizons=[1, 50], out=str(out)))
        assert cli_main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "horizons" in err
        assert not out.exists()

    def test_mode_forcing_revalidates(self, tmp_path, capsys):
        # cra configs carry no levels, which the bounds mode requires
        path = self.write_config(tmp_path, cra_dict())
        assert cli_main(["bounds", "--config", path]) == 1
        assert "levels" in capsys.readouterr().err
