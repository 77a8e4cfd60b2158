"""The benchmark workloads still write the bytes recorded for them.

bench/digests.json holds the sha256 of every output file of each
bench/workloads/*.json config, per seed and per Python/numpy build (output
bytes are identical only within one build). This runs each workload through
``cli.main`` at seed 0, with the workload's own ``jobs``, and compares every
output file with the record. Only reads bench/.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from banditalloc import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = sorted((BENCH / "workloads").glob("*.json"))
# The key under which bench/run.py records digests for this build.
ENV_KEY = f"python {platform.python_version()} numpy {np.__version__}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_workloads_are_found():
    assert WORKLOADS, "bench/workloads holds no config"


@pytest.mark.parametrize("config", WORKLOADS, ids=[path.stem for path in WORKLOADS])
def test_seed_0_matches_the_recorded_digests(config, tmp_path):
    recorded = json.loads((BENCH / "digests.json").read_text())
    entry = recorded.get(ENV_KEY, {}).get(config.stem)
    if entry is None:
        pytest.skip(f"no digests recorded for {config.stem} on {ENV_KEY}")
    if entry["config_sha256"] != sha256(config.read_bytes()):
        pytest.skip(f"{config.name} changed since its digests were recorded")
    jobs = json.loads(config.read_text())["jobs"]
    argv = ["run", "--config", str(config), "--out", str(tmp_path)]
    argv += ["--seed", "0", "--jobs", str(jobs)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    written = {
        str(path.relative_to(tmp_path)): sha256(path.read_bytes())
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert written == entry["seeds"]["0"]
