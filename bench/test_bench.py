"""The benchmark's own test: smoke mode prints every metric BENCHMARK.json
names, with its unit, and the benchmark refuses to run without the sources.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_prints_every_metric_with_its_unit():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    stamps = [
        json.loads(line.removeprefix("stamp "))
        for line in done.stdout.splitlines()
        if line.startswith("stamp ")
    ]
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert [(s["workload"], s["trace"]) for s in stamps] == [
        (w, t) for w in workloads for t in (0, 1)
    ]
    want = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    results = _results(done.stdout)
    assert len(results) == len(stamps)
    for stamp, result in zip(stamps, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want[stamp["trace"]]
        values = [m["value"] for m in result["metrics"].values()]
        assert all(isinstance(v, (int, float)) for v in values)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    workload = SPEC["workloads"][0]["name"]
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert done.returncode != 0
    assert _results(done.stdout) == []
