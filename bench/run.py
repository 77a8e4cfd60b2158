#!/usr/bin/env python3
"""Benchmark for banditalloc: the ``banditalloc run`` CLI on frozen workloads.

Run from the repository root:

    python3 bench/run.py --workload dra-table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload cra-smooth --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke
    python3 bench/run.py --record-digests 32

``--trace 0`` spawns the CLI as a child process, one invocation after the
other (a closed loop with one client) until ``--seconds`` have passed, and
prints the end-to-end metrics as medians over those invocations. ``--trace 1``
runs the same config in this process at jobs=1, alternating untraced and
traced runs, and prints the per-layer metrics. Either way the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. bench/README.md explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_DIR = BENCH / "workloads"
DIGESTS = BENCH / "digests.json"
WORKLOADS = ("dra-table", "cra-smooth", "dra-greedy-coin")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

CLI_TIMEOUT_S = 60.0
# Stop starting new work this long after the benchmark began, whatever
# --seconds says, so a slowed program still ends well inside three minutes.
HARD_STOP_S = 130.0
MIN_INVOCATIONS = 3
MIN_TRACED_PAIRS = 2

SETUP_CODE = (
    "import sys, banditalloc\n"
    "if not banditalloc.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit(f'banditalloc imported from {banditalloc.__file__}')\n"
    "banditalloc.ExperimentConfig.from_file(sys.argv[2])\n"
)

SMOKE_OVERRIDES = {"horizons": [20, 60], "replications": 2, "reference_refinement": 64}


@dataclass
class Invocation:
    """One CLI run: outcome, resource use and the digest of what it wrote."""

    ok: bool
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    digests: dict = field(default_factory=dict)
    error: str = ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def digest_tree(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under out_dir, keyed by relative path."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def bytes_tree(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


@contextlib.contextmanager
def scratch(name: str):
    """A fresh directory under .bench_work in the checkout, removed afterwards."""
    base = ROOT / ".bench_work"
    path = base / f"{os.getpid()}-{name}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def run_cli(config: Path, out_dir: Path, seed: int, jobs: int, log: Path) -> Invocation:
    """Spawn ``banditalloc run`` and wait for it with wait4.

    wait4 on this child reports its own CPU time plus that of the pool
    workers it reaped, and the largest resident set of any of them; reading
    RUSAGE_CHILDREN instead would carry the high-water mark of every earlier
    child of this process.
    """
    cmd = [sys.executable, "-m", "banditalloc.cli", "run", "--config", str(config)]
    cmd += ["--out", str(out_dir), "--seed", str(seed), "--jobs", str(jobs)]
    timed_out = threading.Event()

    def kill(pid: int) -> None:
        timed_out.set()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pid, signal.SIGKILL)

    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(CLI_TIMEOUT_S, kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(
        ok=proc.returncode == 0 and not timed_out.is_set(),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )
    if timed_out.is_set():
        inv.error = f"timed out after {CLI_TIMEOUT_S:.0f} s"
    elif proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        inv.error = f"exit {proc.returncode}: {' '.join(tail)}"
    if out_dir.is_dir():
        inv.digests = digest_tree(out_dir)
        shutil.rmtree(out_dir)
    return inv


def time_setup(config: Path) -> tuple[bool, float]:
    """Start an interpreter, import banditalloc, parse the config, exit."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=CLI_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def run_in_process(config: Path, out_dir: Path, seed: int, tracer=None):
    """``banditalloc.cli.main`` in this process at jobs=1, traced if a tracer
    is given. Returns (ok, wall seconds, digests, bytes written)."""
    from banditalloc import cli

    argv = ["run", "--config", str(config), "--out", str(out_dir)]
    argv += ["--seed", str(seed), "--jobs", "1"]
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        if tracer is not None:
            stack.enter_context(tracing.instrument(tracer))
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    digests = digest_tree(out_dir) if out_dir.is_dir() else {}
    size = bytes_tree(out_dir) if out_dir.is_dir() else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    return code == 0, wall, digests, size


def env_key() -> str:
    return f"python {platform.python_version()} numpy {np.__version__}"


def file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def recorded_digests(workload: str, config: Path, seed: int) -> dict | None:
    """Digests recorded for this workload, seed and Python/numpy build, or
    None when there are none (or the config changed since they were made)."""
    if not DIGESTS.is_file():
        return None
    entry = json.loads(DIGESTS.read_text()).get(env_key(), {}).get(workload)
    if not entry or entry["config_sha256"] != file_sha(config):
        return None
    return entry["seeds"].get(str(seed))


def source_sha() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "banditalloc").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def reference_run(
    config: Path, seed: int, work: Path, recorded: dict | None, tally: Tally
) -> tuple[int, dict]:
    """One untimed CLI run at the workload's jobs. It compiles bytecode and
    fills the page cache, which users pay once, not on every run. Returns the
    jobs and the digests every later run must reproduce: the recorded ones,
    or else this run's own."""
    jobs = json.loads(config.read_text())["jobs"]
    ref = run_cli(config, work / "ref", seed, jobs, work / "stderr.txt")
    expected = recorded if recorded is not None else ref.digests
    ok = ref.ok and ref.digests == expected
    tally.count(ok, f"reference run: {ref.error or 'digest'}")
    return jobs, expected


def measure_end_to_end(
    config: Path, seed: int, seconds: float, work: Path, recorded: dict | None
) -> tuple[Tally, dict, dict]:
    """CLI invocations in a closed loop, each followed by one set-up run;
    medians of wall, CPU, RSS and set-up time."""
    began = time.perf_counter()
    tally = Tally()
    jobs, expected = reference_run(config, seed, work, recorded, tally)

    runs: list[Invocation] = []
    setups: list[float] = []
    start = time.perf_counter()
    while len(runs) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        if runs and time.perf_counter() - began > HARD_STOP_S:
            break
        inv = run_cli(config, work / f"out{len(runs)}", seed, jobs, work / "stderr.txt")
        ok = inv.ok and inv.digests == expected
        tally.count(ok, f"run {len(runs)}: {inv.error or 'digest'}")
        runs.append(inv)
        ok, wall = time_setup(config)
        tally.count(ok, "set-up run failed")
        setups.append(wall)

    if recorded is None:
        # No recorded bytes for this seed: the in-process traced run must
        # write exactly what the CLI wrote.
        check = work / "check"
        ok, _, digests, _ = run_in_process(config, check, seed, tracing.Tracer())
        tally.count(ok and digests == expected, "traced in-process output differs")

    good = [r for r in runs if r.ok] or runs
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in good),
        "cpu_s": statistics.median(r.cpu_s for r in good),
        "peak_rss_mb": statistics.median(r.rss_mb for r in good),
        "setup_s": statistics.median(setups),
    }
    walls = sorted(r.wall_s for r in good)
    detail = {
        "jobs": jobs,
        "invocations": len(runs),
        "wall_s_min": walls[0],
        "wall_s_max": walls[-1],
        "setup_runs": len(setups),
    }
    return tally, metrics, detail


def measure_layers(
    config: Path, seed: int, seconds: float, work: Path, recorded: dict | None
) -> tuple[Tally, dict, dict]:
    """Untraced and traced in-process runs, alternating; per-layer medians."""
    began = time.perf_counter()
    tally = Tally()
    jobs, expected = reference_run(config, seed, work, recorded, tally)

    # One untimed in-process run so first-call costs land outside the pairs.
    ok, _, digests, _ = run_in_process(config, work / "warm", seed)
    tally.count(ok and digests == expected, "in-process warm-up output differs")

    untraced, traced, layer_runs = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        if traced and time.perf_counter() - began > HARD_STOP_S:
            break
        # Alternate which side goes first so drift in machine load hits both.
        for traced_side in (False, True) if len(traced) % 2 == 0 else (True, False):
            tracer = tracing.Tracer() if traced_side else None
            pair = work / "pair"
            ok, wall, digests, size = run_in_process(config, pair, seed, tracer)
            tally.count(ok and digests == expected, "in-process output differs")
            if traced_side:
                traced.append(wall)
                layer_runs.append(tracing.layer_metrics(tracer, size))
                last = tracer
            else:
                untraced.append(wall)

    for name in tracing.EXACT_COUNTERS:
        seen = {run[name] for run in layer_runs}
        if len(seen) != 1:
            tally.problems.append(f"counter {name} varied across runs: {sorted(seen)}")
    metrics = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        counted = tracing.LAYER_UNITS[name] in ("count", "bytes")
        median = statistics.median_low if counted else statistics.median
        metrics[name] = median(values)
    # Each pair ran back to back, so its ratio cancels most machine-speed drift.
    ratios = [t / u for t, u in zip(traced, untraced)]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    for line in tracing.span_report(last):
        print(line)
    detail = {
        "jobs": 1,
        "cli_jobs": jobs,
        "traced_runs": len(traced),
        "untraced_runs": len(untraced),
    }
    return tally, metrics, detail


def run_workload(
    workload: str,
    config: Path,
    seed: int,
    seconds: float,
    trace: bool,
    recorded: dict | None,
) -> dict:
    """Measure one workload and return its result object."""
    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    measure = measure_layers if trace else measure_end_to_end
    with scratch(f"{workload}-{int(trace)}") as work:
        tally, metrics, detail = measure(config, seed, seconds, work, recorded)
    units = tracing.LAYER_UNITS if trace else END_TO_END_UNITS
    load_after = os.getloadavg()
    stamp = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "git_sha": git_sha(),
        "source_sha256": source_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "loaded": max(load_before[0], load_after[0]) > nproc,
        "digests": "recorded" if recorded is not None else "cross-checked",
        **detail,
    }
    print("stamp " + json.dumps(stamp))
    if stamp["loaded"]:
        print(f"warning: load average exceeded nproc={nproc}; figures are contended")
    for problem in tally.problems:
        print(f"problem: {problem}")
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def smoke() -> int:
    """Every workload once at tiny horizons, untraced and traced."""
    all_ok = True
    with scratch("smoke") as work_root:
        for workload in WORKLOADS:
            raw = json.loads((WORKLOAD_DIR / f"{workload}.json").read_text())
            raw.update(SMOKE_OVERRIDES)
            config = work_root / f"{workload}.json"
            config.write_text(json.dumps(raw))
            for trace in (False, True):
                result = run_workload(workload, config, 1, 0.0, trace, None)
                all_ok = all_ok and result["correct"]
                print(json.dumps(result))
    return 0 if all_ok else 1


def record_digests(count: int) -> int:
    """Record the output digests of seeds 0..count-1 for every workload."""
    book = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    here = book.setdefault(env_key(), {})
    with scratch("record") as work:
        for workload in WORKLOADS:
            config = WORKLOAD_DIR / f"{workload}.json"
            jobs = json.loads(config.read_text())["jobs"]
            seeds = {}
            for seed in range(count):
                inv = run_cli(config, work / "out", seed, jobs, work / "stderr.txt")
                if not inv.ok:
                    print(f"{workload} seed {seed}: {inv.error}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = inv.digests
                print(f"{workload} seed {seed}: {inv.wall_s:.2f} s", flush=True)
            here[workload] = {"config_sha256": file_sha(config), "seeds": seeds}
    DIGESTS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="every workload once at tiny horizons"
    )
    parser.add_argument(
        "--record-digests",
        type=int,
        metavar="N",
        help="record the output digests of seeds 0..N-1",
    )
    args = parser.parse_args(argv)

    if not (SRC / "banditalloc" / "__init__.py").is_file():
        print(f"error: no banditalloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.record_digests is not None:
        return record_digests(args.record_digests)
    if args.workload is None:
        parser.error("--workload is required")
    config = WORKLOAD_DIR / f"{args.workload}.json"
    result = run_workload(
        args.workload,
        config,
        args.seed,
        args.seconds,
        bool(args.trace),
        recorded_digests(args.workload, config, args.seed),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
