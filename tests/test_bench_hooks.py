"""The benchmark's traced run keeps seeing the harness.

bench/tracing.py times each layer by swapping names in the modules that use
them (``banditalloc.experiment``'s ``plan_discretization``,
``compute_continuous_reference`` and the rest). It raises KeyError when a
name it swaps is gone, and it silently sees nothing when the harness reaches
a layer some other way. This runs small cra and dra configs through
``cli.main`` inside ``tracing.instrument`` and checks the runs, their bytes
and their spans. Only reads bench/.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from banditalloc import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

HORIZONS = [20, 60]
DRA_REPLICATIONS = 3
DRA_CONFIG = {
    "mode": "dra",
    "seed": 3,
    "problem": {"resources": 2, "budget": 2.0, "levels": 3},
    "rewards": {"family": "table", "probs": [[0.1, 0.5, 0.6], [0.05, 0.3, 0.9]]},
    "horizons": HORIZONS,
    "replications": DRA_REPLICATIONS,
    "write_traces": True,
}
CONFIG = {
    "mode": "cra",
    "seed": 3,
    "problem": {"resources": 2, "budget": 1.0},
    "rewards": {
        "family": "concave_exp",
        "success_probs": [0.9, 0.7],
        "thetas": [0.8, 0.5],
    },
    "horizons": HORIZONS,
    "replications": 2,
    "reference_refinement": 64,
    "write_traces": True,
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", BENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(config: Path, out: Path) -> tuple[int, dict[str, bytes]]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", str(config), "--out", str(out)])
    files = {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    return code, files


def test_traced_cra_run_matches_and_sees_each_layer_once(tmp_path):
    tracing = _load_tracing()
    config = tmp_path / "cra.json"
    config.write_text(json.dumps(CONFIG))

    code, plain = _run(config, tmp_path / "plain")
    assert code == 0

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        code, traced = _run(config, tmp_path / "traced")
    assert code == 0
    assert traced == plain

    assert tracer.names.count("analysis.reference") == 1
    assert tracer.names.count("continuous.plan") == len(HORIZONS)


def test_traced_dra_run_runs_each_replication_once(tmp_path):
    # dra plays one instance at every horizon, so each replication runs
    # once, to the longest horizon, and the shorter one reads its prefix.
    # At one job the replications form one block: a single learner call
    # steps them in lockstep, and each plays one reward call per round.
    tracing = _load_tracing()
    config = tmp_path / "dra.json"
    config.write_text(json.dumps(DRA_CONFIG))

    code, plain = _run(config, tmp_path / "plain")
    assert code == 0

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        code, traced = _run(config, tmp_path / "traced")
    assert code == 0
    assert traced == plain

    assert tracer.names.count("learner.run") == 1
    assert tracer.rounds == max(HORIZONS)
    rewards_calls = tracer.names.count("environment.rewards")
    assert rewards_calls == DRA_REPLICATIONS * max(HORIZONS)
