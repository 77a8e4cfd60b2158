"""
The experiment harness and its files
====================================

Configs are plain JSON; outputs are plain CSV. Two runs of the same config
produce byte-identical files, whatever the worker count — diffing output
directories is a meaningful operation.

The same runs from a shell:

    banditalloc run --config demo_config.json --out results/ --jobs 4
    banditalloc oracle-check
    banditalloc bounds --config demo_config.json --out results/
"""

import hashlib
import json
import tempfile
from pathlib import Path

from banditalloc import ExperimentConfig, run_experiment

config = {
    "mode": "dra",
    "seed": 2024,
    "problem": {"resources": 2, "budget": 2.0, "levels": 3},
    "rewards": {"family": "table", "probs": [[0.1, 0.5, 0.6], [0.05, 0.3, 0.9]]},
    "horizons": [200, 800],
    "replications": 5,
}


def tree_digest(folder: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(folder.rglob("*.csv")):
        h.update(p.relative_to(folder).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


# Both runs write under one temporary directory, removed when the demo ends.
with tempfile.TemporaryDirectory(prefix="banditalloc_demo_") as tmp:
    root = Path(tmp)
    summary = run_experiment(
        ExperimentConfig.from_dict({**config, "out": str(root / "a")})
    )
    print("files written:")
    for path in summary.files:
        print("  ", path)

    # aggregate.csv: one row per horizon, config identity in '#' header lines.
    print("\naggregate.csv:")
    print((root / "a" / "aggregate.csv").read_text(), end="")

    # -----------------------------------------------------------------------
    # Determinism, the blunt way: run it again elsewhere and hash everything.
    run_experiment(ExperimentConfig.from_dict({**config, "out": str(root / "b")}))

    print("\nrun a:", tree_digest(root / "a"))
    print("run b:", tree_digest(root / "b"))

# A quick look at a regret curve without any plotting dependency:
#   python3 -c "import pandas; print(pandas.read_csv('curve_T800.csv', comment='#'))"
