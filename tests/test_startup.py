"""Start-up cost: importing banditalloc starts no BLAS thread, a run that
starts no workers never loads the process pool, no run loads numpy.random
or OpenSSL, no source file makes the BLAS call that would make the
one-thread pin cost something, and none imports hashlib."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "banditalloc"


def fresh_python(code, **env_over):
    """Run ``code`` in a new interpreter that imports banditalloc from this
    checkout, with OPENBLAS_NUM_THREADS unset unless given; returns stdout."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(env_over)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


IMPORT_STATE = """
import json, os, sys
import banditalloc
status = "/proc/self/status"
threads = None
if sys.platform.startswith("linux") and os.path.exists(status):
    with open(status) as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
print(json.dumps({"blas": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": threads}))
"""


def test_import_pins_blas_to_one_thread():
    state = json.loads(fresh_python(IMPORT_STATE))
    assert state["blas"] == "1"
    if state["threads"] is None:
        pytest.skip("no /proc/self/status to count threads")
    assert state["threads"] == 1


def test_import_keeps_a_preset_blas_thread_count():
    state = json.loads(fresh_python(IMPORT_STATE, OPENBLAS_NUM_THREADS="3"))
    assert state["blas"] == "3"


def test_single_job_run_never_loads_the_process_pool(tmp_path):
    config = tmp_path / "dra.json"
    config.write_text(
        json.dumps(
            {
                "mode": "dra",
                "seed": 7,
                "problem": {"resources": 2, "budget": 2.0, "levels": 3},
                "rewards": {
                    "family": "table",
                    "probs": [[0.1, 0.5, 0.6], [0.05, 0.3, 0.9]],
                },
                "horizons": [50, 200],
                "replications": 3,
            }
        )
    )
    code = (
        "import sys\n"
        "from banditalloc.cli import main\n"
        f"argv = ['run', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r},"
        " '--jobs', '1']\n"
        "code = main(argv)\n"
        "print(code, 'concurrent.futures' in sys.modules)\n"
    )
    assert fresh_python(code).splitlines()[-1] == "0 False"
    assert (tmp_path / "out" / "aggregate.csv").exists()


# Modules no run loads: the noise comes from streams' own Philox kernel, so
# no run pays for numpy.random's extension modules, and seeds and config
# hashes come from _digest, so none loads OpenSSL's libcrypto.
UNLOADED = ("numpy.random", "hashlib", "_hashlib")


def test_runs_never_load_numpy_random(tmp_path):
    # Checked after the import, after dra runs with one worker and with a
    # process pool, and after a cra run.
    configs = {
        "dra": {
            "mode": "dra",
            "seed": 7,
            "problem": {"resources": 2, "budget": 2.0, "levels": 3},
            "rewards": {"family": "table", "probs": [[0.1, 0.5, 0.6], [0.05, 0.3, 0.9]]},
            "oracle": {"kind": "greedy", "beta": 0.8},
            "horizons": [50, 200],
            "replications": 2,
        },
        "cra": {
            "mode": "cra",
            "seed": 7,
            "problem": {"resources": 2, "budget": 1.0},
            "rewards": {
                "family": "concave_exp",
                "success_probs": [0.9, 0.7],
                "thetas": [0.8, 0.5],
            },
            "horizons": [50, 200],
            "replications": 2,
            "reference_refinement": 64,
        },
    }
    runs = [("dra", 1), ("dra", 2), ("cra", 1)]
    for mode, raw in configs.items():
        (tmp_path / f"{mode}.json").write_text(json.dumps(raw))
    argvs = [
        ["run", "--config", str(tmp_path / f"{mode}.json"),
         "--out", str(tmp_path / f"{mode}-{jobs}"), "--jobs", str(jobs)]
        for mode, jobs in runs
    ]
    code = (
        "import sys\n"
        f"unloaded = {UNLOADED!r}\n"
        "import banditalloc\n"
        "print('loaded', [m for m in unloaded if m in sys.modules])\n"
        "from banditalloc.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    code = main(argv)\n"
        "    print('loaded', code, [m for m in unloaded if m in sys.modules])\n"
    )
    loaded = [line for line in fresh_python(code).splitlines() if line.startswith("loaded")]
    assert loaded == ["loaded []"] + ["loaded 0 []"] * len(runs)
    for mode, jobs in runs:
        assert (tmp_path / f"{mode}-{jobs}" / "aggregate.csv").exists()


# Calls that numpy hands to BLAS: the @ operator, these functions and
# methods, and anything under numpy.linalg.
BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg"}


def blas_uses(source):
    """(line, what) for each BLAS-backed call or import in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "numpy"
        ):
            parts = set(node.module.split(".")) | {alias.name for alias in node.names}
            found += [(node.lineno, name) for name in sorted(parts & BLAS_NAMES)]
        elif isinstance(node, ast.Import):
            found += [
                (node.lineno, alias.name)
                for alias in node.names
                if "linalg" in alias.name.split(".")
            ]
    return found


def test_blas_check_catches_each_form():
    samples = [
        "c = a @ b",
        "a @= b",
        "c = np.dot(a, b)",
        "c = a.dot(b)",
        "c = np.matmul(a, b)",
        "c = np.einsum('ij,jk', a, b)",
        "c = np.tensordot(a, b)",
        "c = np.inner(a, b)",
        "c = np.vdot(a, b)",
        "c = np.linalg.norm(a)",
        "from numpy import inner",
        "from numpy.linalg import norm",
        "import numpy.linalg",
    ]
    for sample in samples:
        assert blas_uses(sample), sample
    assert blas_uses("c = np.cumsum(a * b) + a.sum()") == []


def test_no_source_file_calls_blas():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {
        path.name: uses
        for path in sources
        if (uses := blas_uses(path.read_text()))
    }
    assert found == {}


def hashlib_imports(source):
    """Lines of ``source`` that import hashlib or anything under it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in ("hashlib", "_hashlib") for name in names):
            found.append(node.lineno)
    return found


def test_hashlib_check_catches_each_form():
    samples = [
        "import hashlib",
        "import os, hashlib as h",
        "from hashlib import sha256",
        "import _hashlib",
        "def f():\n    import hashlib",
    ]
    for sample in samples:
        assert hashlib_imports(sample), sample
    assert hashlib_imports("import numpy\nfrom ._digest import sha256_hex") == []


def test_no_source_file_imports_hashlib():
    # Importing hashlib loads OpenSSL's libcrypto (~3.6 MB resident); even a
    # lazy import would, since every run hashes its seeds and config.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {
        path.name: lines
        for path in sources
        if (lines := hashlib_imports(path.read_text()))
    }
    assert found == {}
