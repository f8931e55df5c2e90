"""The benchmark's correctness gate, run on each workload it declares.

A traced run checks every round's outputs and that every span its workload
expects was recorded, so a refactor that drops or renames a function the
benchmark wraps fails here.  Each run works in a copy of ``src/``,
``bench/`` and ``data/``, so the checkout's ``bench/out/`` is untouched.
"""
import json
import shutil
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

WORKLOADS = [w["name"] for w in
             json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_seed_one_run_is_correct(tmp_path, workload):
    for name in ("src", "bench", "data"):
        shutil.copytree(REPO_ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stderr[-2000:]
