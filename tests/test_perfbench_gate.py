"""The benchmark's trace gate, as a test.

One traced pass of each workload of ``perfbench/one_pass.py`` must pass every
operation and fire every counter that ``perfbench/run.py`` lists in
``MUST_FIRE`` for it.  A counter reads zero when a change routes the work
around a traced entry point, which the benchmark would only report later.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_run():
    """Import perfbench/run.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


run = _load_run()


@pytest.mark.parametrize("workload", sorted(run.MUST_FIRE))
def test_traced_pass_fires_every_required_counter(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, str(PERFBENCH / "one_pass.py"), "--workload", workload, "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    failed = [name for name, ok in result["ops"] if not ok]
    assert result["ops"] and not failed, failed
    silent = [name for name in run.MUST_FIRE[workload] if not result["trace"].get(name)]
    assert not silent, f"counters reading zero on {workload}: {silent}"
