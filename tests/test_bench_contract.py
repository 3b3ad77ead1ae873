"""The traced benchmark runs record calls on every layer they must exercise.

perfbench/run.py refuses a traced run when its worker dies (for instance
because the span tracer can no longer bind a renamed function) or when a
layer that its EXPECTED table lists for the workload records no calls.
This runs the worker of each computational workload once under the
tracer, as run.py does, and checks that contract. It reads perfbench and
changes nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _expected_layers(workload: str) -> list:
    """The layer stems run.py requires calls on for workload."""
    code = ("import json, run; print(json.dumps(sorted("
            f"s for s, ws in run.EXPECTED.items() if {workload!r} in ws)))")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=ENV,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("workload", ["bell-deep", "verify-all"])
def test_traced_worker_exercises_every_expected_layer(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--mode", "trace"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    result = json.loads(lines[-1])
    assert result["errors"] == {}
    calls = result["layers"]["calls"]
    expected = _expected_layers(workload)
    assert expected
    assert [stem for stem in expected if not calls[stem]] == []
