"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("linear_tracking.py", ["--runs", "2", "--steps", "30", "--kmax", "3"]),
    ("range_tracking.py", ["--steps", "20", "--kmax", "3", "--imax", "2"]),
    ("vessel_csv_demo.py", ["--csv", "{tmp}/v.csv", "--steps", "30"]),
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
