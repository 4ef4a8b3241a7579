"""Each demo script runs to completion against the package's public API."""

import subprocess
import sys

import pytest

from test_cli import REPO_ROOT, child_env

DEMOS = ["residual_certificates", "solvability_check", "solve_and_tabulate",
         "validate_by_simulation"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    script = REPO_ROOT / "demos" / (name + ".py")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []
