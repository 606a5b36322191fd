import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv, cwd):
    env = dict(os.environ, TREEWILF_WORKERS="abc")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


@pytest.mark.parametrize("name, argv", [
    ("stabilization.py", ["-n", "2"]),
    ("lower_bounds_sweep.py", ["--from", "2", "--until", "2", "--modes", "av"]),
])
def test_bad_workers_environment(name, argv, tmp_path):
    assert run_script(name, "--help", cwd=tmp_path).returncode == 0
    out = run_script(name, *argv, cwd=tmp_path)
    assert out.returncode == 1
    assert out.stderr == "error: TREEWILF_WORKERS must be an integer, got 'abc'\n"
