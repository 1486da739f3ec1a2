"""Smoke test: every experiment script runs to completion on tiny inputs."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

ARGS = {
    "accuracy_table.py": ["--sizes", "103", "--betas", "0.8", "--trials", "3"],
    "frame_gallery.py": [],
    "rd_curves.py": ["--db", "0:10:5"],  # 0 dB is the unit-SDR edge of rate_sc
}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *ARGS[script]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
