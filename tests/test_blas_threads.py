"""The BLAS thread policy: importing etfspectra before numpy runs OpenBLAS on
one thread unless the environment sets a count, so seeded exports do not
depend on the machine's core count."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
PROBE = "import etfspectra, os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"


def _env(**thread_vars):
    """This process's environment without any BLAS thread count, plus
    ``thread_vars``; src/ and perfbench/ (for its OpenBLAS probe) on the path."""
    env = {key: val for key, val in os.environ.items() if key not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                                                      env.get("PYTHONPATH")]))
    env.update(thread_vars)
    return env


def _python(code, **thread_vars):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(**thread_vars), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("thread_vars, want", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
    ({"GOTO_NUM_THREADS": "2"}, "None"),
    ({"OMP_NUM_THREADS": "2"}, "None"),
])
def test_policy_yields_to_a_count_the_caller_set(thread_vars, want):
    assert _python(PROBE, **thread_vars) == want


def test_policy_leaves_a_process_that_loaded_numpy_first_alone():
    assert _python("import numpy; " + PROBE) == "None"


def test_clean_environment_runs_every_openblas_on_one_thread():
    counts = _python("import etfspectra, scipy.linalg; from child import _openblas_threads; "
                     "print(sorted(set(_openblas_threads().values())))")
    if counts == "[]":
        pytest.skip("no OpenBLAS library is loaded")
    assert counts == "[1]"


def test_ensemble_export_does_not_depend_on_the_machine_thread_count(tmp_path):
    exports = []
    for thread_vars in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        cwd = tmp_path / str(len(exports))  # one --out for both: the header hashes it
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-m", "etfspectra.cli", "harness", "test1",
                               "--family", "manova_ensemble", "--sizes", "103,211,431",
                               "--trials", "10", "--seed", "0", "--out", "test1.csv"],
                              capture_output=True, text=True, env=_env(**thread_vars),
                              cwd=cwd, timeout=300)
        assert proc.returncode == 0, proc.stderr
        exports.append((cwd / "test1.csv").read_bytes())
    assert exports[0] == exports[1]
