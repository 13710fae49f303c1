"""A gz process loads OpenBLAS on one thread unless its caller chose a count.

Each test runs a child interpreter whose environment has neither
``OPENBLAS_NUM_THREADS`` nor ``OMP_NUM_THREADS`` unless the test sets it,
because OpenBLAS reads its thread count once, when numpy loads it.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import gztower
from gztower.tower import tower_to_json

from conftest import theta_tower

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SRC = str(pathlib.Path(gztower.__file__).resolve().parent.parent)

# Imports gztower as a gz process does, then prints the thread variables and
# the thread count of the OpenBLAS that numpy loaded, or null where the
# wheel's bundled library is not found.
PROBE = """
import ctypes, glob, json, os
import gztower.cli
import numpy
site = os.path.dirname(os.path.dirname(numpy.__file__))
paths = sorted(glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas64_*.so")))
threads = None
if paths:
    count = ctypes.CDLL(paths[0]).scipy_openblas_get_num_threads64_
    count.argtypes, count.restype = [], ctypes.c_int
    threads = count()
print(json.dumps({
    "environ": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    "threads": threads,
}))
"""


def child_env(**extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in (*THREAD_VARIABLES, "GZ_SEED")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def probe(**extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=child_env(**extra),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_gz_process_runs_on_one_thread():
    seen = probe()
    assert seen["environ"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}
    if seen["threads"] is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    assert seen["threads"] == 1


@pytest.mark.parametrize("variable", THREAD_VARIABLES)
def test_explicit_thread_count_is_left_as_set(variable):
    seen = probe(**{variable: "2"})
    expected = {name: None for name in THREAD_VARIABLES}
    expected[variable] = "2"
    assert seen["environ"] == expected


def test_numpy_imported_first_leaves_environ_untouched():
    script = (
        "import json, os\n"
        "import numpy\n"
        "before = dict(os.environ)\n"
        "import gztower.cli\n"
        "print(json.dumps(dict(os.environ) == before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) is True


def test_check_report_does_not_depend_on_the_unset_thread_count(tmp_path):
    # random_theta_tower(16, 201, 0.3) is the check-d16 input of seed 201.  On
    # two or more cores, OpenBLAS's default thread count rounds its sreg
    # diagnostics differently from one thread.
    tower = tmp_path / "t.json"
    tower.write_text(tower_to_json(theta_tower(16, 201, 0.3)), encoding="utf-8")
    reports = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        report = tmp_path / f"r{len(reports)}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "gztower.cli", "check", str(tower), "-o", str(report)],
            env=child_env(**extra),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
