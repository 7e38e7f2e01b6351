"""What starting the ``kickscope`` command sets up, each case in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kickscope

SRC = str(Path(kickscope.__file__).resolve().parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Printed after the snippet under test: the thread variables as the process
# sees them, its thread count (None without /proc) and its loaded modules.
_REPORT = """
import json, os, sys
tasks = "/proc/self/task"
print(json.dumps({
    "env": {k: os.environ.get(k) for k in %r},
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "modules": sorted(sys.modules),
}))
""" % (THREAD_VARS,)


def _start(snippet, **env):
    # The thread variables are removed from the inherited environment, so
    # only those a case sets are seen.
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    base.update(env, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", snippet + "\n" + _REPORT],
        capture_output=True, text=True, timeout=60, env=base,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_command_runs_openblas_on_one_thread():
    report = _start("import kickscope.cli")
    assert report["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                             "OMP_NUM_THREADS": None}
    assert "numpy" in report["modules"]


def test_the_command_starts_no_thread():
    report = _start("import kickscope.cli")
    if report["threads"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert report["threads"] == 1


def test_the_command_loads_verify_only_to_run_it():
    assert "kickscope.verify" not in _start("import kickscope.cli")["modules"]


@pytest.mark.parametrize("name", THREAD_VARS)
def test_a_thread_count_the_user_set_is_kept(name):
    report = _start("import kickscope.cli", **{name: "2"})
    assert report["env"] == {k: "2" if k == name else None for k in THREAD_VARS}


@pytest.mark.parametrize(
    "snippet",
    ["import kickscope; kickscope.SlitPair", "import numpy; import kickscope.cli"],
    ids=["library", "numpy-first"],
)
def test_importing_the_library_or_numpy_first_sets_nothing(snippet):
    assert _start(snippet)["env"] == dict.fromkeys(THREAD_VARS)
