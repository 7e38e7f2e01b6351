"""What starting the ``kickscope`` command sets up, each case in a fresh interpreter."""

import json

import pytest
from conftest import run_python

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
    done = run_python("-c", snippet + "\n" + _REPORT, env=env, drop=THREAD_VARS)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def command_report():
    """One fresh ``import kickscope.cli``, read by the three cases below."""
    return _start("import kickscope.cli")


def test_the_command_runs_openblas_on_one_thread(command_report):
    assert command_report["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                                     "OMP_NUM_THREADS": None}
    assert "numpy" in command_report["modules"]


def test_the_command_starts_no_thread(command_report):
    if command_report["threads"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert command_report["threads"] == 1


def test_the_command_loads_verify_only_to_run_it(command_report):
    assert "kickscope.verify" not in command_report["modules"]


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


def test_a_draw_of_no_events_loads_no_random_generator(tmp_path):
    # sample makes its PCG64 generator when the first block is drawn, so a
    # draw of none never imports numpy.random.
    from test_cli import SMALL, _with

    cfg, out = tmp_path / "small.cfg", tmp_path / "out"
    cfg.write_text(_with(SMALL, "sampling.count = 0\n"))
    report = _start(
        "import contextlib, io\n"
        "from kickscope.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['sample', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
    )
    assert (out / "events.csv").read_text() == "outcome,x\n"
    assert "numpy.random" not in report["modules"]
